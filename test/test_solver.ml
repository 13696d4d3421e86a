open Smtlib
module Value = Solver.Value
module Domain = Solver.Domain
module Eval = Solver.Eval
module Regex = Solver.Regex
module Rewrite = Solver.Rewrite
module Search = Solver.Search
module Model = Solver.Model
module Engine = Solver.Engine
module Runner = Solver.Runner
module Formula = Solver.Formula
module Bug_db = Solver.Bug_db
module Version = Solver.Version
module Coverage = O4a_coverage.Coverage

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let parse_term_exn ?(datatypes = []) ?(ctors = []) src =
  match Parser.parse_term ~datatypes ~ctors src with
  | Ok t -> t
  | Error e -> Alcotest.failf "parse: %s" (Parser.error_message e)

let parse_script_exn src =
  match Parser.parse_script src with
  | Ok sc -> sc
  | Error e -> Alcotest.failf "parse: %s" (Parser.error_message e)

let eval_str ?(context = "") src =
  let script = parse_script_exn context in
  let dts = Script.declared_datatypes script in
  let datatypes = List.map (fun (d : Command.datatype_decl) -> d.Command.dt_name) dts in
  let ctors =
    List.concat_map
      (fun (d : Command.datatype_decl) ->
        List.map (fun (c : Command.constructor) -> c.Command.ctor_name) d.Command.constructors)
      dts
  in
  let ctx = Eval.make_ctx script in
  Value.to_term_string (Eval.eval ctx [] (parse_term_exn ~datatypes ~ctors src))

let check_eval ?context src expected = check_str src expected (eval_str ?context src)

(* ------------------------- Value ------------------------- *)

let test_value_normalization () =
  check_bool "real normalized" true (Value.mk_real 4 8 = Value.Real (1, 2));
  check_bool "real sign" true (Value.mk_real 1 (-2) = Value.Real (-1, 2));
  check_bool "ff residue" true (Value.mk_ff ~order:5 7 = Value.Ff { order = 5; value = 2 });
  check_bool "ff negative" true (Value.mk_ff ~order:5 (-1) = Value.Ff { order = 5; value = 4 });
  check_bool "bv truncation" true (Value.mk_bv ~width:3 9 = Value.Bv { width = 3; value = 1 });
  check_bool "set dedup/sort" true
    (Value.mk_set Sort.Int [ Value.Int 2; Value.Int 1; Value.Int 2 ]
    = Value.Set (Sort.Int, [ Value.Int 1; Value.Int 2 ]));
  check_bool "bag merges" true
    (Value.mk_bag Sort.Int [ (Value.Int 1, 2); (Value.Int 1, 3); (Value.Int 2, 0) ]
    = Value.Bag (Sort.Int, [ (Value.Int 1, 5) ]))

let test_value_compare_rationals () =
  check_bool "1/2 < 2/3" true (Value.compare (Value.mk_real 1 2) (Value.mk_real 2 3) < 0);
  check_bool "2/4 = 1/2" true (Value.equal (Value.mk_real 2 4) (Value.mk_real 1 2))

let test_value_sort_of () =
  check_bool "int" true (Value.sort_of (Value.Int 3) = Sort.Int);
  check_bool "seq" true
    (Value.sort_of (Value.Seq (Sort.Int, [])) = Sort.Seq Sort.Int);
  check_bool "tuple" true
    (Value.sort_of (Value.Tuple [ Value.Int 1; Value.Bool true ])
    = Sort.Tuple [ Sort.Int; Sort.Bool ])

let test_value_printing_parses_back () =
  (* every printable value reads back as a term *)
  let values =
    [ Value.Bool true; Value.Int (-3); Value.mk_real 5 2; Value.mk_bv ~width:4 9;
      Value.Str "a\"b"; Value.mk_ff ~order:5 3; Value.Seq (Sort.Int, [ Value.Int 1 ]);
      Value.Seq (Sort.Int, []); Value.mk_set Sort.Int [ Value.Int 1; Value.Int 2 ];
      Value.Bag (Sort.Int, [ (Value.Int 1, 2) ]);
      Value.Arr { idx = Sort.Int; elt = Sort.Int; default = Value.Int 0;
                  entries = [ (Value.Int 1, Value.Int 2) ] };
      Value.Tuple []; Value.Tuple [ Value.Int 1; Value.Int 2 ] ]
  in
  List.iter
    (fun v ->
      let s = Value.to_term_string v in
      check_bool s true (Result.is_ok (Parser.parse_term s)))
    values

(* ------------------------- Regex ------------------------- *)

let test_regex_basics () =
  check_bool "lit match" true (Regex.matches (Regex.Lit "ab") "ab");
  check_bool "lit mismatch" false (Regex.matches (Regex.Lit "ab") "a");
  check_bool "star empty" true (Regex.matches (Regex.Star (Regex.Lit "a")) "");
  check_bool "star many" true (Regex.matches (Regex.Star (Regex.Lit "ab")) "ababab");
  check_bool "plus needs one" false (Regex.matches (Regex.plus (Regex.Lit "a")) "");
  check_bool "opt" true (Regex.matches (Regex.opt (Regex.Lit "a")) "");
  check_bool "union" true
    (Regex.matches (Regex.Union (Regex.Lit "a", Regex.Lit "b")) "b");
  check_bool "inter" false
    (Regex.matches (Regex.Inter (Regex.Lit "a", Regex.Lit "b")) "a");
  check_bool "range in" true (Regex.matches (Regex.Range ('b', 'd')) "c");
  check_bool "range out" false (Regex.matches (Regex.Range ('b', 'd')) "e");
  check_bool "complement" true (Regex.matches (Regex.Complement (Regex.Lit "a")) "zz");
  check_bool "all" true (Regex.matches Regex.All "anything";);
  check_bool "none" false (Regex.matches Regex.Empty "")

let test_regex_loop () =
  let r = Regex.loop 1 2 (Regex.Lit "a") in
  check_bool "0 reps" false (Regex.matches r "");
  check_bool "1 rep" true (Regex.matches r "a");
  check_bool "2 reps" true (Regex.matches r "aa");
  check_bool "3 reps" false (Regex.matches r "aaa")

let test_regex_diff () =
  let r = Regex.diff Regex.Any_char (Regex.Lit "a") in
  check_bool "b in diff" true (Regex.matches r "b");
  check_bool "a not in diff" false (Regex.matches r "a")

(* ------------------------- Domain ------------------------- *)

let dom sort = Domain.enumerate ~datatypes:[] sort

let test_domain_shapes () =
  check_int "bool" 2 (List.length (dom Sort.Bool));
  check_int "int window" 6 (List.length (dom Sort.Int));
  check_int "bv2 full" 4 (List.length (dom (Sort.Bitvec 2)));
  check_int "ff3 full" 3 (List.length (dom (Sort.Finite_field 3)));
  check_bool "sets are subsets" true (List.length (dom (Sort.Set Sort.Int)) = 8);
  check_bool "capped" true
    (List.length (dom (Sort.Seq Sort.Int)) <= Domain.default_config.Domain.max_domain_size)

let test_domain_distinct () =
  List.iter
    (fun sort ->
      let d = dom sort in
      check_int
        (Sort.to_string sort ^ " distinct")
        (List.length d)
        (List.length (O4a_util.Listx.dedup ~eq:Value.equal d)))
    [ Sort.Bool; Sort.Int; Sort.Real; Sort.String_sort; Sort.Bitvec 3;
      Sort.Finite_field 5; Sort.Seq Sort.Int; Sort.Set Sort.Int; Sort.Bag Sort.Int;
      Sort.Array (Sort.Int, Sort.Int); Sort.Tuple [ Sort.Int; Sort.Bool ] ]

let test_domain_datatype () =
  let dts =
    Script.declared_datatypes
      (parse_script_exn
         "(declare-datatypes ((Lst 0)) (((nil) (cons (head Int) (tail Lst)))))")
  in
  let d = Domain.enumerate ~datatypes:dts (Sort.Datatype "Lst") in
  check_bool "nonempty" true (d <> []);
  check_bool "has nil" true (List.exists (fun v -> v = Value.Dt ("Lst", "nil", [])) d);
  check_bool "has cons" true
    (List.exists (function Value.Dt (_, "cons", _) -> true | _ -> false) d)

let test_default_value () =
  check_bool "int default" true (Domain.default_value ~datatypes:[] Sort.Int = Value.Int (-2));
  check_bool "bool default" true
    (Domain.default_value ~datatypes:[] Sort.Bool = Value.Bool false)

(* The eager enumerator [Domain.enumerate] replaced, kept as the reference
   for its values and their order: it builds each whole product, then caps. *)
let rec eager_uncapped (config : Domain.config) ~datatypes sort =
  match sort with
  | Sort.Bool -> [ Value.Bool false; Value.Bool true ]
  | Sort.Int ->
    List.map (fun n -> Value.Int n) (O4a_util.Listx.range config.Domain.int_lo config.int_hi)
  | Sort.Real ->
    [ Value.mk_real (-1) 1; Value.mk_real (-1) 2; Value.mk_real 0 1; Value.mk_real 1 2;
      Value.mk_real 1 1; Value.mk_real 2 1 ]
  | Sort.String_sort -> List.map (fun s -> Value.Str s) [ ""; "a"; "b"; "ab"; "ba"; "0"; "aa" ]
  | Sort.Reglan ->
    [ Value.Re Regex.Empty; Value.Re Regex.Epsilon; Value.Re Regex.Any_char;
      Value.Re Regex.All; Value.Re (Regex.Lit "a") ]
  | Sort.Bitvec w ->
    let full = w <= 3 in
    let values =
      if full then O4a_util.Listx.range 0 ((1 lsl w) - 1)
      else (
        let top = (1 lsl min w 30) - 1 in
        O4a_util.Listx.dedup [ 0; 1; 2; 3; 5; top / 2; top - 1; top ])
    in
    List.map (fun v -> Value.mk_bv ~width:w v) values
  | Sort.Finite_field p ->
    let values = if p <= 11 then O4a_util.Listx.range 0 (p - 1) else [ 0; 1; 2; p - 2; p - 1 ] in
    List.map (fun v -> Value.mk_ff ~order:p v) values
  | Sort.Seq elt ->
    let elems =
      O4a_util.Listx.take config.max_container_elems (eager_uncapped config ~datatypes elt)
    in
    let rec seqs len =
      if len = 0 then [ [] ]
      else (
        let shorter = seqs (len - 1) in
        shorter @ List.concat_map (fun s -> List.map (fun e -> e :: s) elems)
                    (List.filter (fun s -> List.length s = len - 1) shorter))
    in
    List.map (fun s -> Value.Seq (elt, s)) (seqs config.max_seq_len)
  | Sort.Set elt ->
    let elems =
      O4a_util.Listx.take config.max_container_elems (eager_uncapped config ~datatypes elt)
    in
    let rec subsets = function
      | [] -> [ [] ]
      | x :: rest ->
        let without = subsets rest in
        without @ List.map (fun s -> x :: s) without
    in
    List.map (fun s -> Value.mk_set elt s) (subsets elems)
  | Sort.Bag elt ->
    let elems = O4a_util.Listx.take 2 (eager_uncapped config ~datatypes elt) in
    let mults = O4a_util.Listx.range 0 config.max_bag_mult in
    let rec assignments = function
      | [] -> [ [] ]
      | x :: rest ->
        let tails = assignments rest in
        List.concat_map (fun m -> List.map (fun t -> (x, m) :: t) tails) mults
    in
    List.map
      (fun entries -> Value.mk_bag elt (List.filter (fun (_, m) -> m > 0) entries))
      (assignments elems)
  | Sort.Array (idx, elt) ->
    let elt_values = O4a_util.Listx.take 3 (eager_uncapped config ~datatypes elt) in
    let idx_values = O4a_util.Listx.take 2 (eager_uncapped config ~datatypes idx) in
    let constants =
      List.map (fun d -> Value.Arr { idx; elt; default = d; entries = [] }) elt_values
    in
    let with_store =
      match (idx_values, elt_values) with
      | i0 :: _, d :: alt :: _ when not (Value.equal d alt) ->
        [ Value.Arr { idx; elt; default = d; entries = [ (i0, alt) ] } ]
      | _ -> []
    in
    constants @ with_store
  | Sort.Tuple sorts ->
    let rec products = function
      | [] -> [ [] ]
      | s :: rest ->
        let values = O4a_util.Listx.take 3 (eager_uncapped config ~datatypes s) in
        let tails = products rest in
        List.concat_map (fun v -> List.map (fun t -> v :: t) tails) values
    in
    List.map (fun vs -> Value.Tuple vs) (products sorts)
  | Sort.Datatype name -> eager_datatype config ~datatypes name config.datatype_depth
  | Sort.Uninterpreted name -> List.init config.uninterpreted_card (fun k -> Value.Un (name, k))

and eager_datatype config ~datatypes name depth =
  match List.find_opt (fun (d : Command.datatype_decl) -> d.dt_name = name) datatypes with
  | None -> [ Value.Un (name, 0) ]
  | Some decl ->
    let build_ctor (c : Command.constructor) =
      if depth <= 0 && c.selectors <> [] then []
      else (
        let rec fields = function
          | [] -> [ [] ]
          | (_, s) :: rest ->
            let values =
              match s with
              | Sort.Datatype n when n = name -> eager_datatype config ~datatypes name (depth - 1)
              | _ -> O4a_util.Listx.take 2 (eager_uncapped config ~datatypes s)
            in
            let tails = fields rest in
            List.concat_map (fun v -> List.map (fun t -> v :: t) tails)
              (O4a_util.Listx.take 2 values)
        in
        List.map (fun vs -> Value.Dt (name, c.ctor_name, vs)) (fields c.selectors))
    in
    (match List.concat_map build_ctor decl.constructors with
    | [] -> [ Value.Un (name, 0) ]
    | vs -> vs)

let eager_enumerate ~datatypes sort =
  let config = Domain.default_config in
  O4a_util.Listx.take config.Domain.max_domain_size (eager_uncapped config ~datatypes sort)

let wide_datatypes =
  let fields n sort = String.concat " " (List.init n (fun i -> Printf.sprintf "(w%d %s)" i sort)) in
  Script.declared_datatypes
    (parse_script_exn
       (Printf.sprintf
          "(declare-datatypes ((Lst 0)) (((nil) (cons (head Int) (tail Lst)))))\n\
           (declare-datatypes ((Rec6 0)) (((mk6 (f1 Int) (f2 Bool) (f3 String) (f4 Int) \
           (f5 (_ BitVec 4)) (f6 Lst)) (leaf6))))\n\
           (declare-datatypes ((Wide 0)) (((wide %s))))\n\
           (declare-datatypes ((Wide4 0)) (((wide4 %s))))"
          (fields 30 "Int") (fields 4 "Int")))

let test_domain_matches_eager () =
  let agree sort =
    check_bool (Sort.to_string sort) true
      (Domain.enumerate ~datatypes:wide_datatypes sort
      = eager_enumerate ~datatypes:wide_datatypes sort)
  in
  let cycle k =
    List.init k (fun i -> [| Sort.Int; Sort.Bool; Sort.String_sort; Sort.Bitvec 4 |].(i mod 4))
  in
  List.iter agree
    [ Sort.Bool; Sort.Int; Sort.Real; Sort.String_sort; Sort.Reglan; Sort.Bitvec 2;
      Sort.Bitvec 3; Sort.Bitvec 8; Sort.Finite_field 3; Sort.Finite_field 5;
      Sort.Finite_field 13; Sort.Seq Sort.Int; Sort.Set Sort.Int; Sort.Bag Sort.Int;
      Sort.Array (Sort.Int, Sort.Int); Sort.Uninterpreted "U";
      Sort.Datatype "Lst"; Sort.Datatype "Rec6"; Sort.Datatype "Wide4" ];
  (* tuples of arity 1-8, nested tuples, and containers of tuples *)
  List.iter (fun k -> agree (Sort.Tuple (cycle k))) [ 1; 2; 3; 4; 5; 6; 7; 8 ];
  let nested =
    Sort.Tuple [ Sort.Tuple (cycle 3); Sort.Int; Sort.Tuple [ Sort.Tuple (cycle 4); Sort.Bool ] ]
  in
  List.iter agree
    [ nested; Sort.Tuple [ nested; nested ]; Sort.Seq nested; Sort.Set (Sort.Tuple (cycle 5));
      Sort.Bag (Sort.Tuple (cycle 6)); Sort.Array (Sort.Tuple (cycle 2), nested);
      Sort.Tuple [ Sort.Datatype "Rec6"; Sort.Datatype "Lst" ] ]

(* Enumeration stops at the cap: the eager enumerator built 3^30 tuples and
   2^30 constructor applications here before keeping 16. The first 16 values
   of a wide product vary only its last fields, so a narrow product gives
   them. *)
let test_domain_wide_products_capped () =
  let dom sort = Domain.enumerate ~datatypes:wide_datatypes sort in
  let tuple = dom (Sort.Tuple (List.init 30 (fun _ -> Sort.Int))) in
  check_int "30-field tuple" 16 (List.length tuple);
  check_bool "30-field tuple prefix" true
    (tuple
    = List.map
        (function
          | Value.Tuple vs -> Value.Tuple (List.init 27 (fun _ -> Value.Int (-2)) @ vs)
          | v -> v)
        (eager_enumerate ~datatypes:[] (Sort.Tuple [ Sort.Int; Sort.Int; Sort.Int ])));
  let wide = dom (Sort.Datatype "Wide") in
  check_int "30-field constructor" 16 (List.length wide);
  check_bool "30-field constructor prefix" true
    (wide
    = List.map
        (function
          | Value.Dt (_, _, vs) ->
            Value.Dt ("Wide", "wide", List.init 26 (fun _ -> Value.Int (-2)) @ vs)
          | v -> v)
        (eager_enumerate ~datatypes:wide_datatypes (Sort.Datatype "Wide4")))

(* ------------------------- Eval: arithmetic ------------------------- *)

let test_eval_euclidean () =
  check_int "ediv pos" 2 (Eval.ediv 7 3);
  check_int "ediv neg num" (-3) (Eval.ediv (-7) 3);
  check_int "ediv neg den" (-2) (Eval.ediv 7 (-3));
  check_int "emod neg" 2 (Eval.emod (-7) 3);
  check_int "emod always nonneg" 2 (Eval.emod (-7) (-3));
  check_int "div by zero" 0 (Eval.ediv 5 0);
  check_int "mod by zero" 5 (Eval.emod 5 0)

let test_eval_to_signed () =
  check_int "positive" 3 (Eval.to_signed 4 3);
  check_int "negative" (-1) (Eval.to_signed 4 15);
  check_int "min" (-8) (Eval.to_signed 4 8)

let test_eval_int_ops () =
  check_eval "(+ 1 2 3)" "6";
  check_eval "(- 5 2)" "3";
  check_eval "(* 2 (- 3))" "(- 6)";
  check_eval "(div 7 2)" "3";
  check_eval "(mod (- 7) 3)" "2";
  check_eval "(abs (- 4))" "4";
  check_eval "(< 1 2 3)" "true";
  check_eval "(< 1 3 2)" "false";
  check_eval "(<= 2 2)" "true";
  check_eval "((_ divisible 3) 9)" "true";
  check_eval "((_ divisible 3) 10)" "false"

let test_eval_real_ops () =
  check_eval "(+ 1.5 0.5)" "2.0";
  check_eval "(/ 1.0 2.0)" "0.5";
  check_eval "(/ 1.0 0.0)" "0.0";
  check_eval "(* 0.5 0.5)" "0.25";
  check_eval "(to_int 1.5)" "1";
  check_eval "(to_int (- 1.5))" "(- 2)";
  check_eval "(to_real 3)" "3.0";
  check_eval "(is_int 2.0)" "true";
  check_eval "(is_int 0.5)" "false";
  check_eval "(= 2 2.0)" "true"

let test_eval_core_ops () =
  check_eval "(and true true false)" "false";
  check_eval "(or false false true)" "true";
  check_eval "(xor true true)" "false";
  check_eval "(=> false false)" "true";
  check_eval "(=> true false)" "false";
  check_eval "(distinct 1 2 3)" "true";
  check_eval "(distinct 1 2 1)" "false";
  check_eval "(ite (< 1 2) 10 20)" "10";
  check_eval "(not (= 1 1))" "false"

(* ------------------------- Eval: bit-vectors ------------------------- *)

let test_eval_bv_ops () =
  check_eval "(bvadd #b0111 #b0001)" "#b1000";
  check_eval "(bvadd #b1111 #b0001)" "#b0000";
  check_eval "(bvmul #b011 #b011)" "#b001";
  check_eval "(bvand #b1100 #b1010)" "#b1000";
  check_eval "(bvor #b1100 #b1010)" "#b1110";
  check_eval "(bvxor #b11 #b01)" "#b10";
  check_eval "(bvnot #b1010)" "#b0101";
  check_eval "(bvneg #b0001)" "#b1111";
  check_eval "(bvudiv #b0110 #b0010)" "#b0011";
  check_eval "(bvudiv #b0110 #b0000)" "#b1111";
  check_eval "(bvurem #b0111 #b0010)" "#b0001";
  check_eval "(bvshl #b0001 #b0010)" "#b0100";
  check_eval "(bvlshr #b1000 #b0011)" "#b0001";
  check_eval "(bvashr #b1000 #b0001)" "#b1100";
  check_eval "(bvult #b001 #b010)" "true";
  check_eval "(bvslt #b111 #b001)" "true";
  check_eval "(bvsge #b011 #b101)" "true";
  check_eval "(concat #b10 #b01)" "#b1001";
  check_eval "((_ extract 2 1) #b0110)" "#b11";
  check_eval "((_ zero_extend 2) #b11)" "#b0011";
  check_eval "((_ sign_extend 2) #b11)" "#b1111";
  check_eval "((_ rotate_left 1) #b100)" "#b001";
  check_eval "(bv2nat #b101)" "5";
  check_eval "((_ int2bv 3) 10)" "#b010";
  check_eval "(bvcomp #b10 #b10)" "#b1"

(* ------------------------- Eval: strings ------------------------- *)

let test_eval_string_ops () =
  check_eval {|(str.++ "a" "b" "c")|} "\"abc\"";
  check_eval {|(str.len "abc")|} "3";
  check_eval {|(str.at "abc" 1)|} "\"b\"";
  check_eval {|(str.at "abc" 9)|} "\"\"";
  check_eval {|(str.substr "abcde" 1 3)|} "\"bcd\"";
  check_eval {|(str.substr "ab" 5 1)|} "\"\"";
  check_eval {|(str.indexof "abcab" "ab" 1)|} "3";
  check_eval {|(str.indexof "abc" "z" 0)|} "(- 1)";
  check_eval {|(str.contains "hello" "ell")|} "true";
  check_eval {|(str.prefixof "he" "hello")|} "true";
  check_eval {|(str.suffixof "lo" "hello")|} "true";
  check_eval {|(str.replace "aaa" "a" "b")|} "\"baa\"";
  check_eval {|(str.replace_all "aaa" "a" "b")|} "\"bbb\"";
  check_eval {|(str.< "a" "b")|} "true";
  check_eval {|(str.to_int "42")|} "42";
  check_eval {|(str.to_int "4a")|} "(- 1)";
  check_eval {|(str.from_int 7)|} "\"7\"";
  check_eval {|(str.from_int (- 7))|} "\"\"";
  check_eval {|(str.to_code "a")|} "97";
  check_eval {|(str.from_code 98)|} "\"b\"";
  check_eval {|(str.is_digit "5")|} "true";
  check_eval {|(str.is_digit "55")|} "false"

let test_eval_regex_ops () =
  check_eval {|(str.in_re "abab" (re.* (str.to_re "ab")))|} "true";
  check_eval {|(str.in_re "aba" (re.* (str.to_re "ab")))|} "false";
  check_eval {|(str.in_re "c" (re.range "a" "d"))|} "true";
  check_eval {|(str.in_re "x" re.allchar)|} "true";
  check_eval {|(str.in_re "xy" re.allchar)|} "false";
  check_eval {|(str.in_re "q" re.none)|} "false";
  check_eval {|(str.in_re "aa" ((_ re.loop 1 3) (str.to_re "a")))|} "true";
  check_eval {|(str.in_re "b" (re.comp (str.to_re "a")))|} "true";
  check_eval {|(str.in_re "ab" (re.++ (str.to_re "a") (str.to_re "b")))|} "true"

(* ------------------------- Eval: containers ------------------------- *)

let test_eval_seq_ops () =
  check_eval "(seq.len (seq.++ (seq.unit 1) (seq.unit 2)))" "2";
  check_eval "(seq.nth (seq.++ (seq.unit 4) (seq.unit 5)) 1)" "5";
  check_eval "(seq.nth (as seq.empty (Seq Int)) 0)" "(- 2)" (* default Int *);
  check_eval "(seq.rev (seq.++ (seq.unit 1) (seq.unit 2)))"
    "(seq.++ (seq.unit 2) (seq.unit 1))";
  check_eval "(seq.contains (seq.++ (seq.unit 1) (seq.unit 2)) (seq.unit 2))" "true";
  check_eval "(seq.extract (seq.++ (seq.unit 1) (seq.unit 2)) 1 1)" "(seq.unit 2)";
  check_eval "(seq.indexof (seq.++ (seq.unit 7) (seq.unit 8)) (seq.unit 8) 0)" "1";
  check_eval "(seq.prefixof (seq.unit 1) (seq.++ (seq.unit 1) (seq.unit 2)))" "true";
  check_eval "(seq.len (seq.rev (as seq.empty (Seq Int))))" "0"

let test_eval_set_ops () =
  check_eval "(set.card (set.insert 1 2 (set.singleton 3)))" "3";
  check_eval "(set.card (set.insert 1 1 (set.singleton 1)))" "1";
  check_eval "(set.member 2 (set.union (set.singleton 1) (set.singleton 2)))" "true";
  check_eval "(set.member 3 (set.inter (set.singleton 1) (set.singleton 2)))" "false";
  check_eval "(set.subset (set.singleton 1) (set.insert 1 (set.singleton 2)))" "true";
  check_eval "(set.is_empty (set.minus (set.singleton 1) (set.singleton 1)))" "true";
  check_eval "(set.choose (set.singleton 9))" "9";
  check_eval "(set.is_singleton (set.singleton 0))" "true"

let test_eval_relation_ops () =
  check_eval
    "(set.member (tuple 1 3) (rel.join (set.singleton (tuple 1 2)) (set.singleton (tuple 2 3))))"
    "true";
  check_eval
    "(set.is_empty (rel.join (set.singleton (tuple 1 2)) (set.singleton (tuple 9 3))))"
    "true";
  check_eval "(set.member (tuple 2 1) (rel.transpose (set.singleton (tuple 1 2))))"
    "true";
  check_eval "(set.card (rel.product (set.singleton (tuple 1 2)) (set.singleton (tuple 3 4))))"
    "1";
  check_eval "((_ tuple.select 1) (tuple 5 6))" "6"

let test_eval_bag_ops () =
  check_eval "(bag.count 1 (bag 1 3))" "3";
  check_eval "(bag.count 2 (bag 1 3))" "0";
  check_eval "(bag.card (bag.union_disjoint (bag 1 2) (bag 1 3)))" "5";
  check_eval "(bag.count 1 (bag.union_max (bag 1 2) (bag 1 3)))" "3";
  check_eval "(bag.count 1 (bag.inter_min (bag 1 2) (bag 1 3)))" "2";
  check_eval "(bag.count 1 (bag.difference_subtract (bag 1 5) (bag 1 3)))" "2";
  check_eval "(bag.count 1 (bag.difference_remove (bag 1 5) (bag 1 1)))" "0";
  check_eval "(bag.count 1 (bag.setof (bag 1 9)))" "1";
  check_eval "(bag.subbag (bag 1 2) (bag 1 3))" "true";
  check_eval "(bag.member 1 (bag 1 0))" "false";
  check_eval "(bag.card (bag 1 (- 2)))" "0"

let test_eval_ff_ops () =
  check_eval "(ff.add (as ff2 (_ FiniteField 3)) (as ff2 (_ FiniteField 3)))"
    "(as ff1 (_ FiniteField 3))";
  check_eval "(ff.mul (as ff2 (_ FiniteField 5)) (as ff3 (_ FiniteField 5)))"
    "(as ff1 (_ FiniteField 5))";
  check_eval "(ff.neg (as ff1 (_ FiniteField 7)))" "(as ff6 (_ FiniteField 7))";
  (* bitsum: x0 + 2*x1 + 4*x2 *)
  check_eval
    "(ff.bitsum (as ff1 (_ FiniteField 7)) (as ff1 (_ FiniteField 7)) (as ff1 (_ FiniteField 7)))"
    "(as ff0 (_ FiniteField 7))"

let test_eval_array_ops () =
  check_eval "(select ((as const (Array Int Int)) 7) 3)" "7";
  check_eval "(select (store ((as const (Array Int Int)) 0) 1 9) 1)" "9";
  check_eval "(select (store ((as const (Array Int Int)) 0) 1 9) 2)" "0";
  (* store that restores the default is normalized away *)
  check_eval "(= (store ((as const (Array Int Int)) 5) 0 5) ((as const (Array Int Int)) 5))"
    "true"

let test_eval_datatypes () =
  let context =
    "(declare-datatypes ((Lst 0)) (((nil) (cons (head Int) (tail Lst)))))"
  in
  check_eval ~context "(head (cons 4 (as nil Lst)))" "4";
  check_eval ~context "((_ is cons) (cons 1 (as nil Lst)))" "true";
  check_eval ~context "((_ is nil) (cons 1 (as nil Lst)))" "false";
  (* selector misapplication is underspecified but total *)
  check_eval ~context "(head (as nil Lst))" "(- 2)"

let test_eval_match () =
  let context =
    "(declare-datatypes ((Lst 0)) (((nil) (cons (head Int) (tail Lst)))))"
  in
  check_eval ~context "(match (as nil Lst) ((nil 0) ((cons h t) h)))" "0";
  check_eval ~context "(match (cons 5 (as nil Lst)) ((nil 0) ((cons h t) h)))" "5";
  check_eval ~context "(match (cons 5 (as nil Lst)) ((nil 0) (_ 9)))" "9";
  check_eval ~context "(match (cons 5 (as nil Lst)) ((whole (head whole))))" "5";
  (* first matching case wins *)
  check_eval ~context "(match (as nil Lst) ((_ 1) (nil 2)))" "1"

let test_eval_quantifiers () =
  check_eval "(forall ((b Bool)) (or b (not b)))" "true";
  check_eval "(exists ((x Int)) (= (* x x) 4))" "true";
  check_eval "(forall ((x Int)) (< x 100))" "true" (* bounded domain! *);
  check_eval "(exists ((x Int)) (= x 100))" "false" (* out of window *);
  check_eval "(forall ((x Int) (y Int)) (= (+ x y) (+ y x)))" "true"

let test_eval_let () =
  check_eval "(let ((a 2) (b 3)) (+ a b))" "5";
  (* parallel-let semantics: b sees the outer a *)
  check_eval "(let ((a 1)) (let ((a 2) (b a)) b))" "1"

let test_eval_define_fun () =
  check_eval ~context:"(define-fun sq ((n Int)) Int (* n n))" "(sq 5)" "25";
  check_eval ~context:"(define-fun k () Int 7)" "(+ k 1)" "8"

let test_eval_fuel () =
  let script = parse_script_exn "" in
  let ctx = Eval.make_ctx ~max_steps:10 script in
  let big = parse_term_exn "(forall ((a Int) (b Int) (c Int)) (= (+ a b c) (+ c b a)))" in
  match Eval.eval ctx [] big with
  | exception Eval.Out_of_fuel -> ()
  | _ -> Alcotest.fail "expected fuel exhaustion"

let test_eval_failure_is_clean () =
  let script = parse_script_exn "" in
  let ctx = Eval.make_ctx script in
  match Eval.eval ctx [] (parse_term_exn "(frobnicate 1)") with
  | exception Eval.Eval_failure _ -> ()
  | _ -> Alcotest.fail "expected Eval_failure"

let test_eval_edge_cases () =
  (* division family at zero: fixed totalization shared by both solvers *)
  check_eval "(div 5 0)" "0";
  check_eval "(mod 5 0)" "5";
  check_eval "(/ 3.0 0.0)" "0.0";
  check_eval "(bvudiv #b01 #b00)" "#b11";
  check_eval "(bvurem #b01 #b00)" "#b01";
  (* out-of-range container access *)
  check_eval "(seq.extract (seq.unit 1) 5 2)" "(as seq.empty (Seq Int))";
  check_eval "(seq.extract (seq.unit 1) 0 0)" "(as seq.empty (Seq Int))";
  check_eval "(seq.at (seq.unit 1) (- 1))" "(as seq.empty (Seq Int))";
  check_eval "(seq.update (seq.unit 1) 9 (seq.unit 2))" "(seq.unit 1)";
  check_eval "(str.at \"\" 0)" "\"\"";
  check_eval "(str.indexof \"abc\" \"\" 1)" "1";
  check_eval "(str.substr \"abc\" (- 1) 2)" "\"\"";
  (* choose on empty containers is the domain default *)
  check_eval "(set.choose (as set.empty (Set Int)))" "(- 2)";
  check_eval "(bag.choose (as bag.empty (Bag Int)))" "(- 2)";
  (* set complement is wrt the finite universe *)
  check_eval "(set.card (set.complement (as set.empty (Set Int))))" "6";
  check_eval "(set.member 0 (set.complement (set.singleton 0)))" "false";
  (* rotations and extensions at tiny widths *)
  check_eval "((_ rotate_left 1) #b1)" "#b1";
  check_eval "((_ repeat 2) #b10)" "#b1010";
  check_eval "(bvashr #b10 #b11)" "#b11" (* saturating arithmetic shift *);
  (* replace with empty pattern prepends (SMT-LIB semantics) *)
  check_eval "(str.replace \"bc\" \"\" \"a\")" "\"abc\"";
  (* chainable comparisons *)
  check_eval "(<= 1 1 2)" "true";
  check_eval "(< 1 1 2)" "false";
  (* distinct with numeric coercion *)
  check_eval "(distinct 1 1.0)" "false";
  (* ff.bitsum with a single child is the child *)
  check_eval "(ff.bitsum (as ff2 (_ FiniteField 5)) (as ff0 (_ FiniteField 5)))"
    "(as ff2 (_ FiniteField 5))"

(* ------------------------- Rewrite ------------------------- *)

let simplify_with rules src =
  Printer.term
    (Rewrite.simplify ~rules ~fired:(fun _ -> ()) (parse_term_exn src))

let test_rewrite_shared_rules () =
  check_str "not-not" "p" (simplify_with Rewrite.shared_rules "(not (not p))");
  check_str "and-false" "false" (simplify_with Rewrite.shared_rules "(and p false q)");
  check_str "and-true" "p" (simplify_with Rewrite.shared_rules "(and p true)");
  check_str "or-true" "true" (simplify_with Rewrite.shared_rules "(or p true)");
  check_str "eq-refl" "true" (simplify_with Rewrite.shared_rules "(= (+ x 1) (+ x 1))");
  check_str "ite-true" "a" (simplify_with Rewrite.shared_rules "(ite true a b)");
  check_str "implies" "q" (simplify_with Rewrite.shared_rules "(=> true q)");
  check_str "xor-self" "false" (simplify_with Rewrite.shared_rules "(xor m m)")

let test_rewrite_zeal_pipeline () =
  check_str "const fold" "true" (simplify_with Rewrite.zeal_rules "(< (+ 1 2) 4)");
  check_str "mul zero" "0" (simplify_with Rewrite.zeal_rules "(* x 0)");
  check_str "flatten and" "(and a b c)"
    (simplify_with Rewrite.zeal_rules "(and (and a b) c)");
  check_str "string fold" "\"ab\"" (simplify_with Rewrite.zeal_rules "(str.++ \"a\" \"b\")");
  check_str "bvnot-bvnot" "v" (simplify_with Rewrite.zeal_rules "(bvnot (bvnot v))")

let test_rewrite_cove_pipeline () =
  check_str "gt normalized" "(< b a)" (simplify_with Rewrite.cove_rules "(> a b)");
  check_str "seq rev-rev" "s" (simplify_with Rewrite.cove_rules "(seq.rev (seq.rev s))");
  check_str "set union idem" "a" (simplify_with Rewrite.cove_rules "(set.union a a)");
  check_str "ff neg-neg" "x" (simplify_with Rewrite.cove_rules "(ff.neg (ff.neg x))");
  check_str "bag count empty" "0"
    (simplify_with Rewrite.cove_rules "(bag.count 1 (as bag.empty (Bag Int)))")

let test_rewrite_fired_callback () =
  let fired = ref [] in
  ignore
    (Rewrite.simplify ~rules:Rewrite.shared_rules
       ~fired:(fun r -> fired := r :: !fired)
       (parse_term_exn "(not (not (and p true)))"));
  check_bool "not-not fired" true (List.mem "not-not" !fired);
  check_bool "and-elim fired" true (List.mem "and-elim" !fired)

(* simplification must preserve bounded semantics *)
let rewrite_preserves_semantics_on seeds rules =
  List.for_all
    (fun seed ->
      let ctx = Eval.make_ctx seed in
      let consts = Script.declared_consts seed in
      let env =
        List.map
          (fun (n, s) ->
            (n, Domain.default_value ~datatypes:(Script.declared_datatypes seed) s))
          consts
      in
      List.for_all
        (fun assertion ->
          let simplified = Rewrite.simplify ~rules ~fired:(fun _ -> ()) assertion in
          match
            ( Eval.eval ctx env assertion,
              Eval.eval ctx env simplified )
          with
          | a, b -> Value.equal a b
          | exception (Eval.Eval_failure _ | Eval.Out_of_fuel) -> true)
        (Script.assertions seed))
    seeds

let test_rewrite_preserves_semantics () =
  let seeds = O4a_util.Listx.take 60 (Seeds.Corpus.all ()) in
  check_bool "zeal rules sound" true (rewrite_preserves_semantics_on seeds Rewrite.zeal_rules);
  check_bool "cove rules sound" true (rewrite_preserves_semantics_on seeds Rewrite.cove_rules)

(* ------------------------- Search ------------------------- *)

let solve_src src =
  Search.solve (parse_script_exn src)

let test_search_sat_with_valid_model () =
  match solve_src "(declare-fun x () Int)(declare-fun y () Int)(assert (= (+ x y) 3))(assert (< x y))(check-sat)" with
  | Search.Sat model ->
    let script =
      parse_script_exn
        "(declare-fun x () Int)(declare-fun y () Int)(assert (= (+ x y) 3))(assert (< x y))(check-sat)"
    in
    check_bool "model validates" true (Model.check script model = Model.Holds)
  | _ -> Alcotest.fail "expected sat"

let test_search_unsat () =
  match solve_src "(declare-fun x () Int)(assert (< x 0))(assert (> x 0))(check-sat)" with
  | Search.Unsat -> ()
  | _ -> Alcotest.fail "expected unsat"

let test_search_no_vars () =
  (match solve_src "(assert (= 1 1))(check-sat)" with
  | Search.Sat _ -> ()
  | _ -> Alcotest.fail "tautology sat");
  match solve_src "(assert (= 1 2))(check-sat)" with
  | Search.Unsat -> ()
  | _ -> Alcotest.fail "contradiction unsat"

let test_search_uninterpreted_fun () =
  (* constant interpretation suffices here *)
  match
    solve_src "(declare-fun f (Int) Int)(declare-fun x () Int)(assert (= (f x) 2))(check-sat)"
  with
  | Search.Sat model ->
    check_bool "f default recorded" true
      (List.mem_assoc "f" model.Model.fun_defaults)
  | _ -> Alcotest.fail "expected sat via constant interpretation"

let test_search_order_changes_model () =
  let src = "(declare-fun x () Int)(assert (< x 4))(check-sat)" in
  let m_asc =
    match Search.solve ~order:Search.Ascending (parse_script_exn src) with
    | Search.Sat m -> List.assoc "x" m.Model.consts
    | _ -> Alcotest.fail "asc sat"
  in
  let m_desc =
    match Search.solve ~order:Search.Descending (parse_script_exn src) with
    | Search.Sat m -> List.assoc "x" m.Model.consts
    | _ -> Alcotest.fail "desc sat"
  in
  check_bool "different search orders, different models" false
    (Value.equal m_asc m_desc)

let test_search_fuel_unknown () =
  let src =
    "(declare-fun a () (Seq Int))(declare-fun b () (Seq Int))(declare-fun c () (Seq Int))\n(assert (forall ((x Int) (y Int)) (distinct (seq.++ a b c) (seq.unit (+ x y)))))(check-sat)"
  in
  match Search.solve ~max_steps:200 (parse_script_exn src) with
  | Search.Resource_limit -> ()
  | Search.Unknown _ -> Alcotest.fail "expected Resource_limit, got Unknown"
  | Search.Sat _ | Search.Unsat -> Alcotest.fail "expected resource-out"

(* A bound that empties the last slot's domain: no assignment exists, and
   the answer must not cost a visit to every node above that slot (6^8
   of them here, spending no fuel). *)
let test_search_empty_domain () =
  let n = 9 in
  let decls =
    String.concat "" (List.init n (fun i -> Printf.sprintf "(declare-const x%d Int)" i))
  in
  let last = Printf.sprintf "x%d" (n - 1) in
  let script = parse_script_exn (Printf.sprintf "%s(assert (> %s 0))(check-sat)" decls last) in
  let hits = ref 0 and steps = ref (-1) in
  let outcome =
    Search.solve ~max_steps:1000
      ~bounds:[ (last, { Solver.Propagate.lo = Some 10; hi = Some 5 }) ]
      ~cov:(fun _ _ k -> hits := !hits + k)
      ~steps_used:steps script
  in
  check_bool "unsat" true (outcome = Search.Unsat);
  check_int "no fuel" 0 !steps;
  check_bool (Printf.sprintf "%d coverage hits, under 10" !hits) true (!hits < 10)

(* ---------------------- Search: differential ---------------------- *)

(* The references live in test/reference: [Reference.Walk.solve], the plain
   depth-first walk [Search.solve] replaced, evaluates every leaf in order
   with [Reference.Eval], the tree-walker the compiled [Eval] replaced. *)

let differential_budgets = [ 50; 2_000; 20_000 ]

(* [Some why] when compiled and tree-walking evaluation of an assertion
   differ on the value or failure text, the steps (so the step at which fuel
   runs out), or any coverage count. Each assertion is evaluated on its own,
   under the first and under the last value of every declared symbol. *)
let eval_mismatch ~max_steps script =
  let decls = Script.declared_funs script in
  let datatypes = Script.declared_datatypes script in
  let env pick ~funs =
    List.filter_map
      (fun (d : Script.fun_decl) ->
        match Domain.enumerate ~datatypes d.result_sort with
        | _ :: _ as values when (d.arg_sorts <> []) = funs -> Some (d.name, pick values)
        | _ -> None)
      decls
  in
  let outcome run =
    match run () with
    | v -> Ok v
    | exception (Eval.Out_of_fuel | Reference.Eval.Out_of_fuel) -> Error "out of fuel"
    | exception (Eval.Eval_failure msg | Reference.Eval.Eval_failure msg) -> Error msg
    | exception e -> Error (Printexc.to_string e)
  in
  let compiled consts funs a =
    let counts, add = Reference.Walk.tally () in
    let ctx = Eval.make_ctx ~max_steps ~fun_defaults:funs script in
    let r = outcome (fun () -> Eval.eval ctx consts a) in
    Eval.flush ctx add;
    (r, (Eval.state ctx).Eval.steps, counts ())
  in
  let walked consts funs a =
    let counts, add = Reference.Walk.tally () in
    let ctx =
      Reference.Eval.make_ctx ~max_steps ~fun_defaults:funs ~cov:(fun key line -> add key line 1)
        script
    in
    let r = outcome (fun () -> Reference.Eval.eval ctx consts a) in
    (r, ctx.Reference.Eval.steps, counts ())
  in
  List.find_map
    (fun pick ->
      let consts = env pick ~funs:false and funs = env pick ~funs:true in
      List.find_map
        (fun a ->
          let r, steps, counts = compiled consts funs a in
          let r', steps', counts' = walked consts funs a in
          if r <> r' then Some "value or failure text"
          else if steps <> steps' then Some (Printf.sprintf "steps %d, expected %d" steps steps')
          else if counts <> counts' then Some "coverage counts"
          else None)
        (Script.assertions script))
    [ List.hd; O4a_util.Listx.last ]

(* Zeal's bounds for a query it searches. When a bound empties its window
   Zeal answers [unsat] without searching, and a search under it would
   visit every node above the empty domain without spending fuel. *)
let zeal_bounds script =
  let bounds = Solver.Propagate.analyze script in
  let window = Domain.default_config in
  if
    List.exists
      (fun (_, interval) ->
        Solver.Propagate.is_empty_within interval ~window_lo:window.Domain.int_lo
          ~window_hi:window.Domain.int_hi)
      bounds
  then None
  else Some bounds

let order_name = function Search.Ascending -> "ascending" | Search.Descending -> "descending"

(* every budget, both orders, and with and without Zeal's propagated
   bounds; the small budgets run out of fuel inside charged blocks *)
let check_search_differential script =
  List.iter
    (fun max_steps ->
      (match eval_mismatch ~max_steps script with
      | None -> ()
      | Some why ->
        Alcotest.failf "evaluation differs from the reference (%s, max_steps %d):\n%s" why
          max_steps (Printer.script script));
      List.iter
        (fun (order, bounds) ->
          match Reference.Walk.mismatch ~max_steps ~order ~bounds script with
          | None -> ()
          | Some why ->
            Alcotest.failf
              "search differs from the reference (%s, max_steps %d, %s, %d bounds):\n%s" why
              max_steps (order_name order) (List.length bounds) (Printer.script script))
        ([ (Search.Ascending, []); (Search.Descending, []) ]
        @
        match zeal_bounds script with
        | Some bounds -> [ (Search.Ascending, bounds); (Search.Descending, bounds) ]
        | None -> []))
    differential_budgets

let test_search_differential_corpus () =
  List.iter check_search_differential (Seeds.Corpus.all ())

let differential_cases =
  [
    (* an assertion calling a define-fun whose body reads the last slot *)
    "(declare-const a Int)(declare-const b Int)(declare-const c Int)\
     (define-fun last_is ((v Int)) Bool (= c v))(assert (last_is 3))(assert (< a b))(check-sat)";
    (* a zero-arity define-fun *)
    "(declare-const a Int)(declare-const b Int)(define-fun k () Int (+ b 1))\
     (assert (= k 3))(assert (> a 1))(check-sat)";
    (* an n-ary uninterpreted function *)
    "(declare-fun f (Int Int) Int)(declare-const x Int)(declare-const y Int)\
     (assert (> x 2))(assert (= (f x y) 2))(check-sat)";
    (* a quantifier binder that shadows a slot name *)
    "(declare-const z Bool)(declare-const x Int)(declare-const y Int)\
     (assert z)(assert (forall ((y Int)) (> (+ x y) 0)))(check-sat)";
    (* (assert false) over six constants *)
    "(declare-const a Int)(declare-const b Int)(declare-const c Int)(declare-const d Int)\
     (declare-const e Int)(declare-const f Int)(assert false)(check-sat)";
    (* no constants at all *)
    "(assert (= 1 2))(check-sat)";
    (* an Eval_failure in the first leaf *)
    "(declare-const x Int)(declare-const y Int)(assert (< x (frobnicate y)))(check-sat)";
    (* a bound that leaves one value *)
    "(declare-const b Bool)(declare-const x Int)(declare-const y Int)\
     (assert b)(assert (> x 2))(assert (< y x))(check-sat)";
    (* let shadowing a slot and an outer let, and a name bound twice in one
       let (the last binding wins) *)
    "(declare-const x Int)(declare-const y Int)\
     (assert (let ((x (+ y 1))) (let ((x (* x 2)) (y x)) (= y (- x 1)))))\
     (assert (let ((a x) (a y)) (> a 0)))(check-sat)";
    (* define-fun bodies reading a binder of their caller: a quantifier's and
       a let's *)
    "(define-fun above ((v Int)) Bool (> v w))(define-fun k () Int (+ z 1))\
     (declare-const x Int)(declare-const y Int)\
     (assert (exists ((w Int)) (above x)))(assert (let ((z y)) (= k 2)))(check-sat)";
    (* a let binder shadowing a zero-arity define-fun *)
    "(define-fun k () Int 5)(declare-const x Int)(declare-const y Int)\
     (assert (let ((k x)) (> k 1)))(assert (< y k))(check-sat)";
    (* nested quantifiers, an inner binder shadowing an outer one *)
    "(declare-const x Int)(declare-const p Bool)\
     (assert (forall ((a Int)) (exists ((b Int) (a Bool)) (and (=> a p) (> (+ b x) 0)))))\
     (check-sat)";
    (* match with a variable pattern, selector misapplication, and a failure
       inside a constructor's arguments *)
    "(declare-datatypes ((Lst 0)) (((nil) (cons (head Int) (tail Lst)))))\
     (declare-const l Lst)(declare-const x Int)\
     (assert (match l ((nil (> (head l) x)) (whole (> (head whole) x)))))\
     (assert (= (tail (tail l)) nil))(check-sat)";
    "(declare-datatypes ((Lst 0)) (((nil) (cons (head Int) (tail Lst)))))\
     (declare-const x Int)(declare-const y Int)\
     (assert (> x 0))(assert (= (cons (frobnicate y) nil) nil))(check-sat)";
    (* n-ary uninterpreted functions of two sorts *)
    "(declare-fun f (Int Int Int) Int)(declare-fun g (Int) Bool)\
     (declare-const x Int)(declare-const y Int)\
     (assert (g (f x y 0)))(assert (> (f y x 1) x))(check-sat)";
    (* ite and and evaluate every argument: the dead division still counts *)
    "(declare-const x Int)(declare-const y Int)\
     (assert (and (> x 5) (= (div x 0) 0)))\
     (assert (ite (> y 0) true (= (mod y 0) y)))(check-sat)";
    (* annotations tick, and a failure after partly evaluated arguments *)
    "(declare-const x Int)(declare-const y Int)\
     (assert (! (> (+ x y) 1) :named big))\
     (assert (< (* x (- y 2)) (str.len x)))(check-sat)";
  ]

(* minor-heap words [f] allocates: the work a walk does *)
let words f =
  let w0 = Gc.minor_words () in
  ignore (f ());
  Gc.minor_words () -. w0

let test_search_differential_cases () =
  List.iter (fun src -> check_search_differential (parse_script_exn src)) differential_cases;
  (* coverage is counted per query, so a charge is visible only as work not
     done: (assert false) over six constants evaluates one leaf, not 20,000 *)
  let script = parse_script_exn (List.nth differential_cases 4) in
  let search = words (fun () -> Search.solve ~max_steps:20_000 script)
  and walk = words (fun () -> Reference.Walk.solve ~max_steps:20_000 script) in
  check_bool "the cases exercise charged blocks" true (search *. 10. < walk)

(* Words the compiled code of [src] allocates per run, its free names bound
   to [env] in order. *)
let words_per_run src env =
  let ctx = Eval.make_ctx ~max_steps:max_int [] in
  List.iter (fun (name, _) -> Eval.bind ctx name) env;
  List.iteri (fun i (_, v) -> (Eval.state ctx).Eval.vals.(i) <- v) env;
  let code = Eval.compile_bool ctx (parse_term_exn src) in
  let runs = 1_000 in
  words (fun () -> for _ = 1 to runs do ignore (code ()) done) /. float runs

let test_operator_allocation () =
  let ints l = List.map (fun n -> Value.Int n) l in
  let set l = Value.Set (Sort.Int, ints l) in
  let bag l = Value.Bag (Sort.Int, List.map (fun (x, n) -> (Value.Int x, n)) l) in
  (* words per run on this build and, in brackets, on the build before
     collections kept a normal form: set.union 12 (150),
     bag.difference_subtract 12 (210), set.complement 9.1 (235), + 0 (2) *)
  List.iter
    (fun (what, src, env, bound) ->
      let w = words_per_run src env in
      if w > bound then Alcotest.failf "%s allocates %.1f words per run, over %.1f" what w bound)
    [
      ( "set.union",
        "(set.is_empty (set.union a b))",
        [ ("a", set [ 1; 2; 3 ]); ("b", set [ 2; 3; 4 ]) ],
        24. );
      ( "bag.difference_subtract",
        "(bag.member 1 (bag.difference_subtract a b))",
        [ ("a", bag [ (1, 2); (2, 1); (3, 2) ]); ("b", bag [ (1, 1); (3, 2) ]) ],
        24. );
      ("set.complement", "(set.is_empty (set.complement a))", [ ("a", set [ 0; 1 ]) ], 24.);
      ("+", "(= (+ x y) 3)", [ ("x", Value.Int 1); ("y", Value.Int 2) ], 0.5);
    ]

(* shared generator library, built once *)
let campaign = lazy (Once4all.Campaign.prepare ~seed:3 ())
let generators () = (Lazy.force campaign).Once4all.Campaign.generators

(* Scripts as the default campaign builds them: skeletonize a corpus seed,
   fill its holes, and carry the result for ten rounds while it stays
   small; each type-correct one simplified by both solvers' rules. *)
let campaign_shaped seed =
  let module Rng = O4a_util.Rng in
  let rng = Rng.create seed in
  let start = Rng.choose rng (Seeds.Corpus.all ()) in
  let current = ref start and scripts = ref [] in
  for _ = 1 to 10 do
    let skeleton, holes = Once4all.Skeleton.skeletonize ~rng ~keep_prob:0.45 !current in
    let filled =
      if holes = 0 then
        Once4all.Synthesize.direct ~rng ~generators:(generators ()) ~terms:(1 + Rng.int rng 3)
      else
        Once4all.Synthesize.fill ~swap_prob:0.55 ~rng ~generators:(generators ()) ~skeleton
          ~holes ()
    in
    match filled.Once4all.Synthesize.parsed with
    | Some script ->
      if Theories.Typecheck.check_script script = Ok () then
        List.iter
          (fun rules ->
            scripts :=
              Script.map_assertions (Rewrite.simplify ~rules ~fired:ignore) script :: !scripts)
          [ Rewrite.zeal_rules; Rewrite.cove_rules ];
      current := if Script.size script <= 400 then script else start
    | None -> current := start
  done;
  List.rev !scripts

(* the property form of [check_search_differential]: Cove's pairing
   (descending, no bounds) and Zeal's (ascending, with its bounds) *)
let search_agrees script =
  List.for_all
    (fun max_steps ->
      (match eval_mismatch ~max_steps script with
      | None -> ()
      | Some why ->
        QCheck.Test.fail_reportf "evaluation differs from the reference (%s, max_steps %d):\n%s"
          why max_steps (Printer.script script));
      List.for_all
        (fun (order, bounds) ->
          match Reference.Walk.mismatch ~max_steps ~order ~bounds script with
          | None -> true
          | Some why ->
            QCheck.Test.fail_reportf "search differs from the reference (%s, max_steps %d, %s):\n%s"
              why max_steps (order_name order) (Printer.script script))
        ((Search.Descending, [])
        :: (match zeal_bounds script with
           | Some bounds -> [ (Search.Ascending, bounds) ]
           | None -> [])))
    differential_budgets

let search_props =
  [
    QCheck.Test.make ~name:"search = reference on direct scripts" ~count:200
      QCheck.(pair (int_range 0 100_000) (int_range 1 4))
      (fun (seed, terms) ->
        let filled =
          Once4all.Synthesize.direct ~rng:(O4a_util.Rng.create seed)
            ~generators:(generators ()) ~terms
        in
        match filled.Once4all.Synthesize.parsed with
        | Some script -> search_agrees script
        | None -> true);
    QCheck.Test.make ~name:"search = reference on campaign-shaped scripts" ~count:12
      (QCheck.int_range 0 100_000)
      (fun seed -> List.for_all search_agrees (campaign_shaped seed));
  ]

(* ------------------------- Operators against the reference ------------------------- *)

(* Every operator that keeps Value's normal form by merging and filtering,
   applied to drawn arguments and compared with the tree-walking reference,
   which normalizes every collection result with the normalizers Value had
   before the normal form (test/reference/normalize.ml). The results must
   be equal by structural [=], so the element kept among equal ones counts
   (a RegLan compares by size, so every drawn RegLan equals every other),
   or fail with the same text, after the same steps and coverage counts.
   Every Set, Bag and Arr result must be in normal form. One argument in
   eight is drawn from a wrong sort, to pin the order of the operators'
   sort failures. *)

let op_script =
  lazy (parse_script_exn "(declare-datatypes ((T 0)) (((zed) (leaf (val Int)) (alpha))))")

(* wider collections than the search's domains *)
let draw_config =
  {
    Domain.default_config with
    Domain.max_container_elems = 4;
    max_bag_mult = 3;
    max_domain_size = 40;
  }

let op_elt_sorts =
  [ Sort.Int; Sort.Real; Sort.Bitvec 4; Sort.String_sort; Sort.Reglan;
    Sort.Tuple [ Sort.Int; Sort.Reglan ]; Sort.Seq Sort.Int; Sort.Datatype "T" ]

let rec normal_form v =
  let rec increasing cmp = function
    | a :: (b :: _ as rest) -> cmp a b < 0 && increasing cmp rest
    | _ -> true
  in
  let by_key (a, _) (b, _) = Value.compare a b in
  match v with
  | Value.Set (_, xs) -> increasing Value.compare xs && List.for_all normal_form xs
  | Value.Seq (_, xs) | Value.Tuple xs | Value.Dt (_, _, xs) -> List.for_all normal_form xs
  | Value.Bag (_, entries) ->
    increasing by_key entries
    && List.for_all (fun (k, n) -> n > 0 && normal_form k) entries
  | Value.Arr { default; entries; _ } ->
    increasing by_key entries
    && normal_form default
    && List.for_all
         (fun (k, x) -> (not (Value.equal x default)) && normal_form k && normal_form x)
         entries
  | _ -> true

(* the outcome of both evaluators on [term] under [env]: the value or the
   failure text, the steps and the coverage counts *)
let evaluate_both script env term =
  let outcome run =
    match run () with
    | v -> Ok v
    | exception (Eval.Out_of_fuel | Reference.Eval.Out_of_fuel) -> Error "out of fuel"
    | exception (Eval.Eval_failure msg | Reference.Eval.Eval_failure msg) -> Error msg
    | exception e -> Error (Printexc.to_string e)
  in
  let counts, add = Reference.Walk.tally () in
  let ctx = Eval.make_ctx script in
  let r = outcome (fun () -> Eval.eval ctx env term) in
  Eval.flush ctx add;
  let counts', add' = Reference.Walk.tally () in
  let rctx = Reference.Eval.make_ctx ~cov:(fun key line -> add' key line 1) script in
  let r' = outcome (fun () -> Reference.Eval.eval rctx env term) in
  ((r, (Eval.state ctx).Eval.steps, counts ()), (r', rctx.Reference.Eval.steps, counts' ()))

let operators_agree seed =
  let st = Random.State.make [| seed |] in
  let script = Lazy.force op_script in
  let datatypes = Script.declared_datatypes script in
  let draw sort =
    let values = Domain.enumerate ~config:draw_config ~datatypes sort in
    List.nth values (Random.State.int st (List.length values))
  in
  let wrong =
    [ Value.Bool true; Value.Int 1; Value.Str "a"; Value.Seq (Sort.Bool, []);
      Value.Set (Sort.Bool, []); Value.Bag (Sort.Bool, []); Value.mk_ff ~order:5 1 ]
  in
  let arg sort =
    if Random.State.int st 8 = 0 then List.nth wrong (Random.State.int st (List.length wrong))
    else draw sort
  in
  let env = ref [] in
  let v sort =
    let name = Printf.sprintf "v%d" (List.length !env) in
    env := (name, arg sort) :: !env;
    Term.Var name
  in
  let app name args = Term.App (name, args) in
  let e = List.nth op_elt_sorts (Random.State.int st (List.length op_elt_sorts)) in
  let set = Sort.Set e and bag = Sort.Bag e and seq = Sort.Seq e in
  let pair = Sort.Tuple [ Sort.Int; e ] in
  let rel = Sort.Set pair and ints = Sort.Set (Sort.Tuple [ Sort.Int; Sort.Int ]) in
  let num () = if Random.State.bool st then Sort.Int else Sort.Real in
  let ff = Sort.Finite_field (if Random.State.bool st then 5 else 13) in
  let bv = Sort.Bitvec 4 in
  let arr = Sort.Array (e, Sort.Int) and arr' = Sort.Array (Sort.Int, e) in
  let terms =
    List.concat
      [
        List.map (fun op -> app op [ v set; v set ]) [ "set.union"; "set.inter"; "set.minus"; "set.subset" ];
        List.map (fun op -> app op [ v set ])
          [ "set.card"; "set.complement"; "set.choose"; "set.is_empty"; "set.is_singleton" ];
        [ app "set.singleton" [ v e ]; app "set.member" [ v e; v set ];
          app "set.insert" [ v e; v set ]; app "set.insert" [ v e; v e; v e; v set ];
          app "set.union" [ app "set.insert" [ v e; v set ]; app "set.singleton" [ v e ] ] ];
        List.map (fun op -> app op [ v bag; v bag ])
          [ "bag.union_max"; "bag.union_disjoint"; "bag.inter_min"; "bag.difference_subtract";
            "bag.difference_remove"; "bag.subbag" ];
        [ app "bag" [ v e; v Sort.Int ]; app "bag.count" [ v e; v bag ];
          app "bag.member" [ v e; v bag ]; app "bag.card" [ v bag ]; app "bag.setof" [ v bag ];
          app "bag.choose" [ v bag ];
          app "bag.union_disjoint" [ app "bag" [ v e; v Sort.Int ]; v bag ];
          app "=" [ v bag; v bag ] ];
        [ app "store" [ v arr; v e; v Sort.Int ]; app "store" [ v arr'; v Sort.Int; v e ];
          app "store" [ app "store" [ v arr; v e; v Sort.Int ]; v e; v Sort.Int ];
          (let i = v e in
           app "store" [ app "store" [ v arr; i; v Sort.Int ]; i; v Sort.Int ]);
          app "select" [ app "store" [ v arr'; v Sort.Int; v e ]; v Sort.Int ];
          app "=" [ v arr; app "store" [ v arr; v e; v Sort.Int ] ] ];
        [ app "rel.transpose" [ v rel ]; app "rel.product" [ v rel; v ints ];
          app "rel.join" [ v ints; v rel ]; app "rel.join" [ v ints; v ints ] ];
        [ app "distinct" [ v e; v e ]; app "distinct" [ v e; v e; v e ];
          app "distinct" [ v (num ()); v (num ()) ]; app "=" [ v e; v e; v e ] ];
        List.map (fun op -> app op [ v (num ()); v (num ()) ])
          [ "+"; "-"; "*"; "/"; "<"; "<="; ">"; ">=" ];
        List.map (fun op -> app op [ v (num ()); v (num ()); v (num ()) ])
          [ "+"; "-"; "*"; "/"; "<"; ">=" ];
        [ app "-" [ v (num ()) ]; app "to_int" [ v (num ()) ]; app "is_int" [ v (num ()) ];
          app "to_real" [ v Sort.Int ] ];
        [ app "ff.add" [ v ff; v ff ]; app "ff.mul" [ v ff; v ff ]; app "ff.add" [ v ff; v ff; v ff ];
          app "ff.mul" [ v ff; v ff; v ff ]; app "ff.neg" [ v ff ];
          app "ff.bitsum" [ v ff; v ff; v ff ] ];
        List.map (fun op -> app op [ v bv; v bv ])
          [ "bvadd"; "bvnand"; "bvudiv"; "bvsmod"; "bvshl"; "bvult"; "bvsge"; "concat"; "bvcomp" ];
        [ app "bvmul" [ v bv; v bv; v bv ]; app "bv2nat" [ v bv ]; app "bvneg" [ v bv ] ];
        [ app "seq.++" [ v seq; v seq ]; app "seq.++" [ v seq; v seq; v seq ];
          app "seq.unit" [ v e ]; app "seq.len" [ v seq ]; app "seq.nth" [ v seq; v Sort.Int ];
          app "seq.at" [ v seq; v Sort.Int ]; app "seq.extract" [ v seq; v Sort.Int; v Sort.Int ];
          app "seq.update" [ v seq; v Sort.Int; v seq ]; app "seq.contains" [ v seq; v seq ];
          app "seq.prefixof" [ v seq; v seq ]; app "seq.suffixof" [ v seq; v seq ];
          app "seq.indexof" [ v seq; v seq; v Sort.Int ]; app "seq.replace" [ v seq; v seq; v seq ];
          app "seq.rev" [ v seq ] ];
      ]
  in
  List.for_all
    (fun term ->
      let env = !env in
      let (r, steps, counts), (r', steps', counts') = evaluate_both script env term in
      let shown () =
        Printf.sprintf "%s\nwith %s" (Printer.term term)
          (String.concat ", "
             (List.rev_map (fun (n, x) -> n ^ " = " ^ Value.to_term_string x) env))
      in
      let result = function
        | Ok x -> Value.to_term_string x
        | Error m -> "error: " ^ m
      in
      if r <> r' then
        QCheck.Test.fail_reportf "%s\ngave %s, expected %s%s" (shown ()) (result r) (result r')
          (if result r = result r' then " (equal text: a RegLan prints as re.all)" else "")
      else if steps <> steps' then
        QCheck.Test.fail_reportf "%s\ntook %d steps, expected %d" (shown ()) steps steps'
      else if counts <> counts' then
        QCheck.Test.fail_reportf "%s\ncoverage counts differ" (shown ())
      else (
        match r with
        | Ok x when not (normal_form x) ->
          QCheck.Test.fail_reportf "%s\ngave %s, not in normal form" (shown ()) (result r)
        | _ -> true))
    terms

(* lib's order and normalizers against the copies in
   test/reference/normalize.ml, on drawn values and on lists drawn with
   repeats and in any order *)
let normalizers_agree seed =
  let st = Random.State.make [| seed |] in
  let datatypes = Script.declared_datatypes (Lazy.force op_script) in
  let e = List.nth op_elt_sorts (Random.State.int st (List.length op_elt_sorts)) in
  let pool sort = Array.of_list (Domain.enumerate ~config:draw_config ~datatypes sort) in
  let draw values = values.(Random.State.int st (Array.length values)) in
  let elems = pool e in
  let loose () = List.init (Random.State.int st 7) (fun _ -> draw elems) in
  let sign c = compare c 0 in
  let values = Array.concat [ elems; pool (Sort.Set e); pool (Sort.Bag e); pool (Sort.Array (e, e)) ] in
  List.for_all
    (fun _ ->
      let a = draw values and b = draw values in
      sign (Value.compare a b) = sign (Reference.Normalize.compare a b)
      ||
      QCheck.Test.fail_reportf "compare %s %s" (Value.to_term_string a) (Value.to_term_string b))
    (List.init 20 Fun.id)
  &&
  let xs = loose () in
  let counted = List.map (fun x -> (x, Random.State.int st 4 - 1)) (loose ()) in
  (Value.mk_set e xs = Reference.Normalize.mk_set e xs
  || QCheck.Test.fail_reportf "mk_set of %s" (String.concat " " (List.map Value.to_term_string xs)))
  && (Value.mk_bag e counted = Reference.Normalize.mk_bag e counted
     || QCheck.Test.fail_reportf "mk_bag of %s"
          (String.concat " "
             (List.map (fun (x, n) -> Printf.sprintf "%s:%d" (Value.to_term_string x) n) counted)))

let operator_props =
  [
    QCheck.Test.make ~name:"operators = reference on drawn arguments" ~count:300
      (QCheck.int_range 0 1_000_000) operators_agree;
    QCheck.Test.make ~name:"order and normalizers = the reference copies" ~count:300
      (QCheck.int_range 0 1_000_000) normalizers_agree;
  ]

(* ------------------------- Search across builds ------------------------- *)

(* One line per pinned boolean stream (test_frontend's fixture streams): for
   every formula that parses and sort-checks, trunk Zeal's and trunk Cove's
   [solve_script] at [fixture_steps]: the verdict, the printed model, the
   fuel used and the sorted coverage counts, hashed together. *)
let fixture_steps = 20_000

let search_digests () =
  let zeal = Engine.zeal () and cove = Engine.cove () in
  List.map
    (fun seed ->
      let stream = Fuzz_stream.stream ~seed ~ticks:500 () in
      let b = Buffer.create 65536 in
      let line fmt = Printf.bprintf b (fmt ^^ "\n") in
      List.iter
        (fun (f : Once4all.Synthesize.filled) ->
          match f.Once4all.Synthesize.parsed with
          | Some script when Theories.Typecheck.check_script script = Ok () ->
            List.iter
              (fun engine ->
                let ledger = Coverage.make_ledger () in
                Coverage.with_ledger ledger (fun () ->
                    match
                      Engine.solve_script ~max_steps:fixture_steps engine
                        (Formula.of_script script)
                    with
                    | Engine.Sat model -> line "sat %s" (Model.to_string script model)
                    | Engine.Unsat -> line "unsat"
                    | Engine.Resource_limit -> line "resource limit"
                    | Engine.Unknown m -> line "unknown %s" m
                    | Engine.Error m -> line "error %s" m
                    | exception Engine.Crash { signature; _ } -> line "crash %s" signature);
                line "steps %d" (Engine.last_query_stats engine).Engine.steps;
                List.iter
                  (fun (point, n) -> line "%s %d" point n)
                  (List.sort compare (Coverage.export ledger)))
              [ zeal; cove ]
          | _ -> ())
        stream;
      Printf.sprintf "boolean seed %d ticks %d %s\n" seed (List.length stream)
        (Digest.to_hex (Digest.string (Buffer.contents b))))
    [ 1; 2; 3; 4 ]
  |> String.concat ""

let test_search_fixture () =
  let expected = In_channel.with_open_bin "fixtures/search_stream.txt" In_channel.input_all in
  check_str "search_stream.txt" expected (search_digests ())

(* ------------------------- Model ------------------------- *)

let test_model_to_string_parses () =
  let src = "(declare-fun x () Int)(declare-fun s () String)(assert (= x 1))(assert (= s \"a\"))(check-sat)" in
  match solve_src src with
  | Search.Sat model ->
    let text = Model.to_string (parse_script_exn src) model in
    check_bool "mentions both" true
      (O4a_util.Strx.contains_sub ~sub:"define-fun x" text
      && O4a_util.Strx.contains_sub ~sub:"define-fun s" text)
  | _ -> Alcotest.fail "sat expected"

let test_model_check_fails_on_corruption () =
  let src = "(declare-fun x () Int)(assert (= x 1))(check-sat)" in
  let script = parse_script_exn src in
  match solve_src src with
  | Search.Sat model ->
    let corrupted =
      { model with Model.consts = [ ("x", Value.Int 2) ] }
    in
    (match Model.check script corrupted with
    | Model.Fails _ -> ()
    | _ -> Alcotest.fail "corrupted model should fail")
  | _ -> Alcotest.fail "sat expected"

(* ------------------------- Version / Bug_db ------------------------- *)

let test_version_histories () =
  check_int "zeal releases" 6 (List.length Version.zeal_history.Version.releases);
  check_int "cove releases" 5 (List.length Version.cove_history.Version.releases);
  check_bool "release lookup" true
    (Version.release_commit Version.zeal_history "4.13.0" = Some 70);
  check_bool "unknown release" true
    (Version.release_commit Version.zeal_history "9.9.9" = None)

let test_bisect_fix () =
  (* bug live on [20, 60) *)
  let triggers c = c >= 20 && c < 60 in
  check_bool "finds fix" true
    (Version.bisect_fix ~triggers Version.zeal_history = Some 60);
  check_bool "with hint" true
    (Version.bisect_fix ~known:30 ~triggers Version.zeal_history = Some 60);
  check_bool "still broken at trunk" true
    (Version.bisect_fix ~triggers:(fun c -> c >= 20) Version.zeal_history = None);
  check_bool "never triggers" true
    (Version.bisect_fix ~triggers:(fun _ -> false) Version.zeal_history = None)

let test_bug_db_structure () =
  check_int "45 campaign bugs" 45 (List.length Bug_db.campaign_bugs);
  let zeal_bugs =
    List.filter (fun (s : Bug_db.spec) -> s.Bug_db.solver = Coverage.Zeal) Bug_db.campaign_bugs
  in
  let cove_bugs =
    List.filter (fun (s : Bug_db.spec) -> s.Bug_db.solver = Coverage.Cove) Bug_db.campaign_bugs
  in
  check_int "27 zeal" 27 (List.length zeal_bugs);
  check_int "18 cove" 18 (List.length cove_bugs);
  let count kind bugs = List.length (List.filter (fun s -> s.Bug_db.kind = kind) bugs) in
  check_int "zeal crashes" 20 (count Bug_db.Crash zeal_bugs);
  check_int "zeal invalid" 4 (count Bug_db.Invalid_model zeal_bugs);
  check_int "zeal soundness" 3 (count Bug_db.Soundness zeal_bugs);
  check_int "cove crashes" 15 (count Bug_db.Crash cove_bugs);
  check_int "cove invalid" 2 (count Bug_db.Invalid_model cove_bugs);
  check_int "cove soundness" 1 (count Bug_db.Soundness cove_bugs)

let test_bug_db_statuses () =
  let status_count solver status_pred =
    List.length
      (List.filter
         (fun (s : Bug_db.spec) -> s.Bug_db.solver = solver && status_pred s.Bug_db.status)
         Bug_db.campaign_bugs)
  in
  let confirmed = function Bug_db.Fixed | Bug_db.Confirmed -> true | _ -> false in
  check_int "zeal confirmed" 25 (status_count Coverage.Zeal confirmed);
  check_int "zeal fixed" 24 (status_count Coverage.Zeal (( = ) Bug_db.Fixed));
  check_int "zeal duplicates" 2
    (status_count Coverage.Zeal (function Bug_db.Duplicate_of _ -> true | _ -> false));
  check_int "cove confirmed" 18 (status_count Coverage.Cove confirmed);
  check_int "cove fixed" 16 (status_count Coverage.Cove (( = ) Bug_db.Fixed))

let test_bug_db_activation () =
  let active_zeal_old = Bug_db.active ~solver:Coverage.Zeal ~commit:10 in
  let active_zeal_trunk = Bug_db.active ~solver:Coverage.Zeal ~commit:100 in
  check_bool "fewer bugs in the past" true
    (List.length active_zeal_old < List.length active_zeal_trunk);
  (* historical bugs are fixed before trunk *)
  check_bool "no historical at trunk" true
    (List.for_all (fun (s : Bug_db.spec) -> not s.Bug_db.historical) active_zeal_trunk);
  (* every campaign bug of a solver is active at trunk *)
  check_int "all campaign zeal at trunk" 27 (List.length active_zeal_trunk)

let test_bug_db_crash_sites () =
  List.iter
    (fun (s : Bug_db.spec) ->
      if s.Bug_db.kind = Bug_db.Crash then
        check_bool (s.Bug_db.id ^ " has crash site") true (s.Bug_db.crash_site <> None))
    Bug_db.all

let test_bug_fires_gate () =
  (* fires implies trigger *)
  let script =
    parse_script_exn
      "(declare-fun x () Int)(assert (exists ((f Int)) (= (mod x 0) f)))(check-sat)"
  in
  List.iter
    (fun (s : Bug_db.spec) ->
      if Bug_db.fires s script then
        check_bool (s.Bug_db.id ^ " trigger holds") true
          (Solver.Trigger.holds s.Bug_db.trigger (Solver.Trigger.index script)))
    Bug_db.all

(* ------------------------- Engine / Runner ------------------------- *)

let test_engine_basics () =
  let zeal = Engine.zeal () in
  check_str "zeal name" "zeal-trunk" (Engine.name zeal);
  check_str "release name" "cove-1.2.0" (Engine.name (Engine.cove ~commit:74 ()));
  check_bool "pure engine has no bugs" true
    (match
       Runner.run (Engine.pure Coverage.Zeal)
         (Formula.of_script
            (parse_script_exn
               "(declare-fun x () Int)(assert (exists ((f Int)) (= (mod x 0) f)))(check-sat)"))
     with
    | Runner.R_crash _ -> false
    | _ -> true)

let test_engine_sat_unsat () =
  let zeal = Engine.zeal () in
  (match Runner.run_source zeal "(declare-fun p () Bool)(assert p)(check-sat)" with
  | Runner.R_sat _ -> ()
  | r -> Alcotest.failf "expected sat, got %s" (Runner.result_to_string r));
  match Runner.run_source zeal "(assert false)(check-sat)" with
  | Runner.R_unsat -> ()
  | r -> Alcotest.failf "expected unsat, got %s" (Runner.result_to_string r)

let test_engine_unsupported_theory () =
  let zeal = Engine.zeal () in
  match
    Runner.run_source zeal "(declare-fun a () (Set Int))(assert (set.member 1 a))(check-sat)"
  with
  | Runner.R_error msg ->
    check_bool "mentions symbol" true (O4a_util.Strx.contains_sub ~sub:"unknown" msg)
  | r -> Alcotest.failf "expected error, got %s" (Runner.result_to_string r)

let test_engine_parse_and_type_errors () =
  let cove = Engine.cove () in
  (match Runner.run_source cove "(assert (and p)" with
  | Runner.R_error _ -> ()
  | _ -> Alcotest.fail "parse error expected");
  match Runner.run_source cove "(assert (= 1 true))(check-sat)" with
  | Runner.R_error _ -> ()
  | _ -> Alcotest.fail "sort error expected"

let test_engine_crash_capture () =
  let cove = Engine.cove () in
  (* cove-001 rarity is 2: try op-set variations until the gate opens *)
  let sources =
    List.map
      (fun extra ->
        Printf.sprintf
          "(declare-fun r () (Set UnitTuple))(declare-fun q () (Set UnitTuple))%s(assert (set.subset (rel.join r q) (rel.join q r)))(check-sat)"
          extra)
      [ ""; "(declare-fun z () Int)(assert (= z 0))";
        "(declare-fun z () Int)(assert (< z 1))";
        "(declare-fun b () Bool)(assert (or b (not b)))";
        "(declare-fun z () Int)(assert (distinct z 1))" ]
  in
  let crashed =
    List.exists
      (fun src ->
        match Runner.run_source cove src with
        | Runner.R_crash { bug_id; _ } -> bug_id = "cove-001"
        | _ -> false)
      sources
  in
  check_bool "nullary join crash reachable" true crashed

(* a zero-arity define-fun is fixed by its body: Zeal's presolve may not
   bound it like a free constant *)
let define_fun_src = "(define-fun x () Int 20)(assert (> x 10))(check-sat)"

let test_engine_zero_arity_define_fun () =
  List.iter
    (fun engine ->
      match Runner.run_source engine define_fun_src with
      | Runner.R_sat _ -> ()
      | r ->
        Alcotest.failf "%s: expected sat, got %s" (Engine.name engine)
          (Runner.result_to_string r))
    [ Engine.zeal (); Engine.cove () ]

let test_engine_determinism () =
  let zeal = Engine.zeal () in
  let src = "(declare-fun x () Int)(assert (> x 1))(check-sat)" in
  let r1 = Runner.run_source zeal src and r2 = Runner.run_source zeal src in
  check_bool "same result" true (Runner.same_verdict r1 r2)

let test_runner_result_strings () =
  check_str "unsat" "unsat" (Runner.result_to_string Runner.R_unsat);
  check_str "timeout" "timeout" (Runner.result_to_string Runner.R_timeout);
  check_bool "crash string" true
    (O4a_util.Strx.contains_sub ~sub:"boom"
       (Runner.result_to_string (Runner.R_crash { signature = "boom"; bug_id = "x" })))

(* ------------------------- Propagate ------------------------- *)

let test_propagate_analyze () =
  let script =
    parse_script_exn
      "(declare-fun x () Int)(declare-fun y () Int)(assert (and (< x 3) (> x 0)))(assert (>= y 2))(check-sat)"
  in
  let bounds = Solver.Propagate.analyze script in
  (match List.assoc_opt "x" bounds with
  | Some { Solver.Propagate.lo = Some 1; hi = Some 2 } -> ()
  | _ -> Alcotest.fail "x bounds wrong");
  match List.assoc_opt "y" bounds with
  | Some { Solver.Propagate.lo = Some 2; hi = None } -> ()
  | _ -> Alcotest.fail "y bounds wrong"

let test_propagate_flipped_operands () =
  let script =
    parse_script_exn "(declare-fun x () Int)(assert (< 1 x))(assert (= 2 x))(check-sat)"
  in
  match List.assoc_opt "x" (Solver.Propagate.analyze script) with
  | Some { Solver.Propagate.lo = Some 2; hi = Some 2 } -> ()
  | _ -> Alcotest.fail "flipped-operand bounds wrong"

let test_propagate_ignores_disjunctions () =
  (* bounds under `or` are NOT top-level conjuncts; pruning there is unsound *)
  let script =
    parse_script_exn "(declare-fun x () Int)(assert (or (< x 0) (> x 2)))(check-sat)"
  in
  check_bool "no bounds from or" true (Solver.Propagate.analyze script = [])

let test_propagate_ignores_define_fun () =
  check_bool "no bounds on a define-fun" true
    (Solver.Propagate.analyze (parse_script_exn define_fun_src) = [])

let test_propagate_empty_interval_fast_unsat () =
  let zeal = Engine.pure Coverage.Zeal in
  (* contradictory window, decided by propagation alone *)
  match
    Runner.run_source ~max_steps:50 zeal
      "(declare-fun x () Int)(assert (< x 0))(assert (> x 0))(check-sat)"
  with
  | Runner.R_unsat -> () (* 50 steps is far too little for enumeration *)
  | r -> Alcotest.failf "expected presolved unsat, got %s" (Runner.result_to_string r)

let test_propagate_restrict_domain () =
  let interval = { Solver.Propagate.lo = Some 0; hi = Some 1 } in
  let domain = Solver.Domain.enumerate ~datatypes:[] Sort.Int in
  let restricted = Solver.Propagate.restrict_domain interval domain in
  check_bool "only 0 and 1" true
    (List.sort compare restricted = [ Value.Int 0; Value.Int 1 ])

let test_propagate_preserves_verdicts () =
  (* Zeal (with propagation) and Cove (without) agree on arithmetic seeds *)
  let zeal = Engine.pure Coverage.Zeal and cove = Engine.pure Coverage.Cove in
  List.iter
    (fun seed ->
      if Engine.supports_script zeal seed then (
        let formula = Formula.of_script seed in
        match (Runner.run zeal formula, Runner.run cove formula) with
        | Runner.R_sat _, Runner.R_unsat | Runner.R_unsat, Runner.R_sat _ ->
          Alcotest.failf "propagation changed the verdict on:\n%s" (Printer.script seed)
        | _ -> ()))
    (Seeds.Corpus.by_theory "ints")

let test_incremental_push_pop () =
  let script =
    parse_script_exn
      "(declare-fun x () Int)\n(assert (< x 2))\n(check-sat)\n(push 1)\n(assert (> x 5))\n(check-sat)\n(pop 1)\n(check-sat)"
  in
  let steps = Engine.solve_incremental (Engine.pure Coverage.Zeal) script in
  let verdicts =
    List.map
      (fun (s : Engine.incremental_step) ->
        match s.Engine.step_outcome with
        | Engine.Sat _ -> "sat"
        | Engine.Unsat -> "unsat"
        | Engine.Resource_limit -> "unknown"
        | Engine.Unknown _ -> "unknown"
        | Engine.Error _ -> "error")
      steps
  in
  check_bool "sat/unsat/sat" true (verdicts = [ "sat"; "unsat"; "sat" ]);
  check_bool "indices ordered" true
    (List.mapi (fun i _ -> i) steps
    = List.map (fun (s : Engine.incremental_step) -> s.Engine.step_index) steps)

let test_incremental_nested_frames () =
  let script =
    parse_script_exn
      "(declare-fun x () Int)\n(push 1)\n(assert (= x 1))\n(push 1)\n(assert (= x 2))\n(check-sat)\n(pop 2)\n(check-sat)"
  in
  let steps = Engine.solve_incremental (Engine.pure Coverage.Zeal) script in
  (match steps with
  | [ a; b ] ->
    check_bool "inner contradiction" true (a.Engine.step_outcome = Engine.Unsat);
    check_bool "outer empty sat" true
      (match b.Engine.step_outcome with Engine.Sat _ -> true | _ -> false)
  | _ -> Alcotest.fail "two check-sats expected")

let test_unsat_core_minimal () =
  let script =
    parse_script_exn
      "(declare-fun x () Int)\n(assert (= x x))\n(assert (< x 0))\n(assert (> x 0))\n(assert (< x 10))\n(check-sat)"
  in
  match Engine.unsat_core (Engine.pure Coverage.Zeal) script with
  | Some core ->
    check_int "two-assertion core" 2 (List.length core);
    let printed = List.map Printer.term core in
    check_bool "has lower bound" true (List.mem "(< x 0)" printed);
    check_bool "has upper bound" true (List.mem "(> x 0)" printed)
  | None -> Alcotest.fail "expected a core"

let test_unsat_core_on_sat_input () =
  let script = parse_script_exn "(declare-fun x () Int)\n(assert (< x 2))\n(check-sat)" in
  check_bool "no core for sat" true
    (Engine.unsat_core (Engine.pure Coverage.Zeal) script = None)

let test_model_eval_terms () =
  let src = "(declare-fun x () Int)\n(assert (= (+ x 1) 3))\n(check-sat)" in
  let script = parse_script_exn src in
  match Runner.run (Engine.pure Coverage.Zeal) (Formula.of_script script) with
  | Runner.R_sat model ->
    let results =
      Model.eval_terms script model
        [ parse_term_exn "x"; parse_term_exn "(+ x x)"; parse_term_exn "(< x 0)" ]
    in
    check_bool "values" true (List.map snd results = [ "2"; "4"; "false" ])
  | _ -> Alcotest.fail "sat expected"

let test_solvers_agree_when_pure () =
  (* differential baseline: with no injected bugs the two solvers agree on
     every mutually supported seed *)
  let zeal = Engine.pure Coverage.Zeal in
  let cove = Engine.pure Coverage.Cove in
  let seeds = O4a_util.Listx.take 40 (Seeds.Corpus.all ()) in
  List.iter
    (fun seed ->
      if Engine.supports_script zeal seed then (
        let formula = Formula.of_script seed in
        let rz = Runner.run ~max_steps:60_000 zeal formula in
        let rc = Runner.run ~max_steps:60_000 cove formula in
        match (rz, rc) with
        | Runner.R_sat _, Runner.R_unsat | Runner.R_unsat, Runner.R_sat _ ->
          Alcotest.failf "pure solvers disagree on:\n%s" (Printer.script seed)
        | _ -> ()))
    seeds

(* ------------------------- Algebraic-law properties ------------------------- *)

let eval_value ?(context = "") env src =
  let script = parse_script_exn context in
  let ctx = Eval.make_ctx script in
  Eval.eval ctx env (parse_term_exn src)

let law_props =
  let int_gen = QCheck.int_range (-6) 6 in
  [
    QCheck.Test.make ~name:"addition commutes" ~count:300 QCheck.(pair int_gen int_gen)
      (fun (a, b) ->
        let env = [ ("a", Value.Int a); ("b", Value.Int b) ] in
        Value.equal (eval_value env "(+ a b)") (eval_value env "(+ b a)"));
    QCheck.Test.make ~name:"de morgan (bounded bools)" ~count:100
      QCheck.(pair bool bool)
      (fun (p, q) ->
        let env = [ ("p", Value.Bool p); ("q", Value.Bool q) ] in
        Value.equal
          (eval_value env "(not (and p q))")
          (eval_value env "(or (not p) (not q))"));
    QCheck.Test.make ~name:"euclidean division law" ~count:300
      QCheck.(pair int_gen int_gen)
      (fun (a, b) ->
        QCheck.assume (b <> 0);
        a = (b * Eval.ediv a b) + Eval.emod a b && Eval.emod a b >= 0);
    QCheck.Test.make ~name:"bvnot involution" ~count:200 (QCheck.int_range 0 15)
      (fun v ->
        let env = [ ("v", Value.mk_bv ~width:4 v) ] in
        Value.equal (eval_value env "(bvnot (bvnot v))") (Value.mk_bv ~width:4 v));
    QCheck.Test.make ~name:"bvadd homomorphic to modular addition" ~count:200
      QCheck.(pair (int_range 0 15) (int_range 0 15))
      (fun (a, b) ->
        let env = [ ("a", Value.mk_bv ~width:4 a); ("b", Value.mk_bv ~width:4 b) ] in
        Value.equal (eval_value env "(bvadd a b)") (Value.mk_bv ~width:4 (a + b)));
    QCheck.Test.make ~name:"set union is idempotent/commutative" ~count:200
      QCheck.(pair (small_list (int_range 0 3)) (small_list (int_range 0 3)))
      (fun (xs, ys) ->
        let set l = Value.mk_set Sort.Int (List.map (fun n -> Value.Int n) l) in
        let env = [ ("a", set xs); ("b", set ys) ] in
        Value.equal (eval_value env "(set.union a b)") (eval_value env "(set.union b a)")
        && Value.equal (eval_value env "(set.union a a)") (set xs));
    QCheck.Test.make ~name:"seq reverse involution" ~count:200
      QCheck.(small_list (int_range (-2) 3))
      (fun xs ->
        let seq = Value.Seq (Sort.Int, List.map (fun n -> Value.Int n) xs) in
        let env = [ ("s", seq) ] in
        Value.equal (eval_value env "(seq.rev (seq.rev s))") seq);
    QCheck.Test.make ~name:"str concat length additive" ~count:200
      QCheck.(pair (string_of_size (QCheck.Gen.int_bound 6)) (string_of_size (QCheck.Gen.int_bound 6)))
      (fun (a, b) ->
        QCheck.assume (String.for_all (fun c -> c <> '"' && c >= ' ') (a ^ b));
        let env = [ ("a", Value.Str a); ("b", Value.Str b) ] in
        Value.equal
          (eval_value env "(str.len (str.++ a b))")
          (Value.Int (String.length a + String.length b)));
    QCheck.Test.make ~name:"ff.add inverse via ff.neg" ~count:200 (QCheck.int_range 0 6)
      (fun v ->
        let env = [ ("x", Value.mk_ff ~order:7 v) ] in
        Value.equal (eval_value env "(ff.add x (ff.neg x))") (Value.mk_ff ~order:7 0));
  ]

let () =
  Alcotest.run "solver"
    [
      ( "value",
        [
          Alcotest.test_case "normalization" `Quick test_value_normalization;
          Alcotest.test_case "rational compare" `Quick test_value_compare_rationals;
          Alcotest.test_case "sort_of" `Quick test_value_sort_of;
          Alcotest.test_case "printing parses back" `Quick test_value_printing_parses_back;
        ] );
      ( "regex",
        [
          Alcotest.test_case "basics" `Quick test_regex_basics;
          Alcotest.test_case "loop" `Quick test_regex_loop;
          Alcotest.test_case "diff" `Quick test_regex_diff;
        ] );
      ( "domain",
        [
          Alcotest.test_case "shapes" `Quick test_domain_shapes;
          Alcotest.test_case "distinct" `Quick test_domain_distinct;
          Alcotest.test_case "datatypes" `Quick test_domain_datatype;
          Alcotest.test_case "defaults" `Quick test_default_value;
          Alcotest.test_case "same values as eager" `Quick test_domain_matches_eager;
          Alcotest.test_case "wide products capped" `Quick test_domain_wide_products_capped;
        ] );
      ( "eval arithmetic",
        [
          Alcotest.test_case "euclidean" `Quick test_eval_euclidean;
          Alcotest.test_case "to_signed" `Quick test_eval_to_signed;
          Alcotest.test_case "ints" `Quick test_eval_int_ops;
          Alcotest.test_case "reals" `Quick test_eval_real_ops;
          Alcotest.test_case "core" `Quick test_eval_core_ops;
        ] );
      ( "eval theories",
        [
          Alcotest.test_case "bit-vectors" `Quick test_eval_bv_ops;
          Alcotest.test_case "strings" `Quick test_eval_string_ops;
          Alcotest.test_case "regexes" `Quick test_eval_regex_ops;
          Alcotest.test_case "sequences" `Quick test_eval_seq_ops;
          Alcotest.test_case "sets" `Quick test_eval_set_ops;
          Alcotest.test_case "relations" `Quick test_eval_relation_ops;
          Alcotest.test_case "bags" `Quick test_eval_bag_ops;
          Alcotest.test_case "finite fields" `Quick test_eval_ff_ops;
          Alcotest.test_case "arrays" `Quick test_eval_array_ops;
          Alcotest.test_case "datatypes" `Quick test_eval_datatypes;
          Alcotest.test_case "match" `Quick test_eval_match;
          Alcotest.test_case "edge cases" `Quick test_eval_edge_cases;
        ] );
      ( "eval binders",
        [
          Alcotest.test_case "quantifiers" `Quick test_eval_quantifiers;
          Alcotest.test_case "let" `Quick test_eval_let;
          Alcotest.test_case "define-fun" `Quick test_eval_define_fun;
          Alcotest.test_case "fuel" `Quick test_eval_fuel;
          Alcotest.test_case "failure" `Quick test_eval_failure_is_clean;
        ] );
      ( "rewrite",
        [
          Alcotest.test_case "shared rules" `Quick test_rewrite_shared_rules;
          Alcotest.test_case "zeal pipeline" `Quick test_rewrite_zeal_pipeline;
          Alcotest.test_case "cove pipeline" `Quick test_rewrite_cove_pipeline;
          Alcotest.test_case "fired callback" `Quick test_rewrite_fired_callback;
          Alcotest.test_case "preserves semantics" `Slow test_rewrite_preserves_semantics;
        ] );
      ( "search",
        [
          Alcotest.test_case "sat with valid model" `Quick test_search_sat_with_valid_model;
          Alcotest.test_case "unsat" `Quick test_search_unsat;
          Alcotest.test_case "no vars" `Quick test_search_no_vars;
          Alcotest.test_case "uninterpreted function" `Quick test_search_uninterpreted_fun;
          Alcotest.test_case "order matters" `Quick test_search_order_changes_model;
          Alcotest.test_case "fuel -> unknown" `Quick test_search_fuel_unknown;
          Alcotest.test_case "empty domain" `Quick test_search_empty_domain;
          Alcotest.test_case "differential: corpus" `Quick test_search_differential_corpus;
          Alcotest.test_case "differential: cases" `Quick test_search_differential_cases;
          Alcotest.test_case "operators allocate little" `Quick test_operator_allocation;
          Alcotest.test_case "pinned streams = the fixture" `Quick test_search_fixture;
        ] );
      ("search differential", List.map QCheck_alcotest.to_alcotest search_props);
      ("op differential", List.map QCheck_alcotest.to_alcotest operator_props);
      ( "model",
        [
          Alcotest.test_case "printable" `Quick test_model_to_string_parses;
          Alcotest.test_case "detects corruption" `Quick test_model_check_fails_on_corruption;
        ] );
      ( "versions & bugs",
        [
          Alcotest.test_case "histories" `Quick test_version_histories;
          Alcotest.test_case "bisect" `Quick test_bisect_fix;
          Alcotest.test_case "bug counts (Table 1/2 ground truth)" `Quick test_bug_db_structure;
          Alcotest.test_case "bug statuses" `Quick test_bug_db_statuses;
          Alcotest.test_case "activation by commit" `Quick test_bug_db_activation;
          Alcotest.test_case "crash sites" `Quick test_bug_db_crash_sites;
          Alcotest.test_case "fires gate" `Quick test_bug_fires_gate;
        ] );
      ( "engine",
        [
          Alcotest.test_case "names & pure" `Quick test_engine_basics;
          Alcotest.test_case "sat/unsat" `Quick test_engine_sat_unsat;
          Alcotest.test_case "unsupported theory" `Quick test_engine_unsupported_theory;
          Alcotest.test_case "parse/type errors" `Quick test_engine_parse_and_type_errors;
          Alcotest.test_case "crash capture" `Quick test_engine_crash_capture;
          Alcotest.test_case "determinism" `Quick test_engine_determinism;
          Alcotest.test_case "zero-arity define-fun" `Quick test_engine_zero_arity_define_fun;
          Alcotest.test_case "result strings" `Quick test_runner_result_strings;
          Alcotest.test_case "pure solvers agree" `Slow test_solvers_agree_when_pure;
        ] );
      ("algebraic laws", List.map QCheck_alcotest.to_alcotest law_props);
      ( "propagation",
        [
          Alcotest.test_case "analyze conjuncts" `Quick test_propagate_analyze;
          Alcotest.test_case "flipped operands" `Quick test_propagate_flipped_operands;
          Alcotest.test_case "ignores disjunctions" `Quick test_propagate_ignores_disjunctions;
          Alcotest.test_case "ignores define-fun" `Quick test_propagate_ignores_define_fun;
          Alcotest.test_case "fast unsat" `Quick test_propagate_empty_interval_fast_unsat;
          Alcotest.test_case "restrict domain" `Quick test_propagate_restrict_domain;
          Alcotest.test_case "verdicts preserved" `Slow test_propagate_preserves_verdicts;
        ] );
      ( "incremental & cores",
        [
          Alcotest.test_case "push/pop" `Quick test_incremental_push_pop;
          Alcotest.test_case "nested frames" `Quick test_incremental_nested_frames;
          Alcotest.test_case "minimal core" `Quick test_unsat_core_minimal;
          Alcotest.test_case "no core on sat" `Quick test_unsat_core_on_sat_input;
          Alcotest.test_case "get-value" `Quick test_model_eval_terms;
        ] );
    ]
