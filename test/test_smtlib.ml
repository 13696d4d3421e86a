open Smtlib

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let parse_term_exn s =
  match Parser.parse_term s with
  | Ok t -> t
  | Error e -> Alcotest.failf "parse failed: %s" (Parser.error_message e)

let parse_script_exn s =
  match Parser.parse_script s with
  | Ok sc -> sc
  | Error e -> Alcotest.failf "parse failed: %s" (Parser.error_message e)

(* ------------------------- Lexer ------------------------- *)

let test_lexer_atoms () =
  let sexps = Lexer.read_sexps "foo 42 2.5 #b101 #xAF \"hi\" :kw |quo ted|" in
  check_int "eight atoms" 8 (List.length sexps);
  match sexps with
  | [ Lexer.Atom (Sym "foo"); Atom (Num "42"); Atom (Dec "2.5"); Atom (Bin "101");
      Atom (Hex "AF"); Atom (Str "hi"); Atom (Kw "kw"); Atom (Sym "quo ted") ] ->
    ()
  | _ -> Alcotest.fail "wrong atom kinds"

let test_lexer_nesting () =
  match Lexer.read_sexps "(a (b c) ())" with
  | [ Lexer.List [ Atom (Sym "a"); List [ Atom (Sym "b"); Atom (Sym "c") ]; List [] ] ] -> ()
  | _ -> Alcotest.fail "wrong nesting"

let test_lexer_comments () =
  match Lexer.read_sexps "; a comment\nx ; more\ny" with
  | [ Lexer.Atom (Sym "x"); Lexer.Atom (Sym "y") ] -> ()
  | _ -> Alcotest.fail "comments not stripped"

let test_lexer_string_escape () =
  match Lexer.read_sexps {|"a""b"|} with
  | [ Lexer.Atom (Str {|a"b|}) ] -> ()
  | _ -> Alcotest.fail "doubled quote not unescaped"

let test_lexer_errors () =
  let bad input =
    match Lexer.read_sexps input with
    | exception Lexer.Lex_error _ -> true
    | _ -> false
  in
  check_bool "unbalanced open" true (bad "(a (b)");
  check_bool "unbalanced close" true (bad "a))");
  check_bool "unterminated string" true (bad {|"abc|});
  check_bool "bad hash" true (bad "#q12");
  check_bool "glued numeral" true (bad "3x")

(* ------------------------- Sorts ------------------------- *)

let sort_round_trip s =
  match Parser.parse_sort (Sort.to_string s) with
  | Ok s' -> Sort.equal s s'
  | Error _ -> false

let test_sort_round_trip () =
  List.iter
    (fun s -> check_bool (Sort.to_string s) true (sort_round_trip s))
    [
      Sort.Bool; Sort.Int; Sort.Real; Sort.String_sort; Sort.Reglan;
      Sort.Bitvec 8; Sort.Finite_field 7; Sort.Seq Sort.Int;
      Sort.Set (Sort.Tuple [ Sort.Int; Sort.Int ]); Sort.Bag Sort.Bool;
      Sort.Array (Sort.Int, Sort.Array (Sort.Int, Sort.Bool));
      Sort.Tuple []; Sort.Uninterpreted "U";
    ]

let test_sort_helpers () =
  check_bool "int numeric" true (Sort.is_numeric Sort.Int);
  check_bool "bool not numeric" false (Sort.is_numeric Sort.Bool);
  check_bool "seq container" true (Sort.is_container (Sort.Seq Sort.Int));
  check_bool "elem of set" true (Sort.element_sort (Sort.Set Sort.Real) = Some Sort.Real);
  check_bool "elem of array" true
    (Sort.element_sort (Sort.Array (Sort.Int, Sort.Bool)) = Some Sort.Bool);
  check_bool "elem of int" true (Sort.element_sort Sort.Int = None)

(* ------------------------- Terms: parsing ------------------------- *)

let test_parse_constants () =
  check_bool "true" true (parse_term_exn "true" = Term.tru);
  check_bool "int" true (parse_term_exn "42" = Term.int 42);
  check_bool "decimal" true (parse_term_exn "2.5" = Term.real 5 2);
  check_bool "binary bv" true (parse_term_exn "#b0101" = Term.bv ~width:4 5);
  check_bool "hex bv" true (parse_term_exn "#xA" = Term.bv ~width:4 10);
  check_bool "string" true (parse_term_exn {|"ab"|} = Term.str "ab")

let test_parse_ff_literal () =
  match parse_term_exn "(as ff3 (_ FiniteField 5))" with
  | Term.Const (Term.Ff_lit { order = 5; value = 3 }) -> ()
  | _ -> Alcotest.fail "ff literal not recognized"

let test_parse_indexed () =
  (match parse_term_exn "((_ divisible 3) x)" with
  | Term.Indexed_app ("divisible", [ Term.Idx_num 3 ], [ Term.Var "x" ]) -> ()
  | _ -> Alcotest.fail "divisible");
  match parse_term_exn "(_ bv5 8)" with
  | Term.Indexed_app ("bv5", [ Term.Idx_num 8 ], []) -> ()
  | _ -> Alcotest.fail "bv numeral"

let test_parse_quantifiers () =
  match parse_term_exn "(forall ((x Int) (y Bool)) (or y (= x 0)))" with
  | Term.Forall ([ ("x", Sort.Int); ("y", Sort.Bool) ], _) -> ()
  | _ -> Alcotest.fail "forall binder shape"

let test_parse_let () =
  match parse_term_exn "(let ((a 1) (b 2)) (+ a b))" with
  | Term.Let ([ ("a", _); ("b", _) ], Term.App ("+", _)) -> ()
  | _ -> Alcotest.fail "let shape"

let test_parse_annotation () =
  match parse_term_exn "(! (> x 0) :named p1)" with
  | Term.Annot (Term.App (">", _), [ ("named", Some "p1") ]) -> ()
  | _ -> Alcotest.fail "annotation shape"

let test_parse_placeholder () =
  let t = parse_term_exn "(or <placeholder> <placeholder>)" in
  check_bool "two holes numbered" true (Term.placeholders t = [ 0; 1 ])

(* holes are numbered per parse, so two domains parsing at once both see
   0, 1, 2 *)
let test_placeholder_domains () =
  let parse_many () =
    let ok = ref true in
    for _ = 1 to 10_000 do
      match Parser.parse_script "(assert (or <placeholder> <placeholder> <placeholder>))" with
      | Ok [ Command.Assert t ] -> if Term.placeholders t <> [ 0; 1; 2 ] then ok := false
      | _ -> ok := false
    done;
    !ok
  in
  let other = Domain.spawn parse_many in
  let here = parse_many () in
  check_bool "holes 0, 1, 2 on both domains" true (Domain.join other && here)

let test_parse_qualified () =
  (match parse_term_exn "(as seq.empty (Seq Int))" with
  | Term.Qual ("seq.empty", Sort.Seq Sort.Int) -> ()
  | _ -> Alcotest.fail "qual");
  match parse_term_exn "((as const (Array Int Int)) 0)" with
  | Term.Qual_app ("const", Sort.Array (Sort.Int, Sort.Int), [ _ ]) -> ()
  | _ -> Alcotest.fail "qual app"

let test_parse_match () =
  let ctors = [ "nil"; "cons" ] in
  match
    Parser.parse_term ~datatypes:[ "Lst" ] ~ctors
      "(match l ((nil 0) ((cons h t) h) (rest 1) (_ 2)))"
  with
  | Ok (Term.Match (Term.Var "l", cases)) -> (
    match List.map fst cases with
    | [ Term.P_ctor ("nil", []); Term.P_ctor ("cons", [ "h"; "t" ]);
        Term.P_var "rest"; Term.P_wildcard ] ->
      ()
    | _ -> Alcotest.fail "pattern shapes wrong")
  | Ok _ -> Alcotest.fail "not a match term"
  | Error e -> Alcotest.failf "parse failed: %s" (Parser.error_message e)

let test_match_round_trip () =
  let src = "(match l ((nil 0) ((cons h t) (+ h 1)) (_ 2)))" in
  let ctors = [ "nil"; "cons" ] in
  let t = Result.get_ok (Parser.parse_term ~ctors src) in
  let t' = Result.get_ok (Parser.parse_term ~ctors (Printer.term t)) in
  check_bool "round trip" true (Term.equal t t')

let test_match_free_vars () =
  let ctors = [ "nil"; "cons" ] in
  let t =
    Result.get_ok
      (Parser.parse_term ~ctors "(match l (((cons h t) (+ h x)) (other other)))")
  in
  check_bool "pattern binders excluded" true (Term.free_vars t = [ "l"; "x" ])

let test_match_rename_respects_binders () =
  let ctors = [ "nil"; "cons" ] in
  let t =
    Result.get_ok (Parser.parse_term ~ctors "(match l (((cons h t) (+ h y)) (_ y)))")
  in
  let renamed = Term.rename_var ~old_name:"h" ~new_name:"z" t in
  check_bool "bound h untouched" true (Term.equal t renamed);
  let renamed = Term.rename_var ~old_name:"y" ~new_name:"z" t in
  check_bool "free y renamed" true (Term.free_vars renamed = [ "l"; "z" ])

let test_parse_errors () =
  let fails s = Result.is_error (Parser.parse_term s) in
  check_bool "empty" true (fails "");
  check_bool "two terms" true (fails "x y");
  check_bool "empty app" true (fails "()");
  check_bool "bad quant" true (fails "(forall () true)");
  check_bool "keyword in term" true (fails ":kw")

(* ------------------------- Commands / scripts ------------------------- *)

let fig1 =
  {|(declare-fun s () (Seq Int))
(assert (exists ((f Int))
  (distinct (seq.len (seq.rev s)) (seq.nth (as seq.empty (Seq Int)) (div 0 0)))))
(check-sat)|}

let test_parse_script_commands () =
  let script =
    parse_script_exn
      {|(set-logic ALL)
(set-info :status unknown)
(declare-sort U 0)
(declare-fun f (Int) U)
(declare-const c Int)
(define-fun g ((x Int)) Int (+ x 1))
(assert (= c (g c)))
(push 1)
(check-sat)
(get-model)
(pop 1)
(echo "done")
(exit)|}
  in
  check_int "all commands" 13 (List.length script)

let test_parse_datatypes () =
  let script =
    parse_script_exn
      {|(declare-datatypes ((Lst 0)) (((nil) (cons (head Int) (tail Lst)))))
(declare-fun l () Lst)
(assert ((_ is cons) l))
(check-sat)|}
  in
  let dts = Script.declared_datatypes script in
  check_int "one datatype" 1 (List.length dts);
  let funs = Script.declared_funs script in
  let names = List.map (fun (d : Script.fun_decl) -> d.Script.name) funs in
  List.iter
    (fun n -> check_bool ("declares " ^ n) true (List.mem n names))
    [ "nil"; "cons"; "head"; "tail"; "is-cons"; "is-nil"; "l" ];
  (* one sort, two constructor lists: an error, not Invalid_argument *)
  check_bool "sort and constructor lists of different lengths" true
    (Result.is_error
       (Parser.parse_script "(declare-datatypes ((A 0)) (((a)) ((b))))"))

let test_script_utilities () =
  let script = parse_script_exn fig1 in
  check_int "one assertion" 1 (List.length (Script.assertions script));
  check_bool "has check-sat" true (Script.has_check_sat script);
  check_bool "seq theory tagged" true (List.mem "seq" (Script.theories_used script));
  check_bool "quantifiers tagged" true
    (List.mem "quantifiers" (Script.theories_used script));
  check_bool "consts" true (Script.declared_consts script = [ ("s", Sort.Seq Sort.Int) ])

let test_fresh_name () =
  let script = parse_script_exn "(declare-fun x () Int)(declare-fun x0 () Int)" in
  check_str "avoids both" "x1" (Script.fresh_name script "x");
  check_str "free name" "y" (Script.fresh_name script "y")

let test_add_declarations () =
  let script = parse_script_exn "(declare-fun x () Int)(assert (= x 0))(check-sat)" in
  let added =
    Script.add_declarations script
      [ Command.Declare_fun ("y", [], Sort.Int); Command.Declare_fun ("x", [], Sort.Bool) ]
  in
  let consts = Script.declared_consts added in
  check_bool "y added" true (List.mem_assoc "y" consts);
  check_bool "x not duplicated" true (List.assoc "x" consts = Sort.Int);
  (* declaration must precede the assert *)
  let decl_idx = O4a_util.Listx.find_index (fun c -> c = Command.Declare_fun ("y", [], Sort.Int)) added in
  let assert_idx = O4a_util.Listx.find_index Command.is_assert added in
  check_bool "order" true (decl_idx < assert_idx)

let test_replace_assertions () =
  let script = parse_script_exn "(assert true)(assert false)(check-sat)" in
  let replaced = Script.replace_assertions script [ Term.fls ] in
  check_int "one left" 1 (List.length (Script.assertions replaced));
  let extended = Script.replace_assertions script [ Term.tru; Term.fls; Term.tru ] in
  check_int "extra inserted" 3 (List.length (Script.assertions extended));
  check_bool "check-sat last" true (O4a_util.Listx.last extended = Command.Check_sat)

(* ------------------------- Terms: structure ------------------------- *)

let sample = parse_term_exn "(and (or a (not b)) (= (+ x 1) 2))"

let test_term_size_depth () =
  check_int "size" 10 (Term.size sample);
  check_int "depth" 4 (Term.depth sample)

let test_children_with_children () =
  let cs = Term.children sample in
  check_int "two children" 2 (List.length cs);
  let rebuilt = Term.with_children sample cs in
  check_bool "identity rebuild" true (Term.equal sample rebuilt);
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument "Term.with_children: arity mismatch") (fun () ->
      ignore (Term.with_children sample []))

let test_paths () =
  let all = Term.all_paths sample in
  check_int "node count matches size" (Term.size sample) (List.length all);
  (* every reported path resolves to its reported subterm *)
  List.iter
    (fun (p, t) ->
      match Term.subterm_at sample p with
      | Some t' -> check_bool "path resolves" true (Term.equal t t')
      | None -> Alcotest.fail "dangling path")
    all;
  check_bool "bad path" true (Term.subterm_at sample [ 9; 9 ] = None)

let test_replace_at () =
  let replaced = Term.replace_at sample [ 0 ] Term.tru in
  (match replaced with
  | Term.App ("and", [ t; _ ]) -> check_bool "replaced" true (Term.equal t Term.tru)
  | _ -> Alcotest.fail "shape");
  check_bool "invalid path is identity" true
    (Term.equal sample (Term.replace_at sample [ 42 ] Term.tru))

let test_free_vars () =
  check_bool "flat" true (Term.free_vars sample = [ "a"; "b"; "x" ]);
  let t = parse_term_exn "(forall ((x Int)) (= x y))" in
  check_bool "bound excluded" true (Term.free_vars t = [ "y" ]);
  let t = parse_term_exn "(let ((x 1)) (+ x y))" in
  check_bool "let-bound excluded" true (Term.free_vars t = [ "y" ]);
  let t = parse_term_exn "(let ((x y)) x)" in
  check_bool "binding value free" true (Term.free_vars t = [ "y" ])

let test_rename_var () =
  let t = parse_term_exn "(and p (forall ((p Bool)) p))" in
  let renamed = Term.rename_var ~old_name:"p" ~new_name:"q" t in
  check_str "only free occurrence" "(and q (forall ((p Bool)) p))" (Printer.term renamed)

let test_is_atomic () =
  check_bool "comparison is atomic" true (Term.is_atomic (parse_term_exn "(< x 1)"));
  check_bool "var is atomic" true (Term.is_atomic (parse_term_exn "p"));
  check_bool "and is not" false (Term.is_atomic (parse_term_exn "(and p q)"));
  check_bool "quantifier is not" false
    (Term.is_atomic (parse_term_exn "(exists ((x Int)) (= x 0))"))

(* ------------------------- Printer round-trips ------------------------- *)

let round_trips_term s =
  let t = parse_term_exn s in
  let printed = Printer.term t in
  let t' = parse_term_exn printed in
  Term.equal t t'

let test_printer_round_trip_corpus () =
  List.iter
    (fun s -> check_bool s true (round_trips_term s))
    [
      "(and true false)";
      "(= (+ x 1) (- 2))";
      "(- 2.5)";
      "(bvadd #b0011 (_ bv1 4))";
      "((_ extract 3 1) v)";
      {|(str.++ "a" "b""c")|};
      "(as seq.empty (Seq Int))";
      "(forall ((x Int)) (exists ((y Int)) (< x y)))";
      "(let ((a (+ x 1))) (= a a))";
      "(! (> x 0) :named p)";
      "((as const (Array Int Bool)) false)";
      "(as ff2 (_ FiniteField 3))";
      "(set.member (tuple 1 2) r)";
      "((_ is cons) l)";
    ]

let test_script_round_trip () =
  let script = parse_script_exn fig1 in
  let script' = parse_script_exn (Printer.script script) in
  check_bool "script round trip" true (script = script')

(* random well-formed term generator for property round-trips *)
let gen_term =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        map Term.int (int_range (-5) 5);
        return Term.tru;
        return Term.fls;
        map Term.var (oneofl [ "x"; "y"; "z" ]);
        map Term.str (oneofl [ ""; "a"; "b" ]);
        map (fun v -> Term.bv ~width:3 v) (int_range 0 7);
      ]
  in
  fix
    (fun self depth ->
      if depth <= 0 then leaf
      else
        frequency
          [
            (2, leaf);
            (2, map2 (fun a b -> Term.app "+" [ a; b ]) (self (depth - 1)) (self (depth - 1)));
            (2, map2 Term.eq (self (depth - 1)) (self (depth - 1)));
            (1, map Term.not_ (self (depth - 1)));
            (1, map (fun t -> Term.Forall ([ ("q", Sort.Int) ], t)) (self (depth - 1)));
            (1, map (fun t -> Term.Let ([ ("w", Term.int 1) ], t)) (self (depth - 1)));
            ( 1,
              map3 Term.ite (self (depth - 1)) (self (depth - 1)) (self (depth - 1)) );
          ])
    4

let arbitrary_term = QCheck.make ~print:Printer.term gen_term

let term_props =
  [
    QCheck.Test.make ~name:"print/parse round-trip" ~count:300 arbitrary_term (fun t ->
        match Parser.parse_term (Printer.term t) with
        | Ok t' -> Term.equal t t'
        | Error _ -> false);
    QCheck.Test.make ~name:"size = |all_paths|" ~count:200 arbitrary_term (fun t ->
        Term.size t = List.length (Term.all_paths t));
    QCheck.Test.make ~name:"map_bottom_up id is identity" ~count:200 arbitrary_term
      (fun t -> Term.equal t (Term.map_bottom_up Fun.id t));
    QCheck.Test.make ~name:"replace_at root" ~count:100 arbitrary_term (fun t ->
        Term.equal Term.tru (Term.replace_at t [] Term.tru));
    QCheck.Test.make ~name:"rename to fresh then back" ~count:200 arbitrary_term
      (fun t ->
        let there = Term.rename_var ~old_name:"x" ~new_name:"fresh_xyz" t in
        let back = Term.rename_var ~old_name:"fresh_xyz" ~new_name:"x" there in
        Term.equal t back);
  ]

let () =
  Alcotest.run "smtlib"
    [
      ( "lexer",
        [
          Alcotest.test_case "atoms" `Quick test_lexer_atoms;
          Alcotest.test_case "nesting" `Quick test_lexer_nesting;
          Alcotest.test_case "comments" `Quick test_lexer_comments;
          Alcotest.test_case "string escape" `Quick test_lexer_string_escape;
          Alcotest.test_case "errors" `Quick test_lexer_errors;
        ] );
      ( "sorts",
        [
          Alcotest.test_case "round trip" `Quick test_sort_round_trip;
          Alcotest.test_case "helpers" `Quick test_sort_helpers;
        ] );
      ( "term parsing",
        [
          Alcotest.test_case "constants" `Quick test_parse_constants;
          Alcotest.test_case "ff literal" `Quick test_parse_ff_literal;
          Alcotest.test_case "indexed" `Quick test_parse_indexed;
          Alcotest.test_case "quantifiers" `Quick test_parse_quantifiers;
          Alcotest.test_case "let" `Quick test_parse_let;
          Alcotest.test_case "annotation" `Quick test_parse_annotation;
          Alcotest.test_case "placeholder" `Quick test_parse_placeholder;
          Alcotest.test_case "placeholders per parse" `Quick test_placeholder_domains;
          Alcotest.test_case "qualified" `Quick test_parse_qualified;
          Alcotest.test_case "match patterns" `Quick test_parse_match;
          Alcotest.test_case "match round trip" `Quick test_match_round_trip;
          Alcotest.test_case "match free vars" `Quick test_match_free_vars;
          Alcotest.test_case "match rename" `Quick test_match_rename_respects_binders;
          Alcotest.test_case "errors" `Quick test_parse_errors;
        ] );
      ( "scripts",
        [
          Alcotest.test_case "commands" `Quick test_parse_script_commands;
          Alcotest.test_case "datatypes" `Quick test_parse_datatypes;
          Alcotest.test_case "utilities" `Quick test_script_utilities;
          Alcotest.test_case "fresh name" `Quick test_fresh_name;
          Alcotest.test_case "add declarations" `Quick test_add_declarations;
          Alcotest.test_case "replace assertions" `Quick test_replace_assertions;
        ] );
      ( "term structure",
        [
          Alcotest.test_case "size/depth" `Quick test_term_size_depth;
          Alcotest.test_case "children" `Quick test_children_with_children;
          Alcotest.test_case "paths" `Quick test_paths;
          Alcotest.test_case "replace_at" `Quick test_replace_at;
          Alcotest.test_case "free vars" `Quick test_free_vars;
          Alcotest.test_case "rename" `Quick test_rename_var;
          Alcotest.test_case "is_atomic" `Quick test_is_atomic;
        ] );
      ( "printer",
        [
          Alcotest.test_case "round trip corpus" `Quick test_printer_round_trip_corpus;
          Alcotest.test_case "script round trip" `Quick test_script_round_trip;
        ]
        @ List.map QCheck_alcotest.to_alcotest term_props );
    ]
