open Theories
module Rng = O4a_util.Rng
module Cfg = Grammar_kit.Cfg

type t = {
  theory : Theory.info;
  defects : Flaw.grammar_defect list;
  runtime_flaws : Flaw.runtime list;
  version : int;
  profile_name : string;
  grammar : Grammar_kit.Generate.compiled;
}

type emitted = {
  decls : string list;
  term : string;
}

(* ------------------------------------------------------------------ *)
(* Applying grammar defects                                            *)
(* ------------------------------------------------------------------ *)

let replace_op_in_alt ~from_op ~to_op alt =
  List.map
    (function
      | Cfg.Lit text ->
        Cfg.Lit
          (if O4a_util.Strx.contains_sub ~sub:from_op text then (
             (* replace the first occurrence *)
             let rec replace i =
               if i + String.length from_op > String.length text then text
               else if String.sub text i (String.length from_op) = from_op then
                 String.sub text 0 i ^ to_op
                 ^ String.sub text
                     (i + String.length from_op)
                     (String.length text - i - String.length from_op)
               else replace (i + 1)
             in
             replace 0)
           else text)
      | s -> s)
    alt

let break_arity alt =
  (* duplicate the first nonterminal reference, producing one extra operand *)
  match O4a_util.Listx.find_index (function Cfg.Ref _ -> true | _ -> false) alt with
  | None -> alt
  | Some i ->
    let r = List.nth alt i in
    O4a_util.Listx.take (i + 1) alt @ [ Cfg.Lit " "; r ] @ O4a_util.Listx.drop (i + 1) alt

let unit_join_production =
  {
    Cfg.lhs = "urel";
    alternatives =
      [ [ Cfg.Lit "(as set.empty (Set UnitTuple))" ]; [ Cfg.Hook "var_urel" ] ];
  }

let unit_join_bool_alt =
  [ Cfg.Lit "(set.subset (rel.join "; Cfg.Ref "urel"; Cfg.Lit " "; Cfg.Ref "urel";
    Cfg.Lit ") (rel.join "; Cfg.Ref "urel"; Cfg.Lit " "; Cfg.Ref "urel"; Cfg.Lit "))" ]

let apply_defect cfg defect =
  match defect with
  | Flaw.Drop_alt { lhs; alt_idx } ->
    (* remove only when another alternative remains *)
    let productions =
      List.map
        (fun p ->
          if p.Cfg.lhs = lhs && List.length p.Cfg.alternatives > 1 then
            { p with Cfg.alternatives = O4a_util.Listx.remove_nth alt_idx p.Cfg.alternatives }
          else p)
        cfg.Cfg.productions
    in
    { cfg with Cfg.productions = productions }
  | Flaw.Hallucinate { lhs; alt_idx; from_op; to_op } ->
    let productions =
      List.map
        (fun p ->
          if p.Cfg.lhs = lhs then
            {
              p with
              Cfg.alternatives =
                List.mapi
                  (fun i alt ->
                    if i = alt_idx then replace_op_in_alt ~from_op ~to_op alt else alt)
                  p.Cfg.alternatives;
            }
          else p)
        cfg.Cfg.productions
    in
    { cfg with Cfg.productions = productions }
  | Flaw.Arity_break { lhs; alt_idx } ->
    let productions =
      List.map
        (fun p ->
          if p.Cfg.lhs = lhs then
            {
              p with
              Cfg.alternatives =
                List.mapi
                  (fun i alt -> if i = alt_idx then break_arity alt else alt)
                  p.Cfg.alternatives;
            }
          else p)
        cfg.Cfg.productions
    in
    { cfg with Cfg.productions = productions }
  | Flaw.Unit_join ->
    let cfg = { cfg with Cfg.productions = cfg.Cfg.productions @ [ unit_join_production ] } in
    Cfg.add_alternative cfg cfg.Cfg.start unit_join_bool_alt

let apply_defects theory defects =
  let base = Grammar_kit.Ebnf.parse_exn (Theory.ground_truth_cfg theory.Theory.id) in
  List.fold_left apply_defect base defects

(* the only constructor: the grammar is compiled here, once, so no record
   update can pair a generator's defects with another grammar *)
let make ~theory ~defects ~runtime_flaws ~version ~profile_name =
  {
    theory;
    defects;
    runtime_flaws;
    version;
    profile_name;
    grammar = Grammar_kit.Generate.compile (apply_defects theory defects);
  }

let perfect theory =
  make ~theory ~defects:[] ~runtime_flaws:[] ~version:0 ~profile_name:"perfect"

let effective_cfg t = apply_defects t.theory t.defects

(* ------------------------------------------------------------------ *)
(* Hook interpretation                                                 *)
(* ------------------------------------------------------------------ *)

type gen_state = {
  rng : Rng.t;
  flaws : Flaw.runtime list;
  mutable pools : (string * string list) list;  (** sort text -> var names *)
  mutable decl_lines : string list;  (** reversed *)
  mutable counters : (string * int) list;
  width : int;  (** bit-vector width for this term *)
  order : int;  (** finite-field order for this term *)
}

let has_flaw st f = List.mem f st.flaws

let widths = [ 2; 3; 4 ]
let orders = [ 3; 5; 7 ]

let next_counter st prefix =
  let n = match List.assoc_opt prefix st.counters with Some n -> n | None -> 0 in
  st.counters <- (prefix, n + 1) :: List.remove_assoc prefix st.counters;
  n

let datatype_decl_line =
  "(declare-datatypes ((Lst 0)) (((nil) (cons (head Int) (tail Lst)))))"

let fresh_var st ~prefix ~sort_text =
  let name = Printf.sprintf "%s%d" prefix (next_counter st prefix) in
  let skip_decl = has_flaw st Flaw.Missing_declaration && Rng.chance st.rng 0.35 in
  if not skip_decl then (
    (match prefix with
    | "lst" when not (List.mem datatype_decl_line st.decl_lines) ->
      st.decl_lines <- datatype_decl_line :: st.decl_lines
    | _ -> ());
    st.decl_lines <-
      Printf.sprintf "(declare-fun %s () %s)" name sort_text :: st.decl_lines;
    let pool = match List.assoc_opt sort_text st.pools with Some p -> p | None -> [] in
    st.pools <- (sort_text, name :: pool) :: List.remove_assoc sort_text st.pools);
  name

let var st ~prefix ~sort_text =
  let pool = match List.assoc_opt sort_text st.pools with Some p -> p | None -> [] in
  if pool <> [] && Rng.chance st.rng 0.6 then Rng.choose st.rng pool
  else fresh_var st ~prefix ~sort_text

let term_width st = if has_flaw st Flaw.Width_mismatch then Rng.choose st.rng widths else st.width

let term_order st = if has_flaw st Flaw.Field_mismatch then Rng.choose st.rng orders else st.order

let bv_sort_text w = Printf.sprintf "(_ BitVec %d)" w

let ff_sort_text p = Printf.sprintf "(_ FiniteField %d)" p

let int_literal st =
  let n = Rng.int_in st.rng (-2) 3 in
  if has_flaw st Flaw.Bad_int_literal && Rng.chance st.rng 0.5 then
    Printf.sprintf "%d.0" (abs n)
  else if n < 0 then Printf.sprintf "(- %d)" (-n)
  else string_of_int n

let real_literal st =
  let choices = [ "0.0"; "1.0"; "1.5"; "2.0"; "0.5"; "(- 1.0)" ] in
  if has_flaw st Flaw.Bad_real_literal && Rng.chance st.rng 0.5 then
    string_of_int (Rng.int_in st.rng 0 3)
  else Rng.choose st.rng choices

let bv_literal st =
  let w = term_width st in
  let v = Rng.int st.rng (1 lsl w) in
  if Rng.chance st.rng 0.3 then Printf.sprintf "(_ bv%d %d)" v w
  else (
    let buf = Buffer.create (w + 2) in
    Buffer.add_string buf "#b";
    for i = w - 1 downto 0 do
      Buffer.add_char buf (if (v lsr i) land 1 = 1 then '1' else '0')
    done;
    Buffer.contents buf)

let str_literal st =
  let s = Rng.choose st.rng [ ""; "a"; "b"; "ab"; "ba"; "0"; "aa" ] in
  if has_flaw st Flaw.Bad_string_quotes && Rng.chance st.rng 0.5 then
    Printf.sprintf "'%s'" s
  else Printf.sprintf "\"%s\"" s

let ff_literal st =
  let p = term_order st in
  let v = Rng.int st.rng p in
  if has_flaw st Flaw.Bad_ff_literal && Rng.chance st.rng 0.5 then
    Printf.sprintf "ff%d" v
  else Printf.sprintf "(as ff%d (_ FiniteField %d))" v p

let hook st name =
  match name with
  | "bool_lit" -> if Rng.bool st.rng then "true" else "false"
  | "int_lit" -> int_literal st
  | "real_lit" -> real_literal st
  | "bv_lit" -> bv_literal st
  | "str_lit" -> str_literal st
  | "str_char" -> Printf.sprintf "\"%c\"" (Char.chr (97 + Rng.int st.rng 4))
  | "ff_lit" -> ff_literal st
  | "divisor" -> string_of_int (Rng.int_in st.rng 1 4)
  | "bv_width" -> string_of_int (term_width st)
  | "extract_hi" ->
    let w = term_width st in
    if has_flaw st Flaw.Width_mismatch then string_of_int (Rng.int st.rng (w + 1))
    else string_of_int (w - 1)
  | "extract_lo" -> "0"
  | "var_bool" -> var st ~prefix:"b" ~sort_text:"Bool"
  | "var_int" -> var st ~prefix:"int" ~sort_text:"Int"
  | "var_real" -> var st ~prefix:"real" ~sort_text:"Real"
  | "var_str" -> var st ~prefix:"str" ~sort_text:"String"
  | "var_bv" ->
    let w = term_width st in
    var st ~prefix:(Printf.sprintf "bv%d_" w) ~sort_text:(bv_sort_text w)
  | "var_ff" ->
    let p = term_order st in
    var st ~prefix:(Printf.sprintf "ff%d_" p) ~sort_text:(ff_sort_text p)
  | "var_seq" -> var st ~prefix:"seq" ~sort_text:"(Seq Int)"
  | "var_set" -> var st ~prefix:"set" ~sort_text:"(Set Int)"
  | "var_bag" -> var st ~prefix:"bag" ~sort_text:"(Bag Int)"
  | "var_arr" -> var st ~prefix:"arr" ~sort_text:"(Array Int Int)"
  | "var_rel" -> var st ~prefix:"rel" ~sort_text:"(Set (Tuple Int Int))"
  | "var_urel" -> var st ~prefix:"urel" ~sort_text:"(Set UnitTuple)"
  | "var_lst" -> var st ~prefix:"lst" ~sort_text:"Lst"
  | other -> failwith (Printf.sprintf "unknown generator hook '@%s'" other)

let generate_from ?(max_depth = 8) ?width ?order ~start t ~rng =
  (* the order is drawn before the width: a record literal would leave that
     to the compiler's evaluation order, and it fixes every emission *)
  let order = match order with Some p -> p | None -> Rng.choose rng orders in
  let width = match width with Some w -> w | None -> Rng.choose rng widths in
  let st =
    { rng; flaws = t.runtime_flaws; pools = []; decl_lines = []; counters = []; width; order }
  in
  let depth = max 3 (Rng.int_in rng (max_depth - 3) max_depth) in
  match Grammar_kit.Generate.run ~max_depth:depth t.grammar ~hook:(hook st) ~rng start with
  | Error msg -> failwith ("generator internal error: " ^ msg)
  | Ok sentence ->
    let term =
      if
        List.mem Flaw.Unbalanced_output t.runtime_flaws
        && Rng.chance rng 0.25
        && String.length sentence > 1
      then String.sub sentence 0 (String.length sentence - 1)
      else sentence
    in
    (* datatypes theory always needs its datatype declaration *)
    let decls = List.rev st.decl_lines in
    let decls =
      if
        t.theory.Theory.id = Theory.Datatypes
        && not (List.mem datatype_decl_line decls)
      then datatype_decl_line :: decls
      else decls
    in
    { decls; term }

let generate ?max_depth t ~rng =
  generate_from ?max_depth ~start:(Grammar_kit.Generate.start t.grammar) t ~rng

(* The mixed-sorts extension (paper 5.3, future work): emit a term of a
   requested non-Boolean sort by starting the derivation at the matching
   nonterminal, with the width/order context pinned to the request. *)
let nonterminal_for_sort sort =
  match sort with
  | Smtlib.Sort.Bool -> Some ("bool", None, None)
  | Smtlib.Sort.Int -> Some ("int", None, None)
  | Smtlib.Sort.Real -> Some ("real", None, None)
  | Smtlib.Sort.String_sort -> Some ("str", None, None)
  | Smtlib.Sort.Reglan -> Some ("regex", None, None)
  | Smtlib.Sort.Bitvec w when List.mem w widths -> Some ("bv", Some w, None)
  | Smtlib.Sort.Finite_field p when List.mem p orders -> Some ("ff", None, Some p)
  | Smtlib.Sort.Seq Smtlib.Sort.Int -> Some ("seq", None, None)
  | Smtlib.Sort.Set Smtlib.Sort.Int -> Some ("set", None, None)
  | Smtlib.Sort.Set (Smtlib.Sort.Tuple [ Smtlib.Sort.Int; Smtlib.Sort.Int ]) ->
    Some ("rel", None, None)
  | Smtlib.Sort.Bag Smtlib.Sort.Int -> Some ("bag", None, None)
  | Smtlib.Sort.Array (Smtlib.Sort.Int, Smtlib.Sort.Int) -> Some ("arr", None, None)
  | Smtlib.Sort.Datatype "Lst" -> Some ("lst", None, None)
  | _ -> None

let supports_sort t sort =
  match nonterminal_for_sort sort with
  | Some (start, _, _) -> Grammar_kit.Generate.defines t.grammar start
  | None -> false

let generate_of_sort ?max_depth t ~rng sort =
  match nonterminal_for_sort sort with
  | Some (start, width, order) when Grammar_kit.Generate.defines t.grammar start ->
    (match generate_from ?max_depth ?width ?order ~start t ~rng with
    | emitted -> Some emitted
    | exception Failure _ -> None)
  | _ -> None

let render_script emissions =
  let decls =
    O4a_util.Listx.dedup (List.concat_map (fun e -> e.decls) emissions)
  in
  (* datatype declarations must precede any declaration that uses the sort *)
  let dt, others =
    List.partition (fun d -> O4a_util.Strx.starts_with ~prefix:"(declare-datatypes" d) decls
  in
  let asserts = List.map (fun e -> Printf.sprintf "(assert %s)" e.term) emissions in
  String.concat "\n" (dt @ others @ asserts @ [ "(check-sat)" ])

let describe t =
  let defects = String.concat ", " (List.map Flaw.defect_to_string t.defects) in
  let flaws = String.concat ", " (List.map Flaw.runtime_to_string t.runtime_flaws) in
  Printf.sprintf
    "def generate_%s_formula_with_decls():  # v%d by %s\n    # grammar defects: [%s]\n    # emission flaws: [%s]\n    ..."
    t.theory.Theory.key t.version t.profile_name defects flaws

let is_clean t =
  t.runtime_flaws = []
  && List.for_all (function Flaw.Drop_alt _ -> true | _ -> false) t.defects
