open Smtlib

type t = Script.t -> bool

let always _ = true
let never _ = false
let all_of ts script = List.for_all (fun t -> t script) ts
let any_of ts script = List.exists (fun t -> t script) ts
let not_ t script = not (t script)

let fold_terms f init script =
  List.fold_left
    (fun acc assertion -> Term.fold f acc assertion)
    init (Script.assertions script)

let exists_term pred script =
  List.exists (fun a -> Term.exists_node pred a) (Script.assertions script)

let term_op_matches name = function
  | Term.App (n, _) -> n = name
  | Term.Indexed_app (n, _, _) -> n = name
  | Term.Qual (n, _) | Term.Qual_app (n, _, _) -> n = name
  | Term.Var n -> n = name (* nullary theory constants parse as vars *)
  | _ -> false

let has_op name = exists_term (term_op_matches name)

let has_any_op names script = List.exists (fun n -> has_op n script) names

let has_exists = exists_term (function Term.Exists _ -> true | _ -> false)

let has_forall = exists_term (function Term.Forall _ -> true | _ -> false)

let has_quantifier = any_of [ has_exists; has_forall ]

let has_let = exists_term (function Term.Let _ -> true | _ -> false)

let has_sort pred script =
  let decl_sorts =
    List.concat_map
      (fun (d : Script.fun_decl) -> d.result_sort :: d.arg_sorts)
      (Script.declared_funs script)
  in
  let rec sort_matches s =
    pred s
    ||
    match s with
    | Sort.Seq s' | Sort.Set s' | Sort.Bag s' -> sort_matches s'
    | Sort.Array (i, e) -> sort_matches i || sort_matches e
    | Sort.Tuple ss -> List.exists sort_matches ss
    | _ -> false
  in
  List.exists sort_matches decl_sorts
  || exists_term
       (function
         | Term.Forall (binders, _) | Term.Exists (binders, _) ->
           List.exists (fun (_, s) -> sort_matches s) binders
         | Term.Qual (_, s) | Term.Qual_app (_, s, _) -> sort_matches s
         | _ -> false)
       script

let has_int_lit pred =
  exists_term (function Term.Const (Term.Int_lit n) -> pred n | _ -> false)

let has_string_lit pred =
  exists_term (function Term.Const (Term.String_lit s) -> pred s | _ -> false)

let min_asserts n script = List.length (Script.assertions script) >= n

let min_term_depth n script =
  List.exists (fun a -> Term.depth a >= n) (Script.assertions script)

let op_count_at_least name n script =
  let count =
    fold_terms
      (fun acc t -> if term_op_matches name t then acc + 1 else acc)
      0 script
  in
  count >= n

let has_div_by_zero =
  exists_term (function
    | Term.App (("div" | "mod" | "/"), [ _; Term.Const (Term.Int_lit 0) ]) -> true
    | Term.App ("/", [ _; Term.Const (Term.Real_lit (0, _)) ]) -> true
    | _ -> false)

let has_datatypes script = Script.declared_datatypes script <> []
