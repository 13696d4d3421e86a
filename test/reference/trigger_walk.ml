(* The per-predicate tree walks [Solver.Trigger.holds] replaced, kept as the
   reference for its index: it interprets the same [Trigger.t] data, but
   every leaf walks the assertions again, and the rarity gate rebuilds the
   op set with a [List.mem] fold and a sort. *)

open Smtlib
module Trigger = Solver.Trigger
module Bug_db = Solver.Bug_db

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

let rec holds (t : Trigger.t) script =
  match t with
  | Trigger.Always -> true
  | Never -> false
  | All_of ts -> List.for_all (fun t -> holds t script) ts
  | Any_of ts -> List.exists (fun t -> holds t script) ts
  | Not t -> not (holds t script)
  | Has_op name -> exists_term (term_op_matches name) script
  | Op_count_at_least (name, n) ->
    fold_terms
      (fun acc t -> if term_op_matches name t then acc + 1 else acc)
      0 script
    >= n
  | Has_exists -> exists_term (function Term.Exists _ -> true | _ -> false) script
  | Has_forall -> exists_term (function Term.Forall _ -> true | _ -> false) script
  | Has_let -> exists_term (function Term.Let _ -> true | _ -> false) script
  | Has_sort pred -> has_sort pred script
  | Has_int_lit pred ->
    exists_term (function Term.Const (Term.Int_lit n) -> pred n | _ -> false) script
  | Has_string_lit pred ->
    exists_term (function Term.Const (Term.String_lit s) -> pred s | _ -> false) script
  | Min_asserts n -> List.length (Script.assertions script) >= n
  | Min_term_depth n ->
    List.exists (fun a -> Term.depth a >= n) (Script.assertions script)
  | Has_div_by_zero ->
    exists_term
      (function
        | Term.App (("div" | "mod" | "/"), [ _; Term.Const (Term.Int_lit 0) ]) -> true
        | Term.App ("/", [ _; Term.Const (Term.Real_lit (0, _)) ]) -> true
        | _ -> false)
      script
  | Has_datatypes -> Script.declared_datatypes script <> []

let script_op_set script =
  List.fold_left
    (fun acc assertion ->
      Term.fold
        (fun acc node ->
          match node with
          | Term.App (n, _) | Term.Indexed_app (n, _, _) | Term.Qual (n, _)
          | Term.Qual_app (n, _, _) ->
            if List.mem n acc then acc else n :: acc
          | _ -> acc)
        acc assertion)
    [] (Script.assertions script)
  |> List.sort compare

(* the trigger and the rarity gate, as [Bug_db.fires] decided them *)
let fires (spec : Bug_db.spec) script =
  holds spec.Bug_db.trigger script
  && (spec.Bug_db.rarity <= 1
     || Hashtbl.hash (spec.Bug_db.id, script_op_set script) mod spec.Bug_db.rarity = 0)

(* every name [term_op_matches] can match in the script, [Var]s included:
   the names worth asking a trigger about *)
let names script =
  fold_terms
    (fun acc node ->
      match node with
      | Term.App (n, _) | Term.Indexed_app (n, _, _) | Term.Qual (n, _)
      | Term.Qual_app (n, _, _) | Term.Var n ->
        if List.mem n acc then acc else n :: acc
      | _ -> acc)
    [] script
  |> List.rev
