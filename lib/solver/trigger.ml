open Smtlib

type t =
  | Always
  | Never
  | All_of of t list
  | Any_of of t list
  | Not of t
  | Has_op of string
  | Op_count_at_least of string * int
  | Has_exists
  | Has_forall
  | Has_let
  | Has_sort of (Sort.t -> bool)
  | Has_int_lit of (int -> bool)
  | Has_string_lit of (string -> bool)
  | Min_asserts of int
  | Min_term_depth of int
  | Has_div_by_zero
  | Has_datatypes

let always = Always
let never = Never
let all_of ts = All_of ts
let any_of ts = Any_of ts
let not_ t = Not t
let has_op name = Has_op name
let has_any_op names = Any_of (List.map has_op names)
let has_exists = Has_exists
let has_forall = Has_forall
let has_quantifier = Any_of [ Has_exists; Has_forall ]
let has_let = Has_let
let has_sort pred = Has_sort pred
let has_int_lit pred = Has_int_lit pred
let has_string_lit pred = Has_string_lit pred
let min_asserts n = Min_asserts n
let min_term_depth n = Min_term_depth n
let op_count_at_least name n = Op_count_at_least (name, n)
let has_div_by_zero = Has_div_by_zero
let has_datatypes = Has_datatypes

(* ------------------------------------------------------------------ *)
(* The per-formula index                                               *)
(* ------------------------------------------------------------------ *)

(* per name: its occurrences, and whether one of them applies it (a [Var]
   occurrence counts but does not make it an operator) *)
type name_stats = { mutable count : int; mutable applied : bool }

type index = {
  script : Script.t;
  names : (string, name_stats) Hashtbl.t;
  op_set : string list;
  asserts : int;
  exists : bool;
  forall : bool;
  lets : bool;
}

let index script =
  let names = Hashtbl.create 32 in
  let exists = ref false and forall = ref false and lets = ref false in
  let note name ~applied =
    match Hashtbl.find_opt names name with
    | Some s ->
      s.count <- s.count + 1;
      if applied then s.applied <- true
    | None -> Hashtbl.add names name { count = 1; applied }
  in
  (* every node [Term.fold] visits, in any order *)
  let rec visit = function
    | Term.App (n, args) | Term.Indexed_app (n, _, args) | Term.Qual_app (n, _, args) ->
      note n ~applied:true;
      List.iter visit args
    | Term.Qual (n, _) -> note n ~applied:true
    | Term.Var n -> note n ~applied:false
    | Term.Let (bindings, body) ->
      lets := true;
      List.iter (fun (_, v) -> visit v) bindings;
      visit body
    | Term.Forall (_, body) ->
      forall := true;
      visit body
    | Term.Exists (_, body) ->
      exists := true;
      visit body
    | Term.Annot (body, _) -> visit body
    | Term.Match (scrutinee, cases) ->
      visit scrutinee;
      List.iter (fun (_, body) -> visit body) cases
    | Term.Const _ | Term.Placeholder _ -> ()
  in
  let assertions = Script.assertions script in
  List.iter visit assertions;
  let op_set =
    Hashtbl.fold (fun n s acc -> if s.applied then n :: acc else acc) names []
    |> List.sort compare
  in
  {
    script;
    names;
    op_set;
    asserts = List.length assertions;
    exists = !exists;
    forall = !forall;
    lets = !lets;
  }

let op_set ix = ix.op_set

let count ix name =
  match Hashtbl.find_opt ix.names name with Some s -> s.count | None -> 0

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)
(* ------------------------------------------------------------------ *)

(* the leaves that test literals, sorts or depth read the script itself *)
let exists_term pred script =
  List.exists (fun a -> Term.exists_node pred a) (Script.assertions script)

let script_has_sort pred script =
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

let rec holds t ix =
  match t with
  | Always -> true
  | Never -> false
  | All_of ts -> List.for_all (fun t -> holds t ix) ts
  | Any_of ts -> List.exists (fun t -> holds t ix) ts
  | Not t -> not (holds t ix)
  | Has_op name -> count ix name > 0
  | Op_count_at_least (name, n) -> count ix name >= n
  | Has_exists -> ix.exists
  | Has_forall -> ix.forall
  | Has_let -> ix.lets
  | Min_asserts n -> ix.asserts >= n
  | Has_datatypes -> Script.declared_datatypes ix.script <> []
  | Has_sort pred -> script_has_sort pred ix.script
  | Has_int_lit pred ->
    exists_term
      (function Term.Const (Term.Int_lit n) -> pred n | _ -> false)
      ix.script
  | Has_string_lit pred ->
    exists_term
      (function Term.Const (Term.String_lit s) -> pred s | _ -> false)
      ix.script
  | Min_term_depth n ->
    List.exists (fun a -> Term.depth a >= n) (Script.assertions ix.script)
  | Has_div_by_zero ->
    exists_term
      (function
        | Term.App (("div" | "mod" | "/"), [ _; Term.Const (Term.Int_lit 0) ]) -> true
        | Term.App ("/", [ _; Term.Const (Term.Real_lit (0, _)) ]) -> true
        | _ -> false)
      ix.script
