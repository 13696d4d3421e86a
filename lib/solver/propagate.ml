open Smtlib

type interval = {
  lo : int option;
  hi : int option;
}

let unconstrained = { lo = None; hi = None }

let max_opt a b =
  match (a, b) with
  | Some x, Some y -> Some (max x y)
  | Some x, None | None, Some x -> Some x
  | None, None -> None

let min_opt a b =
  match (a, b) with
  | Some x, Some y -> Some (min x y)
  | Some x, None | None, Some x -> Some x
  | None, None -> None

let intersect a b = { lo = max_opt a.lo b.lo; hi = min_opt a.hi b.hi }

let is_empty_within interval ~window_lo ~window_hi =
  let lo = match interval.lo with Some l -> max l window_lo | None -> window_lo in
  let hi = match interval.hi with Some h -> min h window_hi | None -> window_hi in
  lo > hi

(* a single comparison conjunct over (variable, literal) *)
let bound_of_conjunct term =
  match term with
  | Term.App (op, [ Term.Var x; Term.Const (Term.Int_lit c) ]) -> (
    match op with
    | "<" -> Some (x, { lo = None; hi = Some (c - 1) })
    | "<=" -> Some (x, { lo = None; hi = Some c })
    | ">" -> Some (x, { lo = Some (c + 1); hi = None })
    | ">=" -> Some (x, { lo = Some c; hi = None })
    | "=" -> Some (x, { lo = Some c; hi = Some c })
    | _ -> None)
  | Term.App (op, [ Term.Const (Term.Int_lit c); Term.Var x ]) -> (
    match op with
    | "<" -> Some (x, { lo = Some (c + 1); hi = None })
    | "<=" -> Some (x, { lo = Some c; hi = None })
    | ">" -> Some (x, { lo = None; hi = Some (c - 1) })
    | ">=" -> Some (x, { lo = None; hi = Some c })
    | "=" -> Some (x, { lo = Some c; hi = Some c })
    | _ -> None)
  | _ -> None

let top_level_conjuncts script =
  let rec flatten t =
    match t with
    | Term.App ("and", args) -> List.concat_map flatten args
    | _ -> [ t ]
  in
  List.concat_map flatten (Script.assertions script)

let analyze script =
  (* a zero-arity define-fun is a declared const to [Script], but its value
     is fixed by its body: no bound on it may prune the search *)
  let defined =
    List.filter_map (function Command.Define_fun (n, _, _, _) -> Some n | _ -> None) script
  in
  let int_consts =
    Script.declared_consts script
    |> List.filter_map (fun (n, s) ->
           if s = Sort.Int && not (List.mem n defined) then Some n else None)
  in
  let bounds =
    List.fold_left
      (fun acc conjunct ->
        match bound_of_conjunct conjunct with
        | Some (x, interval) when List.mem x int_consts ->
          let current =
            Option.value (List.assoc_opt x acc) ~default:unconstrained
          in
          (x, intersect current interval) :: List.remove_assoc x acc
        | _ -> acc)
      [] (top_level_conjuncts script)
  in
  List.rev bounds

let restrict_domain interval values =
  List.filter
    (fun v ->
      match v with
      | Value.Int n ->
        (match interval.lo with Some l -> n >= l | None -> true)
        && (match interval.hi with Some h -> n <= h | None -> true)
      | _ -> true)
    values
