(* The total order and the set, bag and array normalizers of [Solver.Value]
   before its collections kept a normal form, kept verbatim: the reference
   evaluator sorts and dedupes every collection result with them, so it
   keeps the collection semantics the operators had, whatever lib's
   normalizers become. [normalize_entries] keeps the first of two writes to
   one index, which makes [store] keep the first write; SMT-LIB's [store]
   overwrites (a known defect of both engines, ROADMAP item 10). *)

open Solver.Value
module Regex = Solver.Regex

let rec compare a b =
  match (a, b) with
  | Bool x, Bool y -> Stdlib.compare x y
  | Int x, Int y -> Stdlib.compare x y
  | Real (p, q), Real (p', q') -> Stdlib.compare (p * q') (p' * q)
  | Bv x, Bv y -> Stdlib.compare (x.width, x.value) (y.width, y.value)
  | Str x, Str y -> Stdlib.compare x y
  | Ff x, Ff y -> Stdlib.compare (x.order, x.value) (y.order, y.value)
  | Seq (_, xs), Seq (_, ys) | Set (_, xs), Set (_, ys) -> compare_lists xs ys
  | Bag (_, xs), Bag (_, ys) ->
    compare_lists (List.map fst xs) (List.map fst ys) |> fun c ->
    if c <> 0 then c else Stdlib.compare (List.map snd xs) (List.map snd ys)
  | Arr x, Arr y ->
    let c = compare x.default y.default in
    if c <> 0 then c
    else
      compare_lists (List.map fst x.entries) (List.map fst y.entries) |> fun c ->
      if c <> 0 then c else compare_lists (List.map snd x.entries) (List.map snd y.entries)
  | Tuple xs, Tuple ys -> compare_lists xs ys
  | Dt (d, c, xs), Dt (d', c', ys) ->
    let cc = Stdlib.compare (d, c) (d', c') in
    if cc <> 0 then cc else compare_lists xs ys
  | Un (s, k), Un (s', k') -> Stdlib.compare (s, k) (s', k')
  | Re x, Re y -> Stdlib.compare (Regex.size x) (Regex.size y)
  | _ -> Stdlib.compare (tag a) (tag b)

and compare_lists xs ys =
  match (xs, ys) with
  | [], [] -> 0
  | [], _ -> -1
  | _, [] -> 1
  | x :: xs', y :: ys' ->
    let c = compare x y in
    if c <> 0 then c else compare_lists xs' ys'

and tag = function
  | Bool _ -> 0
  | Int _ -> 1
  | Real _ -> 2
  | Bv _ -> 3
  | Str _ -> 4
  | Ff _ -> 5
  | Seq _ -> 6
  | Set _ -> 7
  | Bag _ -> 8
  | Arr _ -> 9
  | Tuple _ -> 10
  | Dt _ -> 11
  | Un _ -> 12
  | Re _ -> 13

let equal a b = compare a b = 0

let mk_set elt elems =
  Set (elt, O4a_util.Listx.dedup ~eq:equal (List.sort compare elems))

let mk_bag elt entries =
  let merged =
    List.fold_left
      (fun acc (v, n) ->
        if n <= 0 then acc
        else (
          match List.find_opt (fun (v', _) -> equal v v') acc with
          | Some (_, m) -> (v, m + n) :: List.filter (fun (v', _) -> not (equal v v')) acc
          | None -> (v, n) :: acc))
      [] entries
  in
  Bag (elt, List.sort (fun (a, _) (b, _) -> compare a b) merged)

let normalize_entries entries =
  let deduped =
    List.fold_left
      (fun acc (k, v) -> (k, v) :: List.filter (fun (k', _) -> not (equal k k')) acc)
      []
      (List.rev entries)
  in
  List.sort (fun (a, _) (b, _) -> compare a b) deduped
