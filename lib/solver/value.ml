open Smtlib

type t =
  | Bool of bool
  | Int of int
  | Real of int * int
  | Bv of { width : int; value : int }
  | Str of string
  | Ff of { order : int; value : int }
  | Seq of Sort.t * t list
  | Set of Sort.t * t list
  | Bag of Sort.t * (t * int) list
  | Arr of { idx : Sort.t; elt : Sort.t; default : t; entries : (t * t) list }
  | Tuple of t list
  | Dt of string * string * t list
  | Un of string * int
  | Re of Regex.t

let rec compare a b =
  match (a, b) with
  | Bool x, Bool y -> Stdlib.compare x y
  | Int x, Int y -> Stdlib.compare x y
  | Real (p, q), Real (p', q') -> Stdlib.compare (p * q') (p' * q)
  | Bv x, Bv y -> compare_ints x.width x.value y.width y.value
  | Str x, Str y -> Stdlib.compare x y
  | Ff x, Ff y -> compare_ints x.order x.value y.order y.value
  | Seq (_, xs), Seq (_, ys) | Set (_, xs), Set (_, ys) -> compare_lists xs ys
  | Bag (_, xs), Bag (_, ys) ->
    let c = compare_keys xs ys in
    if c <> 0 then c else compare_counts xs ys
  | Arr x, Arr y ->
    let c = compare x.default y.default in
    if c <> 0 then c
    else (
      let c = compare_keys x.entries y.entries in
      if c <> 0 then c else compare_images x.entries y.entries)
  | Tuple xs, Tuple ys -> compare_lists xs ys
  | Dt (d, c, xs), Dt (d', c', ys) ->
    let cc = String.compare d d' in
    let cc = if cc <> 0 then cc else String.compare c c' in
    if cc <> 0 then cc else compare_lists xs ys
  | Un (s, k), Un (s', k') ->
    let c = String.compare s s' in
    if c <> 0 then c else Stdlib.compare k k'
  | Re x, Re y -> Stdlib.compare (Regex.size x) (Regex.size y)
  | _ -> Stdlib.compare (tag a) (tag b)

(* the order of the pairs (a, b) and (a', b') *)
and compare_ints a b a' b' =
  let c = Stdlib.compare a a' in
  if c <> 0 then c else Stdlib.compare b b'

and compare_lists xs ys =
  match (xs, ys) with
  | [], [] -> 0
  | [], _ -> -1
  | _, [] -> 1
  | x :: xs', y :: ys' ->
    let c = compare x y in
    if c <> 0 then c else compare_lists xs' ys'

(* A bag's or an array's entries: first by key, as lists; on equal keys
   (hence equal lengths) by count or by image. *)
and compare_keys : 'a. (t * 'a) list -> (t * 'a) list -> int =
 fun xs ys ->
  match (xs, ys) with
  | [], [] -> 0
  | [], _ -> -1
  | _, [] -> 1
  | (x, _) :: xs', (y, _) :: ys' ->
    let c = compare x y in
    if c <> 0 then c else compare_keys xs' ys'

and compare_counts xs ys =
  match (xs, ys) with
  | (_, m) :: xs', (_, n) :: ys' ->
    let c = Stdlib.compare m n in
    if c <> 0 then c else compare_counts xs' ys'
  | _ -> 0

and compare_images xs ys =
  match (xs, ys) with
  | (_, v) :: xs', (_, w) :: ys' ->
    let c = compare v w in
    if c <> 0 then c else compare_images xs' ys'
  | _ -> 0

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

let rec sort_of = function
  | Bool _ -> Sort.Bool
  | Int _ -> Sort.Int
  | Real _ -> Sort.Real
  | Bv { width; _ } -> Sort.Bitvec width
  | Str _ -> Sort.String_sort
  | Ff { order; _ } -> Sort.Finite_field order
  | Seq (elt, _) -> Sort.Seq elt
  | Set (elt, _) -> Sort.Set elt
  | Bag (elt, _) -> Sort.Bag elt
  | Arr { idx; elt; _ } -> Sort.Array (idx, elt)
  | Tuple vs -> Sort.Tuple (List.map sort_of vs)
  | Dt (dt, _, _) -> Sort.Datatype dt
  | Un (name, _) -> Sort.Uninterpreted name
  | Re _ -> Sort.Reglan

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

let mk_real p q =
  if q = 0 then invalid_arg "Value.mk_real: zero denominator";
  let sign = if q < 0 then -1 else 1 in
  let p = p * sign and q = q * sign in
  let g = gcd p q in
  if g = 0 then Real (0, 1) else Real (p / g, q / g)

let mk_ff ~order value =
  let v = ((value mod order) + order) mod order in
  Ff { order; value = v }

let mk_bv ~width value =
  let mask = if width >= 62 then max_int else (1 lsl width) - 1 in
  Bv { width; value = value land mask }

let small_ints = Array.init 512 (fun i -> Int (i - 256))

let of_int n = if n >= -256 && n < 256 then Array.unsafe_get small_ints (n + 256) else Int n

let rec increasing = function
  | x :: (y :: _ as rest) -> compare x y < 0 && increasing rest
  | _ -> true

(* a sorted list without its repeats: the first of each run of equal
   elements stays *)
let rec first_of_runs = function
  | [] -> []
  | x :: rest -> x :: first_of_runs (skip_equal x rest)

and skip_equal x = function
  | y :: rest when compare x y = 0 -> skip_equal x rest
  | rest -> rest

let normal_elems elems =
  if increasing elems then elems else first_of_runs (List.stable_sort compare elems)

let mk_set elt elems = Set (elt, normal_elems elems)

let rec normal_entries = function
  | (x, m) :: ((y, _) :: _ as rest) -> m > 0 && compare x y < 0 && normal_entries rest
  | [ (_, m) ] -> m > 0
  | [] -> true

(* entries sorted by key: each run of equal keys becomes its last key with
   the run's total *)
let rec total_runs = function
  | [] -> []
  | (x, m) :: rest -> total_run x m rest

and total_run x m = function
  | (y, n) :: rest when compare x y = 0 -> total_run y (m + n) rest
  | rest -> (x, m) :: total_runs rest

let mk_bag elt entries =
  if normal_entries entries then Bag (elt, entries)
  else (
    let positive = List.filter (fun (_, n) -> n > 0) entries in
    Bag (elt, total_runs (List.stable_sort (fun (a, _) (b, _) -> compare a b) positive)))

let rec to_term_string = function
  | Bool b -> string_of_bool b
  | Int n -> if n < 0 then Printf.sprintf "(- %d)" (-n) else string_of_int n
  | Real (p, q) -> Term.const_to_string (Term.Real_lit (p, q))
  | Bv { width; value } -> Term.const_to_string (Term.Bv_lit { width; value })
  | Str s -> Printf.sprintf "\"%s\"" (O4a_util.Strx.escape_smt_string s)
  | Ff { order; value } -> Printf.sprintf "(as ff%d (_ FiniteField %d))" value order
  | Seq (elt, []) -> Printf.sprintf "(as seq.empty %s)" (Sort.to_string (Sort.Seq elt))
  | Seq (elt, vs) ->
    let units = List.map (fun v -> Printf.sprintf "(seq.unit %s)" (to_term_string v)) vs in
    (match units with
    | [ one ] -> one
    | _ ->
      ignore elt;
      Printf.sprintf "(seq.++ %s)" (String.concat " " units))
  | Set (elt, []) -> Printf.sprintf "(as set.empty %s)" (Sort.to_string (Sort.Set elt))
  | Set (_, [ v ]) -> Printf.sprintf "(set.singleton %s)" (to_term_string v)
  | Set (_, v :: rest) ->
    Printf.sprintf "(set.insert %s (set.singleton %s))"
      (String.concat " " (List.map to_term_string (List.rev rest)))
      (to_term_string v)
  | Bag (elt, []) -> Printf.sprintf "(as bag.empty %s)" (Sort.to_string (Sort.Bag elt))
  | Bag (elt, [ (v, n) ]) ->
    ignore elt;
    Printf.sprintf "(bag %s %d)" (to_term_string v) n
  | Bag (elt, (v, n) :: rest) ->
    Printf.sprintf "(bag.union_disjoint (bag %s %d) %s)" (to_term_string v) n
      (to_term_string (Bag (elt, rest)))
  | Arr { idx; elt; default; entries } ->
    let base =
      Printf.sprintf "((as const %s) %s)"
        (Sort.to_string (Sort.Array (idx, elt)))
        (to_term_string default)
    in
    List.fold_left
      (fun acc (k, v) ->
        Printf.sprintf "(store %s %s %s)" acc (to_term_string k) (to_term_string v))
      base entries
  | Tuple [] -> "(as tuple.unit UnitTuple)"
  | Tuple vs -> Printf.sprintf "(tuple %s)" (String.concat " " (List.map to_term_string vs))
  | Dt (dt, ctor, []) -> Printf.sprintf "(as %s %s)" ctor dt
  | Dt (_, ctor, args) ->
    Printf.sprintf "(%s %s)" ctor (String.concat " " (List.map to_term_string args))
  | Un (name, k) -> Printf.sprintf "(as @%s!%d %s)" name k name
  | Re _ -> "re.all"
