type t =
  | Bool
  | Int
  | Real
  | String_sort
  | Reglan
  | Bitvec of int
  | Finite_field of int
  | Seq of t
  | Set of t
  | Bag of t
  | Array of t * t
  | Tuple of t list
  | Datatype of string
  | Uninterpreted of string

let equal (a : t) (b : t) = a = b

let compare (a : t) (b : t) = Stdlib.compare a b

let rec to_string = function
  | Bool -> "Bool"
  | Int -> "Int"
  | Real -> "Real"
  | String_sort -> "String"
  | Reglan -> "RegLan"
  | Bitvec n -> Printf.sprintf "(_ BitVec %d)" n
  | Finite_field p -> Printf.sprintf "(_ FiniteField %d)" p
  | Seq s -> Printf.sprintf "(Seq %s)" (to_string s)
  | Set s -> Printf.sprintf "(Set %s)" (to_string s)
  | Bag s -> Printf.sprintf "(Bag %s)" (to_string s)
  | Array (i, e) -> Printf.sprintf "(Array %s %s)" (to_string i) (to_string e)
  | Tuple [] -> "UnitTuple"
  | Tuple ss -> Printf.sprintf "(Tuple %s)" (String.concat " " (List.map to_string ss))
  | Datatype name -> name
  | Uninterpreted name -> name


let is_numeric = function Int | Real -> true | _ -> false

let is_container = function Seq _ | Set _ | Bag _ | Array _ -> true | _ -> false

let element_sort = function
  | Seq s | Set s | Bag s -> Some s
  | Array (_, e) -> Some e
  | Bool | Int | Real | String_sort | Reglan | Bitvec _ | Finite_field _
  | Tuple _ | Datatype _ | Uninterpreted _ ->
    None

let rec size_estimate = function
  | Bool | Int | Real | String_sort | Reglan | Bitvec _ | Finite_field _
  | Datatype _ | Uninterpreted _ ->
    1
  | Seq s | Set s | Bag s -> 1 + size_estimate s
  | Array (i, e) -> 1 + size_estimate i + size_estimate e
  | Tuple ss -> 1 + List.fold_left (fun acc s -> acc + size_estimate s) 0 ss
