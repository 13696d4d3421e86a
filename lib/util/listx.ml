let rec take n = function
  | [] -> []
  | x :: rest -> if n <= 0 then [] else x :: take (n - 1) rest

let rec drop n = function
  | [] -> []
  | _ :: rest as xs -> if n <= 0 then xs else drop (n - 1) rest

let rec last = function
  | [] -> invalid_arg "Listx.last: empty list"
  | [ x ] -> x
  | _ :: rest -> last rest

let rec init_segment = function
  | [] -> invalid_arg "Listx.init_segment: empty list"
  | [ _ ] -> []
  | x :: rest -> x :: init_segment rest

let dedup ?(eq = ( = )) xs =
  let rec go seen = function
    | [] -> []
    | x :: rest ->
      if List.exists (eq x) seen then go seen rest else x :: go (x :: seen) rest
  in
  go [] xs

let group_by key xs =
  (* members accumulate reversed in a table indexed by key; [order] keeps
     the groups reversed in first-appearance order *)
  let groups = Hashtbl.create 16 in
  let order =
    List.fold_left
      (fun order x ->
        let k = key x in
        match Hashtbl.find_opt groups k with
        | Some members ->
          members := x :: !members;
          order
        | None ->
          let members = ref [ x ] in
          Hashtbl.add groups k members;
          (k, members) :: order)
      [] xs
  in
  List.rev_map (fun (k, members) -> (k, List.rev !members)) order

let count_by key xs = group_by key xs |> List.map (fun (k, m) -> (k, List.length m))

let find_index pred xs =
  let rec go i = function
    | [] -> None
    | x :: rest -> if pred x then Some i else go (i + 1) rest
  in
  go 0 xs

let replace_nth i x xs = List.mapi (fun j y -> if j = i then x else y) xs

let remove_nth i xs = List.filteri (fun j _ -> j <> i) xs

let rec intersperse sep = function
  | [] -> []
  | [ x ] -> [ x ]
  | x :: rest -> x :: sep :: intersperse sep rest

let sum = List.fold_left ( + ) 0

let max_by score = function
  | [] -> None
  | x :: rest ->
    Some (List.fold_left (fun best y -> if score y > score best then y else best) x rest)

let cartesian xs ys = List.concat_map (fun x -> List.map (fun y -> (x, y)) ys) xs

let range lo hi =
  let rec go i acc = if i < lo then acc else go (i - 1) (i :: acc) in
  go hi []
