open Smtlib

type config = {
  int_lo : int;
  int_hi : int;
  max_container_elems : int;
  max_seq_len : int;
  max_bag_mult : int;
  max_domain_size : int;
  uninterpreted_card : int;
  datatype_depth : int;
}

let default_config =
  {
    int_lo = -2;
    int_hi = 3;
    max_container_elems = 3;
    max_seq_len = 2;
    max_bag_mult = 2;
    max_domain_size = 16;
    uninterpreted_card = 3;
    datatype_depth = 2;
  }

(* The first [limit] tuples of the product of [lists], first-major. They
   draw on the first [limit] tails only, so a wide product costs its prefix,
   not its size. *)
let rec product ~limit = function
  | [] -> [ [] ]
  | values :: rest ->
    let tails = product ~limit rest in
    O4a_util.Listx.take limit (List.concat_map (fun v -> List.map (fun t -> v :: t) tails) values)

(* The first [limit] candidates of a sort, in enumeration order. Every
   caller wants a prefix (the cap, or a few values of a component sort), so
   no product is built past it. *)
let rec enumerate_upto config ~datatypes ~limit sort =
  O4a_util.Listx.take limit (candidates config ~datatypes ~limit sort)

and candidates config ~datatypes ~limit sort =
  match sort with
  | Sort.Bool -> [ Value.Bool false; Value.Bool true ]
  | Sort.Int -> List.map (fun n -> Value.Int n) (O4a_util.Listx.range config.int_lo config.int_hi)
  | Sort.Real ->
    [ Value.mk_real (-1) 1; Value.mk_real (-1) 2; Value.mk_real 0 1; Value.mk_real 1 2;
      Value.mk_real 1 1; Value.mk_real 2 1 ]
  | Sort.String_sort -> List.map (fun s -> Value.Str s) [ ""; "a"; "b"; "ab"; "ba"; "0"; "aa" ]
  | Sort.Reglan ->
    [ Value.Re Regex.Empty; Value.Re Regex.Epsilon; Value.Re Regex.Any_char;
      Value.Re Regex.All; Value.Re (Regex.Lit "a") ]
  | Sort.Bitvec w ->
    let full = w <= 3 in
    let values =
      if full then O4a_util.Listx.range 0 ((1 lsl w) - 1)
      else (
        let top = (1 lsl min w 30) - 1 in
        O4a_util.Listx.dedup [ 0; 1; 2; 3; 5; top / 2; top - 1; top ])
    in
    List.map (fun v -> Value.mk_bv ~width:w v) values
  | Sort.Finite_field p ->
    let values = if p <= 11 then O4a_util.Listx.range 0 (p - 1) else [ 0; 1; 2; p - 2; p - 1 ] in
    List.map (fun v -> Value.mk_ff ~order:p v) values
  | Sort.Seq elt ->
    let elems = enumerate_upto config ~datatypes ~limit:config.max_container_elems elt in
    let rec seqs len =
      if len = 0 then [ [] ]
      else (
        let shorter = seqs (len - 1) in
        shorter @ List.concat_map (fun s -> List.map (fun e -> e :: s) elems)
                    (List.filter (fun s -> List.length s = len - 1) shorter))
    in
    List.map (fun s -> Value.Seq (elt, s)) (seqs config.max_seq_len)
  | Sort.Set elt ->
    let elems = enumerate_upto config ~datatypes ~limit:config.max_container_elems elt in
    let rec subsets = function
      | [] -> [ [] ]
      | x :: rest ->
        let without = subsets rest in
        without @ List.map (fun s -> x :: s) without
    in
    List.map (fun s -> Value.mk_set elt s) (subsets elems)
  | Sort.Bag elt ->
    let elems = enumerate_upto config ~datatypes ~limit:2 elt in
    let mults = O4a_util.Listx.range 0 config.max_bag_mult in
    List.map
      (fun entries -> Value.mk_bag elt (List.filter (fun (_, m) -> m > 0) entries))
      (product ~limit (List.map (fun x -> List.map (fun m -> (x, m)) mults) elems))
  | Sort.Array (idx, elt) ->
    let elt_values = enumerate_upto config ~datatypes ~limit:3 elt in
    let idx_values = enumerate_upto config ~datatypes ~limit:2 idx in
    let constants =
      List.map
        (fun d -> Value.Arr { idx; elt; default = d; entries = [] })
        elt_values
    in
    let with_store =
      match (idx_values, elt_values) with
      | i0 :: _, d :: alt :: _ when not (Value.equal d alt) ->
        [ Value.Arr { idx; elt; default = d; entries = [ (i0, alt) ] } ]
      | _ -> []
    in
    constants @ with_store
  | Sort.Tuple sorts ->
    List.map
      (fun vs -> Value.Tuple vs)
      (product ~limit (List.map (enumerate_upto config ~datatypes ~limit:3) sorts))
  | Sort.Datatype name -> enumerate_datatype config ~datatypes ~limit name config.datatype_depth
  | Sort.Uninterpreted name ->
    List.init config.uninterpreted_card (fun k -> Value.Un (name, k))

and enumerate_datatype config ~datatypes ~limit name depth =
  match
    List.find_opt (fun (d : Command.datatype_decl) -> d.dt_name = name) datatypes
  with
  | None -> [ Value.Un (name, 0) ]
  | Some decl ->
    let build_ctor (c : Command.constructor) =
      if depth <= 0 && c.selectors <> [] then []
      else (
        let field (_, s) =
          match s with
          | Sort.Datatype n when n = name ->
            O4a_util.Listx.take 2 (enumerate_datatype config ~datatypes ~limit:2 name (depth - 1))
          | _ -> enumerate_upto config ~datatypes ~limit:2 s
        in
        List.map
          (fun vs -> Value.Dt (name, c.ctor_name, vs))
          (product ~limit (List.map field c.selectors)))
    in
    (match List.concat_map build_ctor decl.constructors with
    | [] -> [ Value.Un (name, 0) ]
    | vs -> vs)

let enumerate ?(config = default_config) ~datatypes sort =
  enumerate_upto config ~datatypes ~limit:config.max_domain_size sort

let default_value ?(config = default_config) ~datatypes sort =
  match enumerate ~config ~datatypes sort with
  | [] -> Value.Un (Sort.to_string sort, 0)
  | v :: _ -> v
