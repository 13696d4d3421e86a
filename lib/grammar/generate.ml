type hook_fn = string -> string

module Names = Map.Make (String)

type symbol =
  | Text of string
  | Hook of string
  | Nt of int  (** a production's index *)

type production = {
  name : string;
  fits : symbol array array array;
      (** [fits.(b)]: the alternatives whose minimal depth is below budget
          [b], in grammar order; budgets past the end share the last array *)
}

type compiled = {
  start : string;
  index : int Names.t;
  productions : production array;
}

let compile (cfg : Cfg.t) =
  let depths = Cfg.min_depths cfg in
  (* the first production per name, as [Cfg.find] resolves it *)
  let index, firsts =
    List.fold_left
      (fun (index, firsts) (p : Cfg.production) ->
        if Names.mem p.lhs index then (index, firsts)
        else (Names.add p.lhs (List.length firsts) index, p :: firsts))
      (Names.empty, []) cfg.productions
  in
  (* an alternative of finite minimal depth references only defined
     nonterminals, so every [Ref] that can be drawn resolves *)
  let resolve alt =
    Array.of_list
      (List.map
         (function
           | Cfg.Lit text -> Text text
           | Cfg.Hook h -> Hook h
           | Cfg.Ref r -> Nt (Names.find r index))
         alt)
  in
  let production (p : Cfg.production) =
    let finite =
      List.filter_map
        (fun alt ->
          let d = Cfg.alternative_min_depth depths alt in
          if d = max_int then None else Some (d, resolve alt))
        p.alternatives
    in
    let deepest = List.fold_left (fun acc (d, _) -> max acc d) (-1) finite in
    let fits =
      Array.init (deepest + 2) (fun budget ->
          finite
          |> List.filter_map (fun (d, alt) -> if d < budget then Some alt else None)
          |> Array.of_list)
    in
    { name = p.lhs; fits }
  in
  {
    start = cfg.start;
    index;
    productions = Array.of_list (List.rev_map production firsts);
  }

let start c = c.start

let defines c name = Names.mem name c.index

let run ?(max_depth = 8) c ~hook ~rng start =
  let buf = Buffer.create 128 in
  let exception Gen_error of string in
  let rec derive budget p =
    let last = Array.length p.fits - 1 in
    let alts = p.fits.(if budget <= 0 then 0 else min budget last) in
    if Array.length alts = 0 then
      raise
        (Gen_error
           (Printf.sprintf "no alternative of '%s' fits depth budget %d" p.name budget));
    Array.iter
      (function
        | Text text -> Buffer.add_string buf text
        | Hook h -> Buffer.add_string buf (hook h)
        | Nt r -> derive (budget - 1) c.productions.(r))
      (O4a_util.Rng.choose_arr rng alts)
  in
  match Names.find_opt start c.index with
  | None -> Error (Printf.sprintf "unknown nonterminal '%s'" start)
  | Some i -> (
    match derive max_depth c.productions.(i) with
    | () -> Ok (Buffer.contents buf)
    | exception Gen_error msg -> Error msg)
