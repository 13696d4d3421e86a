(* The list-walk derivation [Grammar_kit.Generate.run] replaced, kept as the
   reference for its draws: it reruns the min-depth fixpoint on every call,
   looks each nonterminal up by name and filters its alternatives by the
   remaining budget at every step. *)

module Cfg = Grammar_kit.Cfg

let sentence ?(max_depth = 8) ~cfg ~hook ~rng start =
  let depths = Cfg.min_depths cfg in
  let buf = Buffer.create 128 in
  let exception Gen_error of string in
  let rec derive budget name =
    match Cfg.find cfg name with
    | None -> raise (Gen_error (Printf.sprintf "unknown nonterminal '%s'" name))
    | Some production ->
      let feasible =
        List.filter
          (fun alt -> Cfg.alternative_min_depth depths alt < budget)
          production.Cfg.alternatives
      in
      (match feasible with
      | [] ->
        raise
          (Gen_error
             (Printf.sprintf "no alternative of '%s' fits depth budget %d" name budget))
      | alts ->
        let alt = O4a_util.Rng.choose rng alts in
        List.iter
          (function
            | Cfg.Lit text -> Buffer.add_string buf text
            | Cfg.Hook h -> Buffer.add_string buf (hook h)
            | Cfg.Ref r -> derive (budget - 1) r)
          alt)
  in
  match derive max_depth start with
  | () -> Ok (Buffer.contents buf)
  | exception Gen_error msg -> Error msg
