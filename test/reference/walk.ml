(* The plain depth-first walk [Solver.Search.solve] replaced, kept as the
   reference for its accounting: it evaluates every leaf, in order, with the
   tree-walking {!Eval}. *)

open Smtlib
module Domain = Solver.Domain
module Model = Solver.Model
module Search = Solver.Search

let sort_cov_key sort =
  match sort with
  | Sort.Bool -> "domain.bool"
  | Sort.Int -> "domain.int"
  | Sort.Real -> "domain.real"
  | Sort.String_sort -> "domain.string"
  | Sort.Reglan -> "domain.reglan"
  | Sort.Bitvec _ -> "domain.bitvec"
  | Sort.Finite_field _ -> "domain.ff"
  | Sort.Seq _ -> "domain.seq"
  | Sort.Set _ -> "domain.set"
  | Sort.Bag _ -> "domain.bag"
  | Sort.Array _ -> "domain.array"
  | Sort.Tuple _ -> "domain.tuple"
  | Sort.Datatype _ -> "domain.datatype"
  | Sort.Uninterpreted _ -> "domain.uninterpreted"

let solve ?(config = Domain.default_config) ?(max_steps = 200_000)
    ?(order = Search.Ascending) ?(cov = fun _ _ -> ()) ?(bounds = []) ?steps_used script =
  let decls = Script.declared_funs script in
  let defined_names =
    List.filter_map
      (function Command.Define_fun (n, _, _, _) -> Some n | _ -> None)
      script
  in
  let is_declared (d : Script.fun_decl) =
    (not (List.mem d.name defined_names))
    && not
         (List.exists
            (fun (dt : Command.datatype_decl) ->
              List.exists
                (fun (c : Command.constructor) ->
                  c.ctor_name = d.name
                  || List.exists (fun (s, _) -> s = d.name) c.selectors
                  || "is-" ^ c.ctor_name = d.name)
                dt.constructors)
            (Script.declared_datatypes script))
  in
  let datatypes = Script.declared_datatypes script in
  let consts =
    List.filter (fun (d : Script.fun_decl) -> d.arg_sorts = [] && is_declared d) decls
  in
  let funs =
    List.filter (fun (d : Script.fun_decl) -> d.arg_sorts <> [] && is_declared d) decls
  in
  let domain_of ?name sort =
    cov (sort_cov_key sort) 0;
    let values = Domain.enumerate ~config ~datatypes sort in
    let values =
      match Option.bind name (fun n -> List.assoc_opt n bounds) with
      | Some interval ->
        cov "propagate.bound" 0;
        Solver.Propagate.restrict_domain interval values
      | None -> values
    in
    match order with Search.Ascending -> values | Search.Descending -> List.rev values
  in
  let slots =
    List.map (fun (d : Script.fun_decl) -> (`Const, d.name, d.result_sort)) consts
    @ List.map (fun (d : Script.fun_decl) -> (`Fun, d.name, d.result_sort)) funs
  in
  let assertions = Script.assertions script in
  let ctx = Eval.make_ctx ~config ~max_steps ~cov script in
  let eval_under consts fun_defaults =
    ctx.Eval.fun_defaults <- fun_defaults;
    List.for_all (fun a -> Eval.eval_bool ctx consts a) assertions
  in
  cov "search.entry" 0;
  let rec assign acc_consts acc_funs = function
    | [] ->
      if eval_under acc_consts acc_funs then
        Some { Model.consts = acc_consts; fun_defaults = acc_funs }
      else None
    | (kind, name, sort) :: rest ->
      let rec try_values = function
        | [] -> None
        | v :: vs -> (
          let acc_consts', acc_funs' =
            match kind with
            | `Const -> ((name, v) :: acc_consts, acc_funs)
            | `Fun -> (acc_consts, (name, v) :: acc_funs)
          in
          match assign acc_consts' acc_funs' rest with
          | Some model -> Some model
          | None -> try_values vs)
      in
      let domain =
        match kind with `Const -> domain_of ~name sort | `Fun -> domain_of sort
      in
      try_values domain
  in
  let outcome =
    match assign [] [] slots with
    | Some model ->
      cov "search.sat" 0;
      Search.Sat model
    | None ->
      cov "search.unsat" 0;
      Search.Unsat
    | exception Eval.Out_of_fuel -> Search.Resource_limit
    | exception Eval.Eval_failure msg -> Search.Unknown msg
  in
  (match steps_used with Some r -> r := ctx.Eval.steps | None -> ());
  outcome


(* (key, line) -> count, counted calls included *)
let tally () =
  let counts = Hashtbl.create 64 in
  let add key line n =
    let c = Option.value ~default:0 (Hashtbl.find_opt counts (key, line)) in
    Hashtbl.replace counts (key, line) (c + n)
  in
  ((fun () -> List.sort compare (Hashtbl.fold (fun k c acc -> (k, c) :: acc) counts [])), add)

(* [Some why] when [Search.solve] and the reference walk differ on the
   outcome and its model, the fuel used, or any coverage count; the
   [domain.*] and [propagate.*] line-0 counts are the engines' decisions and
   propagations *)
let mismatch ~max_steps ~order ~bounds script =
  let expected_counts, add_expected = tally () in
  let expected_steps = ref (-1) in
  let expected =
    solve ~max_steps ~order ~bounds ~steps_used:expected_steps
      ~cov:(fun key line -> add_expected key line 1)
      script
  in
  let actual_counts, add_actual = tally () in
  let actual_steps = ref (-1) in
  let actual =
    Search.solve ~max_steps ~order ~bounds ~steps_used:actual_steps ~cov:add_actual script
  in
  if expected <> actual then Some "outcome or model"
  else if !expected_steps <> !actual_steps then
    Some (Printf.sprintf "steps %d, expected %d" !actual_steps !expected_steps)
  else if expected_counts () <> actual_counts () then Some "coverage counts"
  else None
