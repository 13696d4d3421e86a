(* The null campaign: the CLI's default campaign on bug-free solvers.

     dune exec test/null/null_campaign.exe -- SEED TICKS

   Prepares the default job spec at seed SEED (the campaign `once4all fuzz
   --seed SEED` runs), executes its first TICKS ticks as one shard on
   [Solver.Engine.pure] engines and prints every finding. With no bug
   specimen armed, a finding is a false positive of the substrate: a
   cross-version pairing that kept a release's bugs, or an evaluator that
   answers differently under the two solvers. Exits 1 when there is one. *)

module Coverage = O4a_coverage.Coverage
module Jobspec = O4a_server.Jobspec
module Dedup = Once4all.Dedup
module Oracle = Once4all.Oracle

let () =
  let seed, ticks =
    match Sys.argv with
    | [| _; seed; ticks |] -> (
      match (int_of_string_opt seed, int_of_string_opt ticks) with
      | Some seed, Some ticks when ticks >= 1 -> (seed, ticks)
      | _ ->
        prerr_endline "null_campaign: SEED and TICKS must be integers, TICKS >= 1";
        exit 2)
    | _ ->
      prerr_endline "usage: null_campaign SEED TICKS";
      exit 2
  in
  let spec =
    { (Jobspec.default ~name:"null") with Jobspec.seed; budget = ticks; shard_size = ticks }
  in
  let env = Jobspec.env spec (Jobspec.prepare spec) in
  let shard = List.hd (Orchestrator.Shard.plan ~budget:ticks ~shard_size:ticks) in
  let findings =
    match
      Orchestrator.exec_shard ~env ~worker_id:0
        ~zeal:(Solver.Engine.pure Coverage.Zeal)
        ~cove:(Solver.Engine.pure Coverage.Cove) shard
    with
    | Orchestrator.Merged (p, _, _) ->
      p.Orchestrator.merged.Orchestrator.Checkpoint.m_result
        .Orchestrator.Checkpoint.findings
    | Orchestrator.Quarantined _ ->
      prerr_endline "null_campaign: the shard was quarantined";
      exit 2
    | Orchestrator.Failed msg ->
      prerr_endline ("null_campaign: the shard failed: " ^ msg);
      exit 2
  in
  List.iter
    (fun (f : Dedup.found) ->
      let o = f.Dedup.finding in
      Printf.printf "false finding from %s (%s, %s): %s\n%s\n" o.Oracle.solver_name
        o.Oracle.theory
        (Solver.Bug_db.kind_to_string o.Oracle.kind)
        o.Oracle.signature f.Dedup.source)
    findings;
  Printf.printf "null campaign, seed %d, %d ticks: %d findings\n" seed ticks
    (List.length findings);
  if findings <> [] then exit 1
