(* A full differential-testing campaign with triage — the workflow of §4.2:

   construct -> fuzz -> de-duplicate -> attribute -> reduce -> report.

   Also demonstrates cross-version differential testing: formulas using
   solver-specific features are compared across versions of the same solver,
   and the correcting-commit method locates when a historical bug was fixed.

   Run with:  dune exec examples/differential_campaign.exe *)

let () =
  let campaign = Once4all.Campaign.prepare ~seed:23 () in
  let zeal = campaign.Once4all.Campaign.zeal in
  let cove = campaign.Once4all.Campaign.cove in
  let seeds = Seeds.Corpus.filtered ~zeal ~cove () in
  let report =
    Orchestrator.run ~seed:29 ~budget:1500
      ~generators:campaign.Once4all.Campaign.generators ~seeds ()
  in

  Printf.printf "campaign: %d tests, %d findings, %d issues after de-duplication\n\n"
    report.Orchestrator.stats.Once4all.Fuzz.tests
    (List.length report.Orchestrator.stats.Once4all.Fuzz.findings)
    (List.length report.Orchestrator.clusters);

  (* triage report: one line per issue, with ground-truth attribution *)
  print_endline "triage:";
  List.iter
    (fun (c : Once4all.Dedup.cluster) ->
      let status =
        match Option.bind c.Once4all.Dedup.bug_id Solver.Bug_db.find with
        | Some spec -> Solver.Bug_db.status_to_string spec.Solver.Bug_db.status
        | None -> "unattributed"
      in
      Printf.printf "  %-13s %-14s x%-4d %s\n"
        (Solver.Bug_db.kind_to_string c.Once4all.Dedup.kind)
        c.Once4all.Dedup.theory c.Once4all.Dedup.count status)
    report.Orchestrator.clusters;

  (* pick a crash and reduce the reproducer before "reporting" it *)
  (match
     List.find_opt
       (fun (c : Once4all.Dedup.cluster) -> c.Once4all.Dedup.kind = Solver.Bug_db.Crash)
       report.Orchestrator.clusters
   with
  | None -> ()
  | Some crash -> (
    match Smtlib.Parser.parse_script crash.Once4all.Dedup.representative.Once4all.Dedup.source with
    | Error _ -> ()
    | Ok script ->
      let key_of s =
        match Once4all.Oracle.test ~zeal ~cove ~source:(Smtlib.Printer.script s) () with
        | { Once4all.Oracle.finding = Some f; _ } -> Some f.Once4all.Oracle.signature
        | _ -> None
      in
      let reduced, stats =
        Reduce_kit.Ddsmt.reduce
          ~still_triggers:(fun c -> key_of c = Some crash.Once4all.Dedup.key
                                    || key_of c = key_of script)
          script
      in
      Printf.printf "\nminimal reproducer (%d -> %d nodes) for\n  %s:\n%s\n"
        stats.Reduce_kit.Ddsmt.initial_size stats.final_size crash.Once4all.Dedup.key
        (Smtlib.Printer.script reduced)));

  (* historical-bug localization via correcting commits *)
  print_endline "\ncorrecting-commit demo (historical seq bug in Cove):";
  let formula =
    {|(declare-fun s () (Seq Int))
(declare-fun t () (Seq Int))
(assert (seq.prefixof t (seq.rev s)))
(assert (distinct s t))
(check-sat)|}
  in
  (match Smtlib.Parser.parse_script formula with
  | Error _ -> ()
  | Ok script ->
    let formula = Solver.Formula.of_script script in
    let crashes_at commit =
      let engine = Solver.Engine.make O4a_coverage.Coverage.Cove ~commit in
      match Solver.Runner.run engine formula with
      | Solver.Runner.R_crash _ -> true
      | _ -> false
    in
    (match
       Solver.Version.bisect_fix ~known:60 ~triggers:crashes_at
         Solver.Version.cove_history
     with
    | Some commit -> Printf.printf "  fixed at commit %d (binary search)\n" commit
    | None -> print_endline "  formula does not isolate a fixed bug on this seed"))
