(* Quickstart: the whole Once4All pipeline in ~40 lines.

   1. Build the generator library (one-time LLM investment, Algorithm 1).
   2. Fuzz the two bundled solvers with skeleton-guided mutation (Algorithm 2).
   3. Print the de-duplicated issues.

   Run with:  dune exec examples/quickstart.exe *)

let () =
  (* one-time generator construction against the trunk solvers *)
  let campaign = Once4all.Campaign.prepare ~seed:42 () in
  Printf.printf "generators ready: %s\n%!"
    (String.concat ", "
       (List.map
          (fun (g : Gensynth.Generator.t) -> g.Gensynth.Generator.theory.Theories.Theory.key)
          campaign.Once4all.Campaign.generators));

  (* seed corpus, with the paper's leakage filter *)
  let seeds =
    Seeds.Corpus.filtered ~zeal:campaign.Once4all.Campaign.zeal
      ~cove:campaign.Once4all.Campaign.cove ()
  in
  Printf.printf "seeds: %d formulas\n%!" (List.length seeds);

  (* a short fuzzing campaign *)
  let report =
    Orchestrator.run ~seed:7 ~budget:800
      ~generators:campaign.Once4all.Campaign.generators ~seeds ()
  in
  let stats = report.Orchestrator.stats in
  Printf.printf "ran %d tests; %d bug-triggering formulas, %d distinct issues\n\n"
    stats.Once4all.Fuzz.tests
    (List.length stats.Once4all.Fuzz.findings)
    (List.length report.Orchestrator.clusters);

  List.iter
    (fun (c : Once4all.Dedup.cluster) ->
      Printf.printf "- [%s] %s (seen %d times)\n"
        (Solver.Bug_db.kind_to_string c.Once4all.Dedup.kind)
        c.Once4all.Dedup.key c.Once4all.Dedup.count)
    report.Orchestrator.clusters;

  (* minimize one representative, like the paper's reporting workflow *)
  match report.Orchestrator.clusters with
  | [] -> print_endline "(no bugs this run — try a larger budget)"
  | first :: _ -> (
    match Smtlib.Parser.parse_script first.Once4all.Dedup.representative.Once4all.Dedup.source with
    | Error _ -> ()
    | Ok script ->
      let zeal = campaign.Once4all.Campaign.zeal
      and cove = campaign.Once4all.Campaign.cove in
      let key_of s =
        match Once4all.Oracle.test ~zeal ~cove ~source:(Smtlib.Printer.script s) () with
        | { Once4all.Oracle.finding = Some f; _ } -> Some f.Once4all.Oracle.signature
        | _ -> None
      in
      let target = key_of script in
      let reduced, rstats =
        Reduce_kit.Ddsmt.reduce ~still_triggers:(fun c -> key_of c = target) script
      in
      Printf.printf "\nreduced the first issue from %d to %d nodes:\n%s\n"
        rstats.Reduce_kit.Ddsmt.initial_size rstats.Reduce_kit.Ddsmt.final_size
        (Smtlib.Printer.script reduced))
