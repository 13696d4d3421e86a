(* Once4All reproduction harness.

   Usage:
     dune exec bench/main.exe                 -- every table and figure
     dune exec bench/main.exe -- table1|table2|stats|fig5|fig6|fig7|fig8|fig9
     dune exec bench/main.exe -- validity|ablation-adapt|ablation-iters
     dune exec bench/main.exe -- ablation-mixed|ablation-schedule

   Each mode prints the reproduced rows/series (paper values quoted inline
   for comparison). Campaign throughput and the cost of each pipeline step,
   layer by layer, are measured by the repository benchmark, perfbench/. *)

module E = Experiments

let say fmt = Printf.printf (fmt ^^ "\n%!")

let section title =
  say "";
  say "%s" (String.make 78 '#');
  say "## %s" title;
  say "%s" (String.make 78 '#')

(* ------------------------------------------------------------------ *)
(* Shared state (built lazily so single-figure runs stay cheap)        *)
(* ------------------------------------------------------------------ *)

let campaign = lazy (Once4all.Campaign.prepare ~seed:42 ())

let seeds =
  lazy
    (let c = Lazy.force campaign in
     Seeds.Corpus.filtered ~zeal:c.Once4all.Campaign.zeal
       ~cove:c.Once4all.Campaign.cove ())

let rq2_fuzzers =
  lazy
    (let c = Lazy.force campaign in
     Baselines.Registry.once4all c
     :: Baselines.Registry.baselines ~client:c.Once4all.Campaign.client)

let variants = lazy (E.Variants.build ~seed:42 ())

let variant_fuzzers =
  lazy (List.map (fun v -> v.E.Variants.fuzzer) (Lazy.force variants))

let bug_tables = lazy (E.Bug_tables.run ~seed:42 ~budget:10000 ())

(* ------------------------------------------------------------------ *)
(* Table / figure reproductions                                        *)
(* ------------------------------------------------------------------ *)

let run_table1 () =
  section "Table 1 — status of bugs found (RQ1)";
  let r = Lazy.force bug_tables in
  say "%s" r.E.Bug_tables.table1

let run_table2 () =
  section "Table 2 — bug types among reported bugs (RQ1)";
  let r = Lazy.force bug_tables in
  say "%s" r.E.Bug_tables.table2

let run_stats () =
  section "Campaign statistics (paper 4.2)";
  let r = Lazy.force bug_tables in
  say "%s" r.E.Bug_tables.stats_text

let run_fig5 () =
  section "Figure 5 — bug lifespan across release versions";
  let r = Lazy.force bug_tables in
  let lifespan = E.Lifespan.run ~found:r.E.Bug_tables.found in
  say "%s" lifespan.E.Lifespan.text;
  say "";
  say "(paper: most bugs affect only trunk; a small long-latent tail reaches";
  say " back to the oldest release — three Z3 bugs older than six years)"

let run_fig6 () =
  section "Figure 6 — coverage growth, Once4All vs baselines (24 ticks)";
  let r =
    E.Coverage_growth.run ~seed:2024 ~ticks:24 ~per_tick:100
      ~title:"Figure 6: line/function coverage growth over a 24-hour-equivalent run"
      ~fuzzers:(Lazy.force rq2_fuzzers) ~seeds:(Lazy.force seeds) ()
  in
  say "%s" r.E.Coverage_growth.text;
  say "";
  say "%s" (E.Coverage_growth.exclusive_regions r);
  say "";
  say "(paper shape: Once4All leads at every interval on both solvers, larger";
  say " margin on cvc5; only Once4All reaches src/theory/sets and friends)"

let run_fig7 () =
  section "Figure 7 — unique known bugs per fuzzer (correcting-commit method)";
  let r =
    E.Unique_bugs.run ~seed:77 ~budget:1500 ~max_bisects:40
      ~title:"Figure 7: unique known bugs on the latest releases"
      ~fuzzers:(Lazy.force rq2_fuzzers) ~seeds:(Lazy.force seeds) ()
  in
  say "%s" r.E.Unique_bugs.text;
  say "";
  say "(paper shape: Once4All finds the most unique bugs; no baseline exceeds 3)"

let run_fig8 () =
  section "Figure 8 — coverage growth for Once4All variants (RQ3)";
  let r =
    E.Coverage_growth.run ~seed:2025 ~ticks:24 ~per_tick:100
      ~title:"Figure 8: coverage growth, Once4All vs w/oS vs Gemini vs Claude"
      ~fuzzers:(Lazy.force variant_fuzzers) ~seeds:(Lazy.force seeds) ()
  in
  say "%s" r.E.Coverage_growth.text;
  say "";
  say "(paper shape: w/oS clearly degrades; the LLM-profile variants track the";
  say " original closely)"

let run_fig9 () =
  section "Figure 9 — unique known bugs for Once4All variants (RQ3)";
  let r =
    E.Unique_bugs.run ~seed:78 ~budget:1500 ~max_bisects:40
      ~title:"Figure 9: unique known bugs, Once4All variants"
      ~fuzzers:(Lazy.force variant_fuzzers) ~seeds:(Lazy.force seeds) ()
  in
  say "%s" r.E.Unique_bugs.text;
  say "";
  say "(paper shape: w/oS detects a subset; LLM-profile variants are comparable)"

let run_validity () =
  section "5.1 — validity before/after self-correction, across LLM profiles";
  List.iter
    (fun r -> say "%s\n" r.E.Validity.text)
    (E.Validity.run_all_profiles ~seed:42 ())

let run_ablation_adapt () =
  section "Ablation A1 — sort-aware variable adaptation";
  let r = E.Ablations.adaptation ~seed:42 ~budget:1500 () in
  say "%s" r.E.Ablations.text

let run_ablation_mixed () =
  section "Extension A3 — mixed-sort holes (paper 5.3 future work)";
  let r = E.Ablations.mixed_sorts ~seed:42 ~budget:1500 () in
  say "%s" r.E.Ablations.text

let run_ablation_schedule () =
  section "Extension A4 — coverage-guided generator scheduling (paper 5.3)";
  let r = E.Ablations.scheduling ~seed:42 ~budget:1500 () in
  say "%s" r.E.Ablations.text

let run_ablation_iters () =
  section "Ablation A2 — self-correction iteration budget";
  let r = E.Ablations.iterations ~seed:42 () in
  say "%s" r.E.Ablations.text

(* ------------------------------------------------------------------ *)

let all_modes =
  [
    ("table1", run_table1);
    ("table2", run_table2);
    ("stats", run_stats);
    ("fig5", run_fig5);
    ("fig6", run_fig6);
    ("fig7", run_fig7);
    ("fig8", run_fig8);
    ("fig9", run_fig9);
    ("validity", run_validity);
    ("ablation-adapt", run_ablation_adapt);
    ("ablation-iters", run_ablation_iters);
    ("ablation-mixed", run_ablation_mixed);
    ("ablation-schedule", run_ablation_schedule);
  ]

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [] ->
    say "Once4All reproduction bench — running every table and figure.";
    say "(pass one of: %s to run a single artifact)"
      (String.concat " " (List.map fst all_modes));
    List.iter (fun (_, f) -> f ()) all_modes
  | names ->
    List.iter
      (fun name ->
        match List.assoc_opt name all_modes with
        | Some f -> f ()
        | None ->
          say "unknown mode '%s' (expected one of: %s)" name
            (String.concat " " (List.map fst all_modes));
          exit 1)
      names
