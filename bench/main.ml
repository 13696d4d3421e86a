(* Once4All benchmark & reproduction harness.

   Usage:
     dune exec bench/main.exe                 -- everything (micro + all tables/figures)
     dune exec bench/main.exe -- micro        -- Bechamel micro-benchmarks only
     dune exec bench/main.exe -- table1|table2|fig5|fig6|fig7|fig8|fig9
     dune exec bench/main.exe -- validity|stats|ablation-adapt|ablation-iters

   One Bechamel Test.make per table/figure exercises that experiment's core
   pipeline step; the named modes print the reproduced rows/series (paper
   values quoted inline for comparison). Campaign throughput is measured by
   the repository benchmark, perfbench/. *)

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
(* Bechamel micro-benchmarks: the core pipeline step behind each       *)
(* table/figure                                                        *)
(* ------------------------------------------------------------------ *)

let micro_tests () =
  let open Bechamel in
  let c = Lazy.force campaign in
  let pool = Lazy.force seeds in
  let zeal = c.Once4all.Campaign.zeal and cove = c.Once4all.Campaign.cove in
  let generators = c.Once4all.Campaign.generators in
  let fig1_src =
    "(declare-fun s () (Seq Int))\n(assert (exists ((f Int)) (distinct (seq.len (seq.rev s)) f)))\n(check-sat)"
  in
  let seed_script = List.hd pool in
  let rng = O4a_util.Rng.create 1 in
  [
    (* Table 1/2: the campaign's inner loop — one mutate+test iteration *)
    Test.make ~name:"table1+2/fuzz-iteration"
      (Staged.stage (fun () ->
           let skeleton, holes = Once4all.Skeleton.skeletonize ~rng seed_script in
           let filled =
             if holes = 0 then Once4all.Synthesize.direct ~rng ~generators ~terms:2
             else Once4all.Synthesize.fill ~rng ~generators ~skeleton ~holes ()
           in
           ignore
             (Once4all.Oracle.test ~max_steps:30_000 ~zeal ~cove
                ~source:filled.Once4all.Synthesize.source ())));
    (* Figure 5: lifespan probe — replay a trigger against one release *)
    Test.make ~name:"fig5/release-replay"
      (Staged.stage (fun () ->
           let engine = Solver.Engine.zeal ~commit:10 () in
           ignore (Solver.Runner.run_source ~max_steps:30_000 engine fig1_src)));
    (* Figures 6/8: one coverage-measured solver execution *)
    Test.make ~name:"fig6+8/solve-with-coverage"
      (Staged.stage (fun () ->
           ignore (Solver.Runner.run ~max_steps:30_000 cove seed_script)));
    (* Figures 7/9: one bisection step of the correcting-commit method *)
    Test.make ~name:"fig7+9/bisect-probe"
      (Staged.stage (fun () ->
           let engine = Solver.Engine.cove ~commit:60 () in
           ignore (Solver.Runner.run ~max_steps:30_000 engine seed_script)));
    (* 5.1 validity: one generator emission + front-end validation *)
    Test.make ~name:"validity/generate+parse-check"
      (Staged.stage (fun () ->
           let g = O4a_util.Rng.choose rng generators in
           match Gensynth.Generator.generate g ~rng with
           | e ->
             ignore
               (Solver.Engine.parse_check cove (Gensynth.Generator.render_script [ e ]))
           | exception Failure _ -> ()));
    (* telemetry overhead: the disabled (default) hook must cost only a
       branch; the null-sink live handle shows the instrumented price *)
    Test.make ~name:"telemetry/span-disabled"
      (Staged.stage (fun () ->
           O4a_telemetry.Telemetry.with_span O4a_telemetry.Telemetry.disabled
             "bench" (fun () -> ())));
    Test.make ~name:"telemetry/span-null-sink"
      (Staged.stage
         (let tel = O4a_telemetry.Telemetry.create () in
          fun () -> O4a_telemetry.Telemetry.with_span tel "bench" (fun () -> ())));
    Test.make ~name:"telemetry/incr-disabled"
      (Staged.stage (fun () ->
           O4a_telemetry.Telemetry.incr O4a_telemetry.Telemetry.disabled
             "bench.counter"));
    Test.make ~name:"telemetry/incr-null-sink"
      (Staged.stage
         (let tel = O4a_telemetry.Telemetry.create () in
          fun () -> O4a_telemetry.Telemetry.incr tel "bench.counter"));
    (* substrate benchmarks *)
    Test.make ~name:"substrate/parse-script"
      (Staged.stage (fun () -> ignore (Smtlib.Parser.parse_script fig1_src)));
    Test.make ~name:"substrate/typecheck-seed"
      (Staged.stage (fun () -> ignore (Theories.Typecheck.check_script seed_script)));
    Test.make ~name:"substrate/rewrite-seed"
      (Staged.stage (fun () ->
           List.iter
             (fun a ->
               ignore
                 (Solver.Rewrite.simplify ~rules:Solver.Rewrite.zeal_rules
                    ~fired:(fun _ -> ())
                    a))
             (Smtlib.Script.assertions seed_script)));
  ]

let run_micro () =
  section "Bechamel micro-benchmarks (one per table/figure pipeline step)";
  let open Bechamel in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  let tests = Test.make_grouped ~name:"once4all" (micro_tests ()) in
  let raw = Benchmark.all cfg instances tests in
  let results = List.map (fun instance -> Analyze.all ols instance raw) instances in
  let merged = Analyze.merge ols instances results in
  let clock = Hashtbl.find merged (Measure.label Toolkit.Instance.monotonic_clock) in
  say "%-45s %15s" "benchmark" "ns/run";
  say "%s" (String.make 62 '-');
  Hashtbl.fold (fun name ols_result acc -> (name, ols_result) :: acc) clock []
  |> List.sort compare
  |> List.iter (fun (name, ols_result) ->
         match Analyze.OLS.estimates ols_result with
         | Some (est :: _) -> say "%-45s %15.0f" name est
         | _ -> say "%-45s %15s" name "n/a")

(* ------------------------------------------------------------------ *)

let all_modes =
  [
    ("micro", run_micro);
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
