(* Once4All benchmark & reproduction harness.

   Usage:
     dune exec bench/main.exe                 -- everything (micro + all tables/figures)
     dune exec bench/main.exe -- micro        -- Bechamel micro-benchmarks only
     dune exec bench/main.exe -- table1|table2|fig5|fig6|fig7|fig8|fig9
     dune exec bench/main.exe -- validity|stats|ablation-adapt|ablation-iters
     dune exec bench/main.exe -- scaling [-o FILE]
     dune exec bench/main.exe -- throughput [-o FILE] [--jobs 1,4] [--budget N]
                                 [--shard-size N] [--seed N] [--check BENCH.json]
     dune exec bench/main.exe -- curves [-o DIR] [--jobs 1,4] [--budget N]
                                 [--shard-size N] [--seed N]

   One Bechamel Test.make per table/figure exercises that experiment's core
   pipeline step; the named modes print the reproduced rows/series (paper
   values quoted inline for comparison). `throughput` runs a pinned-seed
   profiled campaign and emits a schema-versioned BENCH json — the repo's
   committed performance-trajectory points (BENCH_0001.json, …). *)

module E = Experiments
module Json = O4a_telemetry.Json
module Profile = O4a_profile.Profile

let say fmt = Printf.printf (fmt ^^ "\n%!")

(* ------------------------------------------------------------------ *)
(* Options: `MODE... [-o FILE] [--jobs L] [--budget N] ...` — option/  *)
(* value pairs are split out, every bare word is a mode name           *)
(* ------------------------------------------------------------------ *)

type opts = {
  mutable out : string option;  (** [-o]/[--out]: artifact path *)
  mutable jobs : int list option;  (** [--jobs]: comma-separated levels *)
  mutable budget : int;
  mutable shard_size : int;
  mutable seed : int;
  mutable check : string option;  (** [--check]: baseline BENCH json *)
}

let parse_args args =
  let o =
    { out = None; jobs = None; budget = 600; shard_size = 75; seed = 43;
      check = None }
  in
  let usage flag =
    say "option %s needs a value" flag;
    exit 1
  in
  let int_of flag v =
    match int_of_string_opt v with
    | Some n -> n
    | None ->
      say "option %s needs an integer, got '%s'" flag v;
      exit 1
  in
  let rec go modes = function
    | [] -> (List.rev modes, o)
    | ("-o" | "--out") :: v :: rest ->
      o.out <- Some v;
      go modes rest
    | "--jobs" :: v :: rest ->
      o.jobs <-
        Some (List.map (int_of "--jobs") (String.split_on_char ',' v));
      go modes rest
    | "--budget" :: v :: rest ->
      o.budget <- int_of "--budget" v;
      go modes rest
    | "--shard-size" :: v :: rest ->
      o.shard_size <- int_of "--shard-size" v;
      go modes rest
    | "--seed" :: v :: rest ->
      o.seed <- int_of "--seed" v;
      go modes rest
    | "--check" :: v :: rest ->
      o.check <- Some v;
      go modes rest
    | [ (("-o" | "--out" | "--jobs" | "--budget" | "--shard-size" | "--seed"
         | "--check") as flag) ] ->
      usage flag
    | name :: rest -> go (name :: modes) rest
  in
  go [] args

(* mkdir -p for an artifact's parent, so default outputs can live under the
   (gitignored) bench/out/ without a setup step *)
let rec ensure_dir dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then (
    ensure_dir (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())

let ensure_parent path = ensure_dir (Filename.dirname path)

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
(* Scaling: sharded campaign throughput and determinism across --jobs  *)
(* ------------------------------------------------------------------ *)

let run_scaling opts =
  section "Scaling — sharded campaign throughput at jobs 1/2/4/8";
  let c = Lazy.force campaign in
  let pool = Lazy.force seeds in
  let budget = opts.budget and shard_size = opts.shard_size in
  let path = Option.value opts.out ~default:"bench/out/bench-scaling.jsonl" in
  ensure_parent path;
  let sink = O4a_telemetry.Sink.open_jsonl path in
  let emit name fields =
    O4a_telemetry.Sink.emit sink
      (O4a_telemetry.Event.make ~ts:(Unix.gettimeofday ()) ~name fields)
  in
  say "budget %d tests, shard size %d (%d shards), %d cores available" budget
    shard_size ((budget + shard_size - 1) / shard_size)
    (Domain.recommended_domain_count ());
  say "";
  say "%8s %10s %12s %10s %14s" "jobs" "time (s)" "tests/s" "speedup"
    "deterministic";
  let reference = ref None in
  let base_time = ref 1. in
  let violations = ref 0 in
  List.iter
    (fun jobs ->
      let t0 = Unix.gettimeofday () in
      let r =
        Orchestrator.run ~jobs ~shard_size ~seed:opts.seed ~budget
          ~generators:c.Once4all.Campaign.generators ~seeds:pool ()
      in
      let dt = Unix.gettimeofday () -. t0 in
      if jobs = 1 then base_time := dt;
      (* the cross-check: every jobs level must reproduce the jobs-1 bug set
         and the jobs-1 merged coverage exactly *)
      let key = (r.Orchestrator.found_bug_ids, r.Orchestrator.coverage) in
      let deterministic =
        match !reference with
        | None ->
          reference := Some key;
          true
        | Some k -> k = key
      in
      if not deterministic then incr violations;
      let tps = float_of_int budget /. dt in
      emit "bench.scaling"
        [
          ("jobs", O4a_telemetry.Json.Int jobs);
          ("budget", O4a_telemetry.Json.Int budget);
          ("shard_size", O4a_telemetry.Json.Int shard_size);
          ("elapsed_s", O4a_telemetry.Json.Float dt);
          ("tests_per_s", O4a_telemetry.Json.Float tps);
          ("speedup", O4a_telemetry.Json.Float (!base_time /. dt));
          ("deterministic", O4a_telemetry.Json.Bool deterministic);
          ( "distinct_bugs",
            O4a_telemetry.Json.Int (List.length r.Orchestrator.found_bug_ids) );
        ];
      say "%8d %10.2f %12.1f %10.2f %14s" jobs dt tps (!base_time /. dt)
        (if deterministic then "yes" else "NO"))
    (Option.value opts.jobs ~default:[ 1; 2; 4; 8 ]);
  O4a_telemetry.Sink.close sink;
  say "";
  say "JSONL written to %s (event: bench.scaling)" path;
  if !violations > 0 then (
    say "DETERMINISM VIOLATION: %d jobs level(s) diverged from jobs=1" !violations;
    exit 1)

(* ------------------------------------------------------------------ *)
(* Throughput — the committed performance trajectory (BENCH_NNNN.json) *)
(* ------------------------------------------------------------------ *)

(* Two-space-indented rendering so the committed BENCH json diffs line by
   line; scalar-only arrays stay inline. *)
let rec pretty ?(indent = 0) (j : Json.t) =
  let pad n = String.make n ' ' in
  let scalar = function Json.Obj _ | Json.List _ -> false | _ -> true in
  match j with
  | Json.Obj [] | Json.List [] -> Json.to_string j
  | Json.List items when List.for_all scalar items -> Json.to_string j
  | Json.Obj fields ->
    let body =
      List.map
        (fun (k, v) ->
          Printf.sprintf "%s%s: %s"
            (pad (indent + 2))
            (Json.to_string (Json.String k))
            (pretty ~indent:(indent + 2) v))
        fields
    in
    "{\n" ^ String.concat ",\n" body ^ "\n" ^ pad indent ^ "}"
  | Json.List items ->
    let body =
      List.map (fun v -> pad (indent + 2) ^ pretty ~indent:(indent + 2) v) items
    in
    "[\n" ^ String.concat ",\n" body ^ "\n" ^ pad indent ^ "]"
  | j -> Json.to_string j

let bench_schema_version = 1

(* Regression gate: compare a fresh throughput run against a committed
   BENCH json. The allocation and consult rates are deterministic (pinned
   seed), so they are enforced unconditionally; ticks/sec is a wall-clock
   measurement and only binds when the baseline was recorded on this same
   host. Fails (exit 1) on a >20% regression. *)
let check_against ~ticks_per_s ~alloc_bytes_per_tick ~consults_per_tick path =
  say "";
  say "regression gate vs %s (threshold: 20%%)" path;
  let src =
    try In_channel.with_open_text path In_channel.input_all
    with Sys_error e ->
      say "  cannot read baseline: %s" e;
      exit 1
  in
  match Json.parse src with
  | Error e ->
    say "  cannot parse baseline: %s" e;
    exit 1
  | Ok base ->
    let num k = Option.bind (Json.member k base) Json.to_float in
    let violations = ref 0 in
    let row name ~fresh ~base ~worse_when_higher =
      let pct = 100. *. (fresh -. base) /. base in
      let bad =
        if worse_when_higher then fresh > base *. 1.20
        else fresh < base /. 1.20
      in
      if bad then incr violations;
      say "  %-26s %14.2f %14.2f %+8.1f%%  %s" name base fresh pct
        (if bad then "FAIL" else "ok")
    in
    say "  %-26s %14s %14s %9s" "metric" "baseline" "fresh" "delta";
    (match num "alloc_bytes_per_tick" with
    | Some b -> row "alloc bytes/tick" ~fresh:alloc_bytes_per_tick ~base:b
                  ~worse_when_higher:true
    | None -> say "  (baseline lacks alloc_bytes_per_tick; skipped)");
    (match num "solver_consults_per_tick" with
    | Some b -> row "solver consults/tick" ~fresh:consults_per_tick ~base:b
                  ~worse_when_higher:true
    | None -> say "  (baseline lacks solver_consults_per_tick; skipped)");
    let base_host =
      Option.bind (Json.member "host" base) (fun h ->
          Option.bind (Json.member "hostname" h) Json.to_str)
    in
    let here = Unix.gethostname () in
    (match num "ticks_per_s" with
    | Some b when base_host = Some here ->
      row "ticks/sec" ~fresh:ticks_per_s ~base:b ~worse_when_higher:false
    | Some _ ->
      say "  ticks/sec: baseline recorded on host '%s', this is '%s'; \
           wall-clock not comparable, skipped"
        (Option.value base_host ~default:"?")
        here
    | None -> say "  (baseline lacks ticks_per_s; skipped)");
    if !violations > 0 then (
      say "BENCH REGRESSION: %d metric(s) regressed >20%% vs %s" !violations
        path;
      exit 1)

let run_throughput opts =
  section "Throughput — profiled pinned-seed campaign (BENCH json)";
  let c = Lazy.force campaign in
  let pool = Lazy.force seeds in
  let generators = c.Once4all.Campaign.generators in
  (* pull one-time lazy costs (solver tables, generator synthesis, seed
     filtering) out of the timed region *)
  Solver.Engine.prewarm ();
  let budget = opts.budget
  and shard_size = opts.shard_size
  and seed = opts.seed in
  let jobs_list =
    let l = Option.value opts.jobs ~default:[ 1; 4 ] in
    if List.mem 1 l then l else 1 :: l
  in
  let out = Option.value opts.out ~default:"bench/out/throughput.json" in
  say "pinned seed %d, budget %d tests, shard size %d; jobs: %s" seed budget
    shard_size
    (String.concat "," (List.map string_of_int jobs_list));
  say "";
  say "%8s %10s %12s %10s" "jobs" "time (s)" "ticks/s" "speedup";
  let base_time = ref 1. in
  let runs =
    List.map
      (fun jobs ->
        let sink = O4a_telemetry.Sink.memory () in
        let tel = O4a_telemetry.Telemetry.create ~sink () in
        let t0 = Unix.gettimeofday () in
        let r =
          Orchestrator.run ~jobs ~shard_size ~seed ~budget ~telemetry:tel
            ~profiling:true ~generators ~seeds:pool ()
        in
        let dt = Unix.gettimeofday () -. t0 in
        if jobs = 1 then base_time := dt;
        say "%8d %10.2f %12.1f %10.2f" jobs dt
          (float_of_int budget /. dt)
          (!base_time /. dt);
        (jobs, dt, r, O4a_telemetry.Sink.events sink))
      jobs_list
  in
  let _, dt1, r1, events1 =
    List.find (fun (jobs, _, _, _) -> jobs = 1) runs
  in
  let profile = r1.Orchestrator.profile in
  (* determinism cross-check: every jobs level must reproduce the jobs-1
     report AND the jobs-1 deterministic profile projection *)
  let ref_strip = Profile.strip_timing profile in
  let ref_key = (r1.Orchestrator.found_bug_ids, r1.Orchestrator.coverage) in
  let deterministic =
    List.for_all
      (fun (_, _, r, _) ->
        Profile.strip_timing r.Orchestrator.profile = ref_strip
        && (r.Orchestrator.found_bug_ids, r.Orchestrator.coverage) = ref_key)
      runs
  in
  say "";
  say "deterministic across jobs levels: %s"
    (if deterministic then "yes" else "NO");
  let ticks = max 1 profile.Profile.ticks in
  let word_bytes = Sys.word_size / 8 in
  let per_tick n = float_of_int n /. float_of_int ticks in
  let ticks_per_s = float_of_int ticks /. dt1 in
  let alloc_bytes_per_tick =
    per_tick (Profile.total_alloc_words profile * word_bytes)
  in
  let consults_per_tick = per_tick (Profile.total_consults profile) in
  (* per-stage wall percentiles from the jobs-1 span events; self-time,
     allocation, and consult rates from the merged profile *)
  let span_ms_by_stage =
    events1
    |> List.filter_map (fun (e : O4a_telemetry.Event.t) ->
           if e.O4a_telemetry.Event.name <> "span" then None
           else
             match
               ( O4a_telemetry.Event.field "stage" e,
                 Option.bind (O4a_telemetry.Event.field "dur_us" e)
                   Json.to_float )
             with
             | Some (Json.String s), Some d -> Some (s, d /. 1000.)
             | _ -> None)
    |> O4a_util.Listx.group_by fst
    |> List.map (fun (stage, group) -> (stage, List.map snd group))
  in
  say "";
  say "per-stage (jobs 1):  %-12s %8s %9s %9s %9s %12s %9s" "stage" "calls"
    "p50 ms" "p90 ms" "p99 ms" "B/tick" "cons/tick";
  let stage_rows =
    List.map
      (fun (e : Profile.entry) ->
        let ms =
          Option.value ~default:[]
            (List.assoc_opt e.Profile.stage span_ms_by_stage)
        in
        let pct q = if ms = [] then 0. else O4a_util.Stats.percentile q ms in
        let bytes_per_tick =
          per_tick (e.Profile.alloc_words * word_bytes)
        in
        say "  %-30s %8d %9.3f %9.3f %9.3f %12.0f %9.2f"
          (Profile.display_name e.Profile.stage)
          e.Profile.calls (pct 50.) (pct 90.) (pct 99.) bytes_per_tick
          (per_tick e.Profile.consults);
        Json.Obj
          [
            ("stage", Json.String (Profile.display_name e.Profile.stage));
            ("calls", Json.Int e.Profile.calls);
            ("wall_p50_ms", Json.Float (pct 50.));
            ("wall_p90_ms", Json.Float (pct 90.));
            ("wall_p99_ms", Json.Float (pct 99.));
            ( "self_wall_ms",
              Json.Float (float_of_int e.Profile.wall_ns /. 1e6) );
            ("alloc_bytes_per_tick", Json.Float bytes_per_tick);
            ("consults_per_tick", Json.Float (per_tick e.Profile.consults));
            ("fuel_per_tick", Json.Float (per_tick e.Profile.fuel));
          ])
      profile.Profile.stages
  in
  let json =
    Json.Obj
      [
        ("schema_version", Json.Int bench_schema_version);
        ("kind", Json.String "once4all.bench.throughput");
        ( "host",
          Json.Obj
            [
              ("hostname", Json.String (Unix.gethostname ()));
              ("ocaml", Json.String Sys.ocaml_version);
              ("word_size", Json.Int Sys.word_size);
              ("cores", Json.Int (Domain.recommended_domain_count ()));
            ] );
        ( "params",
          Json.Obj
            [
              ("seed", Json.Int seed);
              ("budget", Json.Int budget);
              ("shard_size", Json.Int shard_size);
              ("jobs", Json.List (List.map (fun j -> Json.Int j) jobs_list));
            ] );
        ( "runs",
          Json.List
            (List.map
               (fun (jobs, dt, _, _) ->
                 Json.Obj
                   [
                     ("jobs", Json.Int jobs);
                     ("elapsed_s", Json.Float dt);
                     ("ticks_per_s", Json.Float (float_of_int budget /. dt));
                   ])
               runs) );
        ("ticks", Json.Int ticks);
        ("ticks_per_s", Json.Float ticks_per_s);
        ("alloc_bytes_per_tick", Json.Float alloc_bytes_per_tick);
        ("solver_consults_per_tick", Json.Float consults_per_tick);
        ("deterministic", Json.Bool deterministic);
        ("stages", Json.List stage_rows);
      ]
  in
  ensure_parent out;
  Out_channel.with_open_text out (fun oc ->
      output_string oc (pretty json);
      output_char oc '\n');
  say "";
  say "end-to-end: %.1f ticks/s  %.0f B/tick  %.2f consults/tick" ticks_per_s
    alloc_bytes_per_tick consults_per_tick;
  say "BENCH json written to %s" out;
  if not deterministic then (
    say "DETERMINISM VIOLATION: a jobs level diverged from jobs=1";
    exit 1);
  Option.iter
    (check_against ~ticks_per_s ~alloc_bytes_per_tick ~consults_per_tick)
    opts.check

(* ------------------------------------------------------------------ *)
(* Curves — the campaign analytics series as a committed-able artifact *)
(* ------------------------------------------------------------------ *)

(* Run a pinned-seed campaign at each jobs level, require the analytics
   series to be byte-identical across levels, then write the jobs-1 curves
   (series.csv / analytics.json / metrics.prom) under the artifact dir —
   the data behind the paper's coverage-growth figures, produced by the
   deterministic in-campaign sampler instead of a bespoke experiment. *)
let run_curves opts =
  section "Curves — deterministic campaign analytics series";
  let module Analytics = O4a_analytics.Analytics in
  let c = Lazy.force campaign in
  let pool = Lazy.force seeds in
  let generators = c.Once4all.Campaign.generators in
  let budget = opts.budget and shard_size = opts.shard_size in
  let jobs_list =
    let l = Option.value opts.jobs ~default:[ 1; 4 ] in
    if List.mem 1 l then l else 1 :: l
  in
  let dir = Option.value opts.out ~default:"bench/out/curves" in
  say "pinned seed %d, budget %d tests, shard size %d; jobs: %s" opts.seed
    budget shard_size
    (String.concat "," (List.map string_of_int jobs_list));
  let runs =
    List.map
      (fun jobs ->
        let r =
          Orchestrator.run ~jobs ~shard_size ~seed:opts.seed ~budget
            ~generators ~seeds:pool ()
        in
        (jobs, r.Orchestrator.analytics, r.Orchestrator.plateaus))
      jobs_list
  in
  let _, a1, plateaus = List.hd runs in
  let csv = Analytics.to_csv a1 in
  let divergent =
    List.filter (fun (_, a, _) -> Analytics.to_csv a <> csv) runs
  in
  say "";
  say "series byte-identical across jobs levels: %s"
    (if divergent = [] then "yes" else "NO");
  let pts = Analytics.series a1 in
  (match List.rev pts with
  | [] -> say "(no samples: campaign too small for one shard?)"
  | last :: _ ->
    say "%d sample(s): coverage |%s| final %d   clusters |%s| final %d"
      (List.length pts)
      (Analytics.sparkline
         (List.map (fun p -> float_of_int p.Analytics.p_cum_cov) pts))
      last.Analytics.p_cum_cov
      (Analytics.sparkline
         (List.map (fun p -> float_of_int p.Analytics.p_cum_clusters) pts))
      last.Analytics.p_cum_clusters);
  (match plateaus with
  | [] -> say "no plateau: curves still growing at the end"
  | pls ->
    List.iter
      (fun (pl : Analytics.plateau) ->
        say "%s plateaued at tick %d (flat at %d across a %d-shard window)"
          pl.Analytics.pl_series pl.Analytics.pl_tick pl.Analytics.pl_value
          pl.Analytics.pl_window)
      pls);
  ensure_dir dir;
  let write name contents =
    let path = Filename.concat dir name in
    Out_channel.with_open_text path (fun oc -> output_string oc contents);
    say "wrote %s" path
  in
  write "series.csv" csv;
  write "analytics.json" (Json.to_string (Analytics.codec.enc a1) ^ "\n");
  write "metrics.prom" (Analytics.to_prometheus a1);
  if divergent <> [] then (
    List.iter
      (fun (jobs, _, _) ->
        say "DETERMINISM VIOLATION: jobs=%d series diverged from jobs=1" jobs)
      divergent;
    exit 1)

(* ------------------------------------------------------------------ *)

let all_modes =
  let plain f _opts = f () in
  [
    ("micro", plain run_micro);
    ("table1", plain run_table1);
    ("table2", plain run_table2);
    ("stats", plain run_stats);
    ("fig5", plain run_fig5);
    ("fig6", plain run_fig6);
    ("fig7", plain run_fig7);
    ("fig8", plain run_fig8);
    ("fig9", plain run_fig9);
    ("validity", plain run_validity);
    ("ablation-adapt", plain run_ablation_adapt);
    ("ablation-iters", plain run_ablation_iters);
    ("ablation-mixed", plain run_ablation_mixed);
    ("ablation-schedule", plain run_ablation_schedule);
    ("scaling", run_scaling);
    ("throughput", run_throughput);
    ("curves", run_curves);
  ]

let () =
  let names, opts = parse_args (List.tl (Array.to_list Sys.argv)) in
  match names with
  | [] ->
    say "Once4All reproduction bench — running every table and figure.";
    say "(pass one of: %s to run a single artifact)"
      (String.concat " " (List.map fst all_modes));
    List.iter (fun (_, f) -> f opts) all_modes
  | names ->
    List.iter
      (fun name ->
        match List.assoc_opt name all_modes with
        | Some f -> f opts
        | None ->
          say "unknown mode '%s' (expected one of: %s)" name
            (String.concat " " (List.map fst all_modes));
          exit 1)
      names
