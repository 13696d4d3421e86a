(* once4all_cli — the Once4All fuzzing tool.

   Subcommands:
     construct   run Algorithm 1 (generator construction + self-correction)
     fuzz        run a differential fuzzing campaign (Algorithm 2),
                 sharded over --jobs domains with deterministic merge
     resume      continue an interrupted campaign from its --checkpoint
     serve       run the campaign server daemon (multiplexes many campaigns
                 over one worker pool, streaming events to subscribers)
     submit/jobs/watch/pause/resume-job/cancel/metrics/shutdown
                 talk to a running server over its socket
     checkpoint  inspect a checkpoint file (checkpoint info FILE)
     analyze     render a checkpoint's campaign analytics (sparklines,
                 plateau verdict, yield table; --csv/--json/--export)
     stats       summarize a --telemetry JSONL event log
     replay      re-run the differential oracle on a formula (repro bundles)
     trace       inspect provenance traces (trace show <id>)
     triage      cluster the repro bundles under a --trace-dir directory
     reduce      delta-debug a bug-triggering .smt2 file
     lineup      list the comparison fuzzers and variants *)

open Cmdliner
module Telemetry = O4a_telemetry.Telemetry
module Sink = O4a_telemetry.Sink
module Event = O4a_telemetry.Event
module Json = O4a_telemetry.Json
module Trace = O4a_trace.Trace
module Bundle = O4a_trace.Bundle
module Health = O4a_health.Health
module Analytics = O4a_analytics.Analytics
module Jobspec = O4a_server.Jobspec
module Render = O4a_server.Render
module Protocol = O4a_server.Protocol
module Daemon = O4a_server.Daemon
module Client = O4a_server.Client
module Addr = O4a_server.Addr
module Worker = O4a_server.Worker

let setup_logs verbose =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

let profile_of_name name =
  match Llm_sim.Profile.find name with
  | Some p -> p
  | None ->
    Printf.eprintf "unknown profile '%s', using gpt-4\n" name;
    Llm_sim.Profile.gpt4

(* ---------------- construct ---------------- *)

let construct seed profile_name verbose =
  setup_logs verbose;
  let profile = profile_of_name profile_name in
  let client = Llm_sim.Client.create ~seed profile in
  let solvers = [ Solver.Engine.zeal (); Solver.Engine.cove () ] in
  Printf.printf "Constructing generators with %s (seed %d)...\n\n"
    profile.Llm_sim.Profile.name seed;
  List.iter
    (fun theory ->
      let gen, report = Gensynth.Synthesis.construct ~client ~solvers theory in
      Printf.printf "%-14s initial %2d/%d  final %2d/%d  iterations %d%s\n"
        report.Gensynth.Synthesis.theory_key report.initial_valid report.sample_num
        report.final_valid report.sample_num report.iterations
        (if Gensynth.Generator.is_clean gen then "" else "  (residual defects)");
      let rng = O4a_util.Rng.create (seed * 31) in
      match Gensynth.Generator.generate gen ~rng with
      | e ->
        List.iter
          (fun d -> Logs.debug (fun m -> m "  %s: %s" report.theory_key d))
          e.Gensynth.Generator.decls;
        Logs.debug (fun m -> m "  %s term: %s" report.theory_key e.Gensynth.Generator.term)
      | exception Failure msg ->
        Logs.debug (fun m -> m "  %s sample failed: %s" report.theory_key msg))
    Theories.Theory.all;
  Printf.printf "\nLLM usage: %d calls, %d tokens (one-time investment)\n"
    (Llm_sim.Client.call_count client)
    (Llm_sim.Client.token_count client);
  0

(* ---------------- fuzz / resume ---------------- *)

let make_telemetry telemetry_path =
  match telemetry_path with
  | None -> Ok Telemetry.disabled
  | Some path -> (
    try Ok (Telemetry.create ~sink:(Sink.open_jsonl path) ())
    with Sys_error msg -> Error msg)

(* The campaign summary itself is rendered by {!O4a_server.Render} — one
   definition shared with the server's per-job report.txt, which is what
   keeps the two byte-identical. *)

let close_telemetry tel telemetry_path =
  match telemetry_path with
  | None -> ()
  | Some path ->
    Telemetry.flush tel;
    Printf.printf "\ntelemetry written to %s\n" path

(* The live progress HUD: a stderr-only view of the merge owner's progress
   snapshots. In-place rewrite when stderr is a TTY, one plain line per merged
   shard otherwise (so piped/logged runs stay readable). Strictly an observer:
   it writes nothing to stdout and emits no telemetry, so a --progress run's
   report and JSONL log are byte-identical to a run without the flag. *)
let make_hud () =
  let tty = try Unix.isatty Unix.stderr with Unix.Unix_error _ -> false in
  let painted = ref false in
  let paint (p : O4a_profile.Hud.progress) =
    let line = O4a_profile.Hud.render p in
    painted := true;
    if tty then Printf.eprintf "\r\027[K%s%!" line
    else Printf.eprintf "%s\n%!" line
  in
  let finish () = if tty && !painted then Printf.eprintf "\n%!" in
  (paint, finish)

(* A campaign run is driven entirely by its {!O4a_server.Jobspec} — the same
   record the server accepts over its socket. [fuzz] builds one from flags,
   [resume] rebuilds one from the checkpoint's provenance, and both call
   here; the campaign comes from {!Jobspec.prepare}, as a served job's does,
   which is what makes server-run campaigns byte-identical to standalone
   ones. *)
let run_sharded_campaign ~tel ~telemetry_path ~(spec : Jobspec.t)
    ~show_formulas ~progress ~jobs ~checkpoint_path ~base ~stop_after
    ~trace_dir =
  Telemetry.set_global tel;
  Orchestrator.Stop.install_handlers ();
  let chaos = Jobspec.chaos spec in
  let { Jobspec.generators; seeds } = Jobspec.prepare spec in
  Logs.info (fun m ->
      m "generators ready (%d); %d seeds, budget %d, jobs %d"
        (List.length generators) (List.length seeds) spec.Jobspec.budget jobs);
  print_string
    (Render.header ~generators:(List.length generators)
       ~seeds:(List.length seeds) ~budget:spec.Jobspec.budget);
  flush stdout;
  let on_progress, finish_hud =
    if progress then (
      let paint, finish = make_hud () in
      (Some paint, finish))
    else (None, fun () -> ())
  in
  match
    Orchestrator.run ~jobs ~shard_size:spec.Jobspec.shard_size
      ~config:(Jobspec.config spec) ~telemetry:tel ?checkpoint_path ?base
      ?stop_after ~extra:(Jobspec.extra spec) ?trace_dir ?chaos
      ?health:(Jobspec.health spec) ~profiling:progress ?on_progress
      ~seed:(Jobspec.fuzz_seed spec) ~budget:spec.Jobspec.budget ~generators
      ~seeds ()
  with
  | exception Failure msg ->
    finish_hud ();
    Printf.eprintf "%s\n" msg;
    1
  | r ->
    finish_hud ();
    (* end-of-campaign profile summary, stderr like the HUD itself *)
    if progress && r.Orchestrator.profile <> O4a_profile.Profile.empty then
      Printf.eprintf "%s\n%!"
        (O4a_profile.Hud.profile_line r.Orchestrator.profile);
    print_string
      (Render.finish ~show_formulas ?checkpoint:checkpoint_path ?trace_dir
         ~chaos r);
    close_telemetry tel telemetry_path;
    0

(* The run options outside the job spec, checked before any work (Algorithm 1
   included) so a bad value gets a one-line diagnostic. *)
let validate_run ~jobs ~stop_after =
  if jobs < 1 then Error "--jobs must be >= 1"
  else
    match stop_after with
    | Some n when n < 0 -> Error "--stop-after must be >= 0"
    | _ -> Ok ()

let fuzz spec show_formulas telemetry_path progress jobs checkpoint_path
    stop_after trace_dir verbose =
  setup_logs verbose;
  match
    Result.bind (validate_run ~jobs ~stop_after) (fun () ->
        Jobspec.validate spec)
  with
  | Error msg ->
    Printf.eprintf "%s\n" msg;
    1
  | Ok () -> (
    match make_telemetry telemetry_path with
    | Error msg ->
      Printf.eprintf "cannot open telemetry log: %s\n" msg;
      1
    | Ok tel ->
      run_sharded_campaign ~tel ~telemetry_path ~spec ~show_formulas ~progress
        ~jobs ~checkpoint_path ~base:None ~stop_after ~trace_dir)

let resume checkpoint_path jobs show_formulas telemetry_path progress stop_after
    trace_dir verbose =
  setup_logs verbose;
  match
    Result.bind (validate_run ~jobs ~stop_after) (fun () ->
        Result.map_error
          (Orchestrator.Checkpoint.load_error_to_string ~path:checkpoint_path)
          (Orchestrator.Checkpoint.load ~path:checkpoint_path))
  with
  | Error msg ->
    Printf.eprintf "%s\n" msg;
    1
  | Ok cp -> (
    (* rebuild the spec the checkpoint was written under from its provenance
       record — the exact inverse of Jobspec.extra, shared with the server's
       resume-job path *)
    let spec = Jobspec.of_checkpoint ~name:"cli" cp in
    match Jobspec.validate spec with
    | Error msg ->
      Printf.eprintf "%s: %s\n" checkpoint_path msg;
      1
    | Ok () -> (
      match make_telemetry telemetry_path with
      | Error msg ->
        Printf.eprintf "cannot open telemetry log: %s\n" msg;
        1
      | Ok tel ->
        run_sharded_campaign ~tel ~telemetry_path ~spec ~show_formulas
          ~progress ~jobs ~checkpoint_path:(Some checkpoint_path)
          ~base:(Some cp) ~stop_after ~trace_dir))

(* Read a user-supplied path: a typed error instead of an uncaught Sys_error
   (a missing file, a directory), so stats/replay/reduce can print the
   offending path and exit 2. *)
let read_file_checked path =
  match In_channel.with_open_bin path In_channel.input_all with
  | contents -> Ok contents
  | exception Sys_error msg -> Error msg

(* ---------------- stats ---------------- *)

(* Logs declare their wire-format version in a header event (see
   [Event.schema_event]); refuse logs newer than this tool rather than
   misparse them, and read header-less logs as v1 (they predate versioning). *)
let check_log_schema path events =
  match Event.log_schema_version events with
  | Some v when v > Event.schema_version ->
    Error
      (Printf.sprintf
         "%s: log schema version %d is newer than this tool understands \
          (%d); refusing to misparse it"
         path v Event.schema_version)
  | schema -> Ok schema

(* Offline summary of a --telemetry JSONL log: per-stage latency percentiles,
   per-generator throughput, verdict mix, and a consistency check of the
   final counters against the event stream. *)
let stats_cmd path strict =
  match read_file_checked path with
  | Error msg ->
    Printf.eprintf "stats: cannot read %s: %s\n" path msg;
    2
  | Ok contents -> (
  let events, malformed, torn = Event.parse_log contents in
  match check_log_schema path events with
  | Error msg ->
    Printf.eprintf "%s\n" msg;
    2
  | Ok schema ->
  let named name = List.filter (fun (e : Event.t) -> e.Event.name = name) events in
  let str_field e k =
    match Event.field k e with Some (Json.String s) -> Some s | _ -> None
  in
  let num_field e k = Option.bind (Event.field k e) Json.to_float in
  let sort_rows rows = List.sort (fun (a, _) (b, _) -> compare a b) rows in
  Printf.printf "%s: %d events, %d malformed line%s\n" path (List.length events)
    malformed
    (if malformed = 1 then "" else "s");
  if torn then
    Printf.printf
      "warning: log ends in a torn line (writer killed mid-write); skipped\n";
  (match schema with
  | None ->
    Printf.printf
      "note: unversioned log (predates the schema header); reading as v1\n"
  | Some _ -> ());
  let elapsed =
    match List.map (fun (e : Event.t) -> e.Event.ts) events with
    | [] -> 0.
    | ts -> O4a_util.Stats.maximum ts -. O4a_util.Stats.minimum ts
  in
  (* stage latency percentiles from "span" events — grouped by stage alone,
     deliberately ignoring the "worker" label a parallel campaign adds, so
     one table aggregates every worker's spans *)
  let spans = named "span" in
  let by_stage =
    spans
    |> List.filter_map (fun e ->
           match (str_field e "stage", num_field e "dur_us") with
           | Some s, Some d -> Some (s, d /. 1000.)
           | _ -> None)
    |> O4a_util.Listx.group_by fst
  in
  if by_stage <> [] then (
    Printf.printf "\nstage latency (ms, all workers):\n  %-16s %8s %10s %10s %10s\n"
      "stage" "count" "p50" "p90" "p99";
    List.iter
      (fun (stage, group) ->
        let ms = List.map snd group in
        Printf.printf "  %-16s %8d %10.3f %10.3f %10.3f\n" stage
          (List.length ms)
          (O4a_util.Stats.percentile 50. ms)
          (O4a_util.Stats.percentile 90. ms)
          (O4a_util.Stats.percentile 99. ms))
      (sort_rows by_stage));
  (* per-worker breakdown when the log came from a parallel campaign *)
  let by_worker =
    events
    |> List.filter_map (fun e ->
           match str_field e "worker" with
           | Some w -> Some (w, e)
           | None -> None)
    |> O4a_util.Listx.group_by fst
  in
  if by_worker <> [] then (
    Printf.printf "\nworkers:\n  %-8s %8s %8s %8s %12s\n" "worker" "tests"
      "spans" "shards" "span-ms";
    List.iter
      (fun (worker, group) ->
        let evs = List.map snd group in
        let count name =
          List.length (List.filter (fun (e : Event.t) -> e.Event.name = name) evs)
        in
        let span_ms =
          evs
          |> List.filter_map (fun (e : Event.t) ->
                 if e.Event.name = "span" then num_field e "dur_us" else None)
          |> List.fold_left ( +. ) 0.
          |> fun us -> us /. 1000.
        in
        Printf.printf "  %-8s %8d %8d %8d %12.1f\n" worker (count "fuzz.test")
          (count "span") (count "shard.end") span_ms)
      (sort_rows by_worker));
  (* per-generator validity / throughput from "fuzz.test" events *)
  let tests = named "fuzz.test" in
  let by_gen =
    tests
    |> List.concat_map (fun e ->
           let gens =
             match Event.field "gens" e with
             | Some (Json.List l) ->
               List.filter_map
                 (function Json.String s -> Some s | _ -> None)
                 l
             | _ -> []
           in
           let ok =
             match Event.field "parse_ok" e with
             | Some (Json.Bool b) -> b
             | _ -> false
           in
           let found =
             match Event.field "finding" e with
             | Some (Json.String _) -> true
             | _ -> false
           in
           List.map (fun g -> (g, (ok, found))) gens)
    |> O4a_util.Listx.group_by fst
  in
  if by_gen <> [] then (
    Printf.printf "\ngenerators:\n  %-14s %8s %10s %9s %8s\n" "generator"
      "picks" "parse-ok%" "findings" "picks/s";
    List.iter
      (fun (gen, group) ->
        let picks = List.length group in
        let ok = List.length (List.filter (fun (_, (ok, _)) -> ok) group) in
        let found = List.length (List.filter (fun (_, (_, f)) -> f) group) in
        Printf.printf "  %-14s %8d %10.1f %9d %8.1f\n" gen picks
          (100. *. float_of_int ok /. float_of_int picks)
          found
          (if elapsed > 0. then float_of_int picks /. elapsed else 0.))
      (sort_rows by_gen));
  (* verdict mix from "oracle.verdict" events *)
  let by_verdict =
    named "oracle.verdict"
    |> List.filter_map (fun e ->
           match (str_field e "solver", str_field e "verdict") with
           | Some s, Some v ->
             Some ((s, v), Option.value ~default:0. (num_field e "steps"))
           | _ -> None)
    |> O4a_util.Listx.group_by fst
  in
  if by_verdict <> [] then (
    Printf.printf "\nsolver verdicts:\n  %-8s %-10s %8s %12s\n" "solver"
      "verdict" "count" "mean fuel";
    List.iter
      (fun ((solver, verdict), group) ->
        Printf.printf "  %-8s %-10s %8d %12.0f\n" solver verdict
          (List.length group)
          (O4a_util.Stats.mean (List.map snd group)))
      (sort_rows by_verdict));
  (* chaos section: injected faults by site, retries, and quarantined shards
     from the supervision events *)
  let faults = named "fault.injected" in
  let retries = named "shard.retry" in
  let quars = named "shard.quarantined" in
  if faults <> [] || retries <> [] || quars <> [] then (
    Printf.printf "\nchaos:\n";
    let by_site =
      faults
      |> List.filter_map (fun e -> str_field e "site")
      |> List.map (fun s -> (s, ()))
      |> O4a_util.Listx.group_by fst
    in
    Printf.printf "  %-20s %8s\n" "site" "injected";
    List.iter
      (fun (site, group) ->
        Printf.printf "  %-20s %8d\n" site (List.length group))
      (sort_rows by_site);
    Printf.printf "  shard retries: %d\n" (List.length retries);
    if quars <> [] then (
      Printf.printf "  quarantined shards:\n";
      let int_field e k =
        match Event.field k e with Some (Json.Int n) -> n | _ -> 0
      in
      quars
      |> List.map (fun e -> (int_field e "shard", e))
      |> List.sort (fun (a, _) (b, _) -> compare a b)
      |> List.iter (fun (shard, e) ->
             let sites =
               match Event.field "sites" e with
               | Some (Json.List l) ->
                 List.filter_map
                   (function Json.String s -> Some s | _ -> None)
                   l
               | _ -> []
             in
             Printf.printf "    shard %d  ticks %d  attempts %d  [%s]\n" shard
               (int_field e "ticks") (int_field e "attempts")
               (String.concat " " sites))));
  (* health section: breaker transitions by (solver, theory, state) from the
     "health.breaker" events *)
  let breakers = named "health.breaker" in
  if breakers <> [] then (
    Printf.printf "\nbreakers:\n  %-10s %-14s %-10s %8s\n" "solver" "theory"
      "to" "count";
    breakers
    |> List.filter_map (fun e ->
           match
             (str_field e "solver", str_field e "theory", str_field e "to")
           with
           | Some s, Some t, Some st -> Some ((s, t, st), ())
           | _ -> None)
    |> O4a_util.Listx.group_by fst
    |> sort_rows
    |> List.iter (fun ((s, t, st), group) ->
           Printf.printf "  %-10s %-14s %-10s %8d\n" s t st
             (List.length group)));
  (match named "campaign.stopped" with
  | e :: _ ->
    let get k = match Event.field k e with Some (Json.Int n) -> n | _ -> 0 in
    Printf.printf
      "\ngraceful stop: %d shard%s drained, %d left for resume\n"
      (get "shards_done")
      (if get "shards_done" = 1 then "" else "s")
      (get "shards_remaining")
  | [] -> ());
  (* totals from "campaign.end", checked against the event stream. A resumed
     campaign's log only holds the shards run by that process while its
     campaign.end reports merged totals, so the check is skipped there. *)
  let resumed_shards =
    match named "campaign.start" with
    | e :: _ -> (
      match Event.field "resumed_shards" e with Some (Json.Int n) -> n | _ -> 0)
    | [] -> 0
  in
  let consistent = ref true in
  (match named "campaign.end" with
  | [ e ] ->
    let get k =
      match Event.field k e with Some (Json.Int n) -> n | _ -> 0
    in
    Printf.printf
      "\ntotals: %d tests  parse-ok %d  solved %d  findings %d  (%.1fs)\n"
      (get "tests") (get "parse_ok") (get "solved") (get "findings") elapsed;
    if resumed_shards > 0 then
      Printf.printf
        "(resumed campaign: totals include %d checkpointed shard%s not in this log)\n"
        resumed_shards
        (if resumed_shards = 1 then "" else "s")
    else if get "tests" <> List.length tests then (
      consistent := false;
      Printf.printf
        "WARNING: campaign.end reports %d tests but the log holds %d fuzz.test events\n"
        (get "tests") (List.length tests))
  | _ -> Printf.printf "\n(no campaign.end event; log may be truncated)\n");
  if strict && (malformed > 0 || not !consistent) then 1 else 0)

(* Side-by-side comparison of two telemetry logs: per-stage span count and
   latency-percentile deltas plus end-to-end throughput, for two
   already-recorded campaigns. *)
let stats_diff path_a path_b =
  let load path =
    match read_file_checked path with
    | Error msg ->
      Printf.eprintf "stats: cannot read %s: %s\n" path msg;
      None
    | Ok contents -> (
      let events, malformed, _torn = Event.parse_log contents in
      match check_log_schema path events with
      | Error msg ->
        Printf.eprintf "%s\n" msg;
        None
      | Ok _ ->
        if malformed > 0 then
          Printf.eprintf "%s: skipped %d malformed line%s\n" path malformed
            (if malformed = 1 then "" else "s");
        Some events)
  in
  match (load path_a, load path_b) with
  | None, _ | _, None -> 2
  | Some a, Some b ->
    let span_ms events =
      events
      |> List.filter_map (fun (e : Event.t) ->
             if e.Event.name <> "span" then None
             else
               match
                 ( Event.field "stage" e,
                   Option.bind (Event.field "dur_us" e) Json.to_float )
               with
               | Some (Json.String s), Some d -> Some (s, d /. 1000.)
               | _ -> None)
      |> O4a_util.Listx.group_by fst
      |> List.map (fun (stage, group) -> (stage, List.map snd group))
    in
    let sa = span_ms a and sb = span_ms b in
    let stages =
      List.sort_uniq compare (List.map fst sa @ List.map fst sb)
    in
    let delta av bv =
      if av = 0. then "     n/a"
      else Printf.sprintf "%+7.1f%%" (100. *. (bv -. av) /. av)
    in
    Printf.printf "A = %s\nB = %s\n" path_a path_b;
    if stages <> [] then (
      Printf.printf
        "\nstage latency deltas (ms, all workers):\n\
        \  %-16s %7s %7s %9s %9s %8s %9s %9s %8s\n"
        "stage" "cntA" "cntB" "p50A" "p50B" "d-p50" "p99A" "p99B" "d-p99";
      List.iter
        (fun stage ->
          let ms side = Option.value ~default:[] (List.assoc_opt stage side) in
          let msa = ms sa and msb = ms sb in
          let pct q l =
            if l = [] then 0. else O4a_util.Stats.percentile q l
          in
          let p50a = pct 50. msa and p50b = pct 50. msb in
          let p99a = pct 99. msa and p99b = pct 99. msb in
          Printf.printf "  %-16s %7d %7d %9.3f %9.3f %8s %9.3f %9.3f %8s\n"
            stage (List.length msa) (List.length msb) p50a p50b
            (delta p50a p50b) p99a p99b (delta p99a p99b))
        stages);
    let elapsed events =
      match List.map (fun (e : Event.t) -> e.Event.ts) events with
      | [] -> 0.
      | ts -> O4a_util.Stats.maximum ts -. O4a_util.Stats.minimum ts
    in
    let count name events =
      List.length
        (List.filter (fun (e : Event.t) -> e.Event.name = name) events)
    in
    let ea = elapsed a and eb = elapsed b in
    let ta = count "fuzz.test" a and tb = count "fuzz.test" b in
    let rate t e = if e > 0. then float_of_int t /. e else 0. in
    Printf.printf "\ntotals:\n  %-12s %12s %12s %10s\n" "" "A" "B" "delta";
    Printf.printf "  %-12s %12d %12d %10s\n" "tests" ta tb
      (delta (float_of_int ta) (float_of_int tb));
    let findings events =
      List.length
        (List.filter
           (fun (e : Event.t) ->
             e.Event.name = "fuzz.test"
             &&
             match Event.field "finding" e with
             | Some (Json.String _) -> true
             | _ -> false)
           events)
    in
    let fa = findings a and fb = findings b in
    Printf.printf "  %-12s %12d %12d %10s\n" "findings" fa fb
      (delta (float_of_int fa) (float_of_int fb));
    Printf.printf "  %-12s %12.2f %12.2f %10s\n" "elapsed (s)" ea eb
      (delta ea eb);
    Printf.printf "  %-12s %12.1f %12.1f %10s\n" "tests/s" (rate ta ea)
      (rate tb eb)
      (delta (rate ta ea) (rate tb eb));
    0

(* `stats FILE` summarizes one log; `stats --diff A B` (or just giving a
   second positional) compares two. *)
let stats_main path path_b diff strict =
  match (path_b, diff) with
  | Some b, _ -> stats_diff path b
  | None, true ->
    Printf.eprintf "stats: --diff needs two log files (stats --diff A B)\n";
    2
  | None, false -> stats_cmd path strict

(* ---------------- replay / trace / triage ---------------- *)

(* Re-run the differential oracle on one formula with fresh trunk engines —
   what a repro bundle's repro.sh invokes. The default fuel matches the
   fuzzing loop's, so campaign findings replay under the same limits. *)
let replay path expect max_steps =
  match read_file_checked path with
  | Error msg ->
    Printf.eprintf "replay: cannot read %s: %s\n" path msg;
    2
  | Ok source -> (
  let zeal = Solver.Engine.zeal () in
  let cove = Solver.Engine.cove () in
  let outcome = Once4all.Oracle.test ~max_steps ~zeal ~cove ~source () in
  List.iter
    (fun (name, result) -> Printf.printf "%-12s %s\n" name result)
    outcome.Once4all.Oracle.results;
  (match outcome.Once4all.Oracle.finding with
  | Some f ->
    Printf.printf "finding: %s in %s  signature=%s  theory=%s%s%s\n"
      (Solver.Bug_db.kind_to_string f.Once4all.Oracle.kind)
      f.Once4all.Oracle.solver_name f.Once4all.Oracle.signature
      f.Once4all.Oracle.theory
      (match f.Once4all.Oracle.bug_id with
      | Some id -> "  bug=" ^ id
      | None -> "")
      (match f.Once4all.Oracle.mode with
      | Once4all.Oracle.Differential -> ""
      | m -> "  (" ^ Once4all.Oracle.mode_to_string m ^ ")")
  | None -> print_endline "finding: none");
  match expect with
  | None -> 0
  | Some expected -> (
    match outcome.Once4all.Oracle.finding with
    | Some f when f.Once4all.Oracle.signature = expected ->
      print_endline "expected signature reproduced";
      0
    | Some f ->
      Printf.printf "MISMATCH: expected signature %s, got %s\n" expected
        f.Once4all.Oracle.signature;
      1
    | None ->
      Printf.printf "MISMATCH: expected signature %s, got no finding\n" expected;
      1))

let trace_show dir id =
  let path =
    if Sys.file_exists id && Sys.is_directory id then id
    else Filename.concat dir id
  in
  match Bundle.load ~path with
  | Error msg ->
    Printf.eprintf "cannot load bundle %s: %s\n" path msg;
    1
  | Ok p ->
    let f = p.Trace.finding in
    print_string (Trace.render p.Trace.trace);
    Printf.printf "finding: %s in %s  signature=%s  cluster=%s%s%s\n"
      f.Trace.kind f.Trace.solver_name f.Trace.signature f.Trace.dedup_key
      (match f.Trace.bug_id with Some id -> "  bug=" ^ id | None -> "")
      (if f.Trace.mode <> "differential" then "  (" ^ f.Trace.mode ^ ")"
       else "");
    0

(* Cluster the bundles under a trace directory with the same keys the
   campaign report prints ({!Once4all.Dedup.signature_to_string}); sorted by
   key, so the table is identical however the campaign was sharded. *)
let triage dir =
  let bundles, warnings = Bundle.scan ~dir in
  List.iter (fun w -> Printf.eprintf "warning: %s\n" w) warnings;
  if bundles = [] then (
    print_endline "no repro bundles found";
    0)
  else (
    let groups =
      bundles
      |> O4a_util.Listx.group_by (fun (p : Trace.promoted) ->
             p.Trace.finding.Trace.dedup_key)
      |> List.sort (fun (a, _) (b, _) -> compare a b)
    in
    Printf.printf "%d repro bundle%s, %d cluster%s:\n" (List.length bundles)
      (if List.length bundles = 1 then "" else "s")
      (List.length groups)
      (if List.length groups = 1 then "" else "s");
    List.iter
      (fun (key, members) ->
        let first : Trace.promoted = List.hd members in
        let f = first.Trace.finding in
        let status =
          match f.Trace.bug_id with
          | Some id -> (
            match Solver.Bug_db.find id with
            | Some spec ->
              Printf.sprintf "%s (%s)" id
                (Solver.Bug_db.status_to_string spec.Solver.Bug_db.status)
            | None -> id)
          | None -> "unattributed"
        in
        Printf.printf "  [%s] %s  x%d  %s  e.g. %s%s\n" f.Trace.kind key
          (List.length members) status first.Trace.trace.Trace.id
          (if f.Trace.mode <> "differential" then "  (" ^ f.Trace.mode ^ ")"
           else ""))
      groups;
    0)

(* ---------------- reduce ---------------- *)

let reduce path =
  match read_file_checked path with
  | Error msg ->
    Printf.eprintf "reduce: cannot read %s: %s\n" path msg;
    2
  | Ok source -> (
  match Smtlib.Parser.parse_script source with
  | Error e ->
    Printf.eprintf "parse error: %s\n" (Smtlib.Parser.error_message e);
    1
  | Ok script ->
    let zeal = Solver.Engine.zeal () in
    let cove = Solver.Engine.cove () in
    let signature_of script =
      match
        Once4all.Oracle.test ~zeal ~cove ~source:(Smtlib.Printer.script script) ()
      with
      | { Once4all.Oracle.finding = Some f; _ } -> Some f.Once4all.Oracle.signature
      | _ -> None
    in
    (match signature_of script with
    | None ->
      print_endline "input does not trigger any bug; nothing to reduce";
      1
    | Some signature ->
      Printf.printf "reducing against signature: %s\n%!" signature;
      let reduced, stats =
        Reduce_kit.Ddsmt.reduce
          ~still_triggers:(fun candidate -> signature_of candidate = Some signature)
          script
      in
      Printf.printf "size %d -> %d nodes (%d probes)\n\n"
        stats.Reduce_kit.Ddsmt.initial_size stats.final_size stats.probes;
      print_endline (Smtlib.Printer.script reduced);
      0))

(* ---------------- report ---------------- *)

(* the campaign `fuzz --seed SEED --budget N --no-breakers` runs, then one
   triage report per cluster it finds *)
let report seed budget =
  let campaign = Once4all.Campaign.prepare ~seed () in
  let seeds =
    Seeds.Corpus.filtered ~zeal:campaign.Once4all.Campaign.zeal
      ~cove:campaign.Once4all.Campaign.cove ()
  in
  Printf.printf "fuzzing (budget %d) before writing reports...\n%!" budget;
  let r =
    Orchestrator.run ~seed:(seed + 1) ~budget
      ~generators:campaign.Once4all.Campaign.generators ~seeds ()
  in
  print_endline
    (Once4all.Report.render_campaign ~zeal:campaign.Once4all.Campaign.zeal
       ~cove:campaign.Once4all.Campaign.cove r.Orchestrator.clusters);
  0

(* ---------------- lineup ---------------- *)

let lineup () =
  let client = Llm_sim.Client.create Llm_sim.Profile.gpt4 in
  print_endline "Comparison fuzzers (RQ2):";
  List.iter
    (fun (f : Baselines.Fuzzer.t) ->
      Printf.printf "  %-12s throughput %3d/100\n" f.Baselines.Fuzzer.name
        f.tests_per_tick)
    (Baselines.Registry.baselines ~client);
  print_endline "Variants (RQ3): Once4All, Once4All_w/oS, Once4All_Gemini, Once4All_Claude";
  0

(* ---------------- serve + client subcommands ---------------- *)

let serve socket state_dir pool tcp handshake_timeout idle_timeout
    lease_timeout verbose =
  setup_logs verbose;
  if pool < 0 then (
    Printf.eprintf "--pool must be >= 0\n";
    1)
  else if pool = 0 && tcp = None then (
    Printf.eprintf "--pool 0 needs --tcp: without remote workers, nothing \
                    would ever execute a shard\n";
    1)
  else (
    (* the daemon itself installs no handlers; the two-signal contract
       (first SIGTERM/SIGINT drains, second exits 130) is the same one the
       standalone fuzz command uses *)
    Orchestrator.Stop.install_handlers ();
    Daemon.run
      {
        Daemon.socket_path = socket;
        state_dir;
        pool;
        tcp;
        handshake_timeout;
        idle_timeout;
        lease_timeout;
      })

(* client subcommands reach the server over the Unix socket by default, or
   over TCP with --connect HOST:PORT — same protocol either way *)
let client_addr socket connect =
  match connect with
  | None -> Ok (Addr.Unix_path socket)
  | Some spec ->
    Result.map (fun (h, p) -> Addr.Tcp (h, p)) (Addr.parse_tcp spec)

let with_client socket connect timeout f =
  match
    Result.bind (client_addr socket connect) (fun addr ->
        Client.connect ~timeout addr)
  with
  | Error msg ->
    Printf.eprintf "%s\n" msg;
    1
  | Ok c -> Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

let str_member k json = Option.bind (Json.member k json) Json.to_str
let int_member k json = Option.bind (Json.member k json) Json.to_int

let submit socket connect timeout spec_file name quota trace telemetry spec =
  let spec =
    match spec_file with
    | Some path ->
      (* a JSON spec file is submitted as-is (the server validates too, but
         failing locally gives the better diagnostic) *)
      Result.bind
        (Result.map_error
           (fun msg -> Printf.sprintf "cannot read %s: %s" path msg)
           (read_file_checked path))
        (fun contents -> Result.bind (Json.parse contents) Jobspec.codec.dec)
    | None ->
      let t = { spec with Jobspec.name; quota; trace; telemetry } in
      Result.map (fun () -> t) (Jobspec.validate t)
  in
  match spec with
  | Error msg ->
    Printf.eprintf "%s\n" msg;
    1
  | Ok spec ->
    with_client socket connect timeout (fun c ->
        match Client.request c (Protocol.Submit spec) with
        | Error msg ->
          Printf.eprintf "%s\n" msg;
          1
        | Ok reply ->
          let job =
            Option.value ~default:spec.Jobspec.name (str_member "job" reply)
          in
          let shards = Option.value ~default:0 (int_member "shards" reply) in
          Printf.printf "submitted %s (%d shard%s)\n" job shards
            (if shards = 1 then "" else "s");
          0)

let jobs_cmd socket connect timeout =
  with_client socket connect timeout (fun c ->
      match Client.request c Protocol.Jobs with
      | Error msg ->
        Printf.eprintf "%s\n" msg;
        1
      | Ok reply -> (
        match Json.member "jobs" reply with
        | Some (Json.List views) ->
          Printf.printf "%-24s %-18s %11s %9s %6s\n" "job" "state" "shards"
            "findings" "quota";
          List.iter
            (fun v ->
              match Protocol.job_view_codec.dec v with
              | Error _ -> ()
              | Ok (view : Protocol.job_view) ->
                Printf.printf "%-24s %-18s %5d/%-5d %9d %6d\n" view.v_id
                  (Protocol.job_state_to_string view.v_state)
                  view.v_shards_done view.v_shards_total view.v_findings
                  view.v_quota)
            views;
          0
        | _ ->
          Printf.eprintf "malformed jobs reply\n";
          1))

(* Watch a job's event stream: backlog first (from --from), then live, one
   JSON object per line on stdout. Exits when the job reaches a terminal
   state (done/failed/cancelled) or the server drains. *)
let watch_cmd socket connect timeout job from =
  with_client socket connect timeout (fun c ->
      let terminal = ref false in
      let on_line json =
        print_endline (Json.to_string json);
        flush stdout;
        (match (str_member "kind" json, Json.member "data" json) with
        | Some "state", Some data -> (
          match str_member "state" data with
          | Some ("done" | "cancelled") -> terminal := true
          | Some s when String.length s >= 6 && String.sub s 0 6 = "failed" ->
            terminal := true
          | _ -> ())
        | _ -> ());
        not !terminal
      in
      match Client.stream c (Protocol.Watch { job; from }) ~on_line with
      | Error msg ->
        Printf.eprintf "%s\n" msg;
        1
      | Ok _ -> 0)

let simple_request socket connect timeout req ~verb =
  with_client socket connect timeout (fun c ->
      match Client.request c req with
      | Error msg ->
        Printf.eprintf "%s\n" msg;
        1
      | Ok reply ->
        (match str_member "job" reply with
        | Some job -> (
          Printf.printf "%s %s" verb job;
          match int_member "resumed" reply with
          | Some n when n > 0 -> Printf.printf " (resumed %d shards)\n" n
          | _ -> print_newline ())
        | None -> Printf.printf "%s\n" verb);
        0)

let pause_cmd socket connect timeout job =
  simple_request socket connect timeout (Protocol.Pause job) ~verb:"paused"
let resume_job_cmd socket connect timeout job =
  simple_request socket connect timeout (Protocol.Resume_job job) ~verb:"resumed"
let cancel_cmd socket connect timeout job =
  simple_request socket connect timeout (Protocol.Cancel job) ~verb:"cancelled"
let shutdown_cmd socket connect timeout =
  simple_request socket connect timeout Protocol.Shutdown ~verb:"server draining"

(* Snapshot a running job's merged analytics. Default output is the compact
   canonical JSON (Analytics.codec) on one line — the same bytes [analyze
   --json] writes from the job's checkpoint once it finishes, so live and
   post-hoc views diff clean. --prom prints the Prometheus text rendering
   instead, ready to serve from a textfile collector. *)
let metrics_cmd socket connect timeout job prom =
  with_client socket connect timeout (fun c ->
      match Client.request c (Protocol.Metrics job) with
      | Error msg ->
        Printf.eprintf "%s\n" msg;
        1
      | Ok reply ->
        if prom then (
          match str_member "prometheus" reply with
          | Some text ->
            print_string text;
            0
          | None ->
            Printf.eprintf "malformed metrics reply (no prometheus field)\n";
            1)
        else (
          match Json.member "analytics" reply with
          | Some analytics ->
            print_endline (Json.to_string analytics);
            0
          | None ->
            Printf.eprintf "malformed metrics reply (no analytics field)\n";
            1))

(* ---------------- checkpoint info ---------------- *)

(* Inspect a checkpoint without resuming it: on-disk format version, campaign
   provenance, progress, quarantine set, and breaker/health counters. Shares
   Checkpoint.load's typed diagnostics, so a torn or truncated file prints
   the same explanation resume would, and exits 2. *)
let checkpoint_info path =
  match Orchestrator.Checkpoint.inspect ~path with
  | Error err ->
    Printf.eprintf "%s\n"
      (Orchestrator.Checkpoint.load_error_to_string ~path err);
    2
  | Ok { Orchestrator.Checkpoint.i_version; i_checkpoint = cp } ->
    let module Checkpoint = Orchestrator.Checkpoint in
    let total_shards =
      (cp.Checkpoint.budget + cp.Checkpoint.shard_size - 1)
      / cp.Checkpoint.shard_size
    in
    let findings =
      List.fold_left
        (fun acc (s : Checkpoint.shard_result) ->
          acc + List.length s.Checkpoint.findings)
        0 cp.Checkpoint.completed
    in
    Printf.printf "checkpoint: %s\n" path;
    Printf.printf "version: %d\n" i_version;
    Printf.printf "campaign: seed %d  budget %d  shard-size %d\n"
      cp.Checkpoint.seed cp.Checkpoint.budget cp.Checkpoint.shard_size;
    Printf.printf "progress: %d/%d shards completed, %d quarantined, %d finding%s\n"
      (List.length cp.Checkpoint.completed)
      total_shards
      (List.length cp.Checkpoint.quarantined)
      findings
      (if findings = 1 then "" else "s");
    Printf.printf "coverage: %d points\n" (List.length cp.Checkpoint.coverage);
    (* which observability artifacts the writing campaign was recording —
       i.e. what a resume re-arms (given the matching flags) vs starts cold *)
    if i_version < 4 then
      Printf.printf
        "observability: unrecorded (pre-v4 checkpoint); resume starts \
         telemetry/trace/analytics cold\n"
    else (
      let flag b = if b then "yes" else "no" in
      Printf.printf "observability: telemetry %s  trace %s  analytics %s\n"
        (flag cp.Checkpoint.artifacts.Checkpoint.a_telemetry)
        (flag cp.Checkpoint.artifacts.Checkpoint.a_trace)
        (flag cp.Checkpoint.artifacts.Checkpoint.a_analytics);
      Printf.printf "analytics: %d sample%s, %d yield row%s\n"
        (List.length cp.Checkpoint.analytics.Analytics.samples)
        (if List.length cp.Checkpoint.analytics.Analytics.samples = 1 then ""
         else "s")
        (List.length cp.Checkpoint.analytics.Analytics.yield)
        (if List.length cp.Checkpoint.analytics.Analytics.yield = 1 then ""
         else "s"));
    if cp.Checkpoint.extra <> [] then (
      Printf.printf "provenance:\n";
      List.iter
        (fun (k, v) -> Printf.printf "  %s = %s\n" k v)
        cp.Checkpoint.extra);
    (match cp.Checkpoint.quarantined with
    | [] -> ()
    | qs ->
      Printf.printf "quarantine:\n";
      List.iter
        (fun (q : Checkpoint.quarantine) ->
          Printf.printf "  shard %d  ticks %d-%d  after %d attempt%s  [%s]\n"
            q.Checkpoint.q_shard q.Checkpoint.q_first_tick
            (q.Checkpoint.q_first_tick + q.Checkpoint.q_ticks - 1)
            q.Checkpoint.q_attempts
            (if q.Checkpoint.q_attempts = 1 then "" else "s")
            (String.concat " " q.Checkpoint.q_sites))
        qs);
    (match cp.Checkpoint.health with
    | [] -> ()
    | entries ->
      Printf.printf "breaker/health:\n";
      List.iter
        (fun e -> Printf.printf "  %s\n" (Health.entry_to_string e))
        entries);
    0

(* ---------------- analyze ---------------- *)

let write_file_checked path contents =
  try
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc contents);
    Ok ()
  with Sys_error msg -> Error msg

(* Render a checkpoint's analytics series: sparklines over the per-shard
   buckets, the plateau verdict, and the yield-attribution table. Every
   byte printed (and every exported file) is a pure function of the
   checkpoint's analytics record, which is itself jobs-invariant — so
   check.sh can diff the output of a --jobs 4 campaign against --jobs 1. *)
let analyze path csv json export window =
  match
    if window < 1 then Error "analyze: --window must be >= 1"
    else
      Result.map_error
        (Orchestrator.Checkpoint.load_error_to_string ~path)
        (Orchestrator.Checkpoint.inspect ~path)
  with
  | Error msg ->
    Printf.eprintf "%s\n" msg;
    2
  | Ok { Orchestrator.Checkpoint.i_version; i_checkpoint = cp } ->
    let a = cp.Orchestrator.Checkpoint.analytics in
    let pts = Analytics.series a in
    let failed = ref false in
    let write what out contents =
      match write_file_checked out contents with
      | Ok () -> Printf.printf "wrote %s to %s\n" what out
      | Error msg ->
        Printf.eprintf "cannot write %s: %s\n" out msg;
        failed := true
    in
    (match pts with
    | [] ->
      Printf.printf
        "%s: no analytics series (version %d checkpoint; campaigns record \
         analytics from v4 on)\n"
        path i_version
    | pts ->
      let last = List.nth pts (List.length pts - 1) in
      let fcol f = List.map (fun p -> float_of_int (f p)) pts in
      let sum f = List.fold_left (fun acc p -> acc + f p) 0 pts in
      Printf.printf "checkpoint: %s\n" path;
      Printf.printf "analytics: %d sample%s  %d tick%s  %d tests  %d findings\n"
        (List.length pts)
        (if List.length pts = 1 then "" else "s")
        (last.Analytics.p_first_tick + last.Analytics.p_ticks)
        (if last.Analytics.p_first_tick + last.Analytics.p_ticks = 1 then ""
         else "s")
        (Analytics.total_tests a)
        (Analytics.total_findings a);
      let line name values note =
        Printf.printf "  %-9s |%s|  %s\n" name (Analytics.sparkline values) note
      in
      line "coverage"
        (fcol (fun p -> p.Analytics.p_cum_cov))
        (Printf.sprintf "cumulative, final %d" last.Analytics.p_cum_cov);
      line "new-cov"
        (fcol (fun p -> p.Analytics.p_new_cov))
        "per bucket";
      line "clusters"
        (fcol (fun p -> p.Analytics.p_cum_clusters))
        (Printf.sprintf "cumulative, final %d" last.Analytics.p_cum_clusters);
      line "findings"
        (fcol (fun p -> p.Analytics.p_findings))
        (Printf.sprintf "per bucket, total %d"
           (sum (fun p -> p.Analytics.p_findings)));
      line "validity"
        (List.map
           (fun (p : Analytics.point) ->
             if p.Analytics.p_tests = 0 then 0.
             else
               float_of_int p.Analytics.p_parse_ok
               /. float_of_int p.Analytics.p_tests)
           pts)
        (let tests = sum (fun p -> p.Analytics.p_tests) in
         Printf.sprintf "parse-ok rate, overall %.1f%%"
           (if tests = 0 then 0.
            else
              100.
              *. float_of_int (sum (fun p -> p.Analytics.p_parse_ok))
              /. float_of_int tests));
      line "consults"
        (fcol (fun p -> p.Analytics.p_consults))
        (Printf.sprintf "per bucket, total %d  fuel %d"
           (sum (fun p -> p.Analytics.p_consults))
           (sum (fun p -> p.Analytics.p_fuel)));
      (match Analytics.plateaus ~window a with
      | [] ->
        Printf.printf
          "no plateau in a %d-shard window: curves still growing at the end\n"
          window
      | pls ->
        List.iter
          (fun (pl : Analytics.plateau) ->
            Printf.printf
              "%s plateaued at tick %d (flat at %d across a %d-shard window)\n"
              pl.Analytics.pl_series pl.Analytics.pl_tick pl.Analytics.pl_value
              pl.Analytics.pl_window)
          pls);
      match a.Analytics.yield with
      | [] -> ()
      | rows ->
        Printf.printf "yield attribution (%d row%s):\n" (List.length rows)
          (if List.length rows = 1 then "" else "s");
        Printf.printf "  %-14s %-18s %-10s %7s %9s %9s\n" "theory" "profile"
          "seed" "tests" "parse-ok" "findings";
        let shown, hidden =
          (* highest-yield rows first; ties broken by the canonical key so
             the listing stays jobs-invariant *)
          let ranked =
            List.stable_sort
              (fun (x : Analytics.yield_row) (y : Analytics.yield_row) ->
                compare
                  (- x.Analytics.y_findings, - x.Analytics.y_tests)
                  (- y.Analytics.y_findings, - y.Analytics.y_tests))
              rows
          in
          if List.length ranked <= 24 then (ranked, 0)
          else
            ( List.filteri (fun i _ -> i < 20) ranked,
              List.length ranked - 20 )
        in
        List.iter
          (fun (y : Analytics.yield_row) ->
            Printf.printf "  %-14s %-18s %-10s %7d %9d %9d\n"
              y.Analytics.y_theory y.Analytics.y_profile
              y.Analytics.y_seed_cluster y.Analytics.y_tests
              y.Analytics.y_parse_ok y.Analytics.y_findings)
          shown;
        if hidden > 0 then
          Printf.printf "  ... %d more row%s (full table in --json)\n" hidden
            (if hidden = 1 then "" else "s"));
    (match csv with
    | Some out -> write "series CSV" out (Analytics.to_csv a)
    | None -> ());
    (match json with
    | Some out ->
      write "analytics JSON" out (Json.to_string (Analytics.codec.enc a) ^ "\n")
    | None -> ());
    (match export with
    | Some dir ->
      Bundle.ensure_dir dir;
      write "series CSV" (Filename.concat dir "series.csv")
        (Analytics.to_csv a);
      write "analytics JSON"
        (Filename.concat dir "analytics.json")
        (Json.to_string (Analytics.codec.enc a) ^ "\n");
      write "Prometheus snapshot"
        (Filename.concat dir "metrics.prom")
        (Analytics.to_prometheus a)
    | None -> ());
    if !failed then 1 else 0

(* ---------------- command wiring ---------------- *)

(* The default campaign: every campaign flag takes its default from here, so
   the CLI and a terse JSON job spec cannot disagree. *)
let default_spec = Jobspec.default ~name:"cli"

let seed_arg =
  Arg.(value & opt int default_spec.Jobspec.seed & info [ "seed" ] ~docv:"N")
let profile_arg =
  Arg.(value & opt string default_spec.Jobspec.profile
       & info [ "profile" ] ~docv:"NAME"
         ~doc:"LLM profile: gpt-4, gemini-2.5-pro, claude-4.5-sonnet")

let construct_cmd =
  let verbose = Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"print a sample per theory") in
  Cmd.v
    (Cmd.info "construct" ~doc:"run LLM-assisted generator construction (Algorithm 1)")
    Term.(const construct $ seed_arg $ profile_arg $ verbose)

let telemetry_arg =
  Arg.(value & opt (some string) None
       & info [ "telemetry" ] ~docv:"FILE"
           ~doc:"write a JSONL event log (read it back with the stats subcommand)")

let progress_arg =
  Arg.(value & flag
       & info [ "progress" ]
           ~doc:"render a live progress HUD on stderr (shards, ticks/sec, \
                 coverage, findings, quarantines, breaker trips; in-place on \
                 a TTY, one line per merged shard otherwise) plus an \
                 end-of-run per-stage profile line. Purely an observer: the \
                 report and any --telemetry log are byte-identical with or \
                 without it")

let jobs_arg =
  Arg.(value & opt int 1
       & info [ "jobs"; "j" ] ~docv:"N"
           ~doc:"worker domains; the report is identical for every N")

let stop_after_arg =
  Arg.(value & opt (some int) None
       & info [ "stop-after" ] ~docv:"N"
           ~doc:"stop after N shards (for exercising checkpoint/resume)")

let show_arg =
  Arg.(value & flag & info [ "show-formulas" ] ~doc:"print representative formulas")

let trace_dir_arg =
  Arg.(value & opt (some string) None
       & info [ "trace-dir" ] ~docv:"DIR"
           ~doc:"enable provenance tracing and write a self-contained repro \
                 bundle per finding under DIR (inspect with trace show / triage)")

let chaos_arg =
  Arg.(value & opt string default_spec.Jobspec.chaos_profile
       & info [ "chaos" ] ~docv:"PROFILE"
           ~doc:"deterministic fault injection: off, solver (hangs + spurious \
                 crashes), io (sink writes + checkpoint corruption), workers \
                 (worker death), all, or solver_hang (a solver goes sick for \
                 a stretch — non-tainting, exercises the circuit breakers)")

let chaos_seed_arg =
  Arg.(value & opt int default_spec.Jobspec.chaos_seed
       & info [ "chaos-seed" ] ~docv:"N"
           ~doc:"fault-plan seed; the same seed injects the same faults at \
                 any --jobs value")

let chaos_rate_arg =
  Arg.(value & opt float default_spec.Jobspec.chaos_rate
       & info [ "chaos-rate" ] ~docv:"R"
           ~doc:"per-site probability a fault fires during a shard's first \
                 attempt (retries decay it); 1.0 fires on every attempt, \
                 forcing quarantine")

let breaker_window_arg =
  Arg.(value & opt int default_spec.Jobspec.breaker_window
       & info [ "breaker-window" ] ~docv:"N"
           ~doc:"circuit-breaker sliding window, in queries per \
                 (solver, theory); also the cooldown before a half-open probe")

let breaker_threshold_arg =
  Arg.(value & opt int default_spec.Jobspec.breaker_threshold
       & info [ "breaker-threshold" ] ~docv:"N"
           ~doc:"bad outcomes (timeouts/crashes) within the window that trip \
                 the breaker and degrade the oracle for that theory")

let no_breakers_arg =
  Arg.(value & flag
       & info [ "no-breakers" ]
           ~doc:"disable solver health circuit breakers (always run the full \
                 differential oracle)")

(* The campaign options [fuzz] and [submit] share, as one term yielding the
   job spec, so the two commands cannot drift apart. The runtime-only
   fields (name, quota, trace, telemetry) keep their defaults here. *)
let spec_term =
  let budget =
    Arg.(value & opt int default_spec.Jobspec.budget
         & info [ "budget" ] ~docv:"N" ~doc:"test cases")
  in
  let shard_size =
    Arg.(value & opt int default_spec.Jobspec.shard_size
         & info [ "shard-size" ] ~docv:"N"
             ~doc:"ticks per shard (campaign provenance: must match when comparing or resuming)")
  in
  let no_skel = Arg.(value & flag & info [ "no-skeletons" ] ~doc:"the w/oS ablation") in
  let spec seed budget shard_size profile no_skeletons chaos_profile chaos_seed
      chaos_rate breaker_window breaker_threshold no_breakers =
    {
      default_spec with
      Jobspec.seed;
      budget;
      shard_size;
      profile;
      use_skeletons = not no_skeletons;
      chaos_profile;
      chaos_seed;
      chaos_rate;
      breakers = not no_breakers;
      breaker_window;
      breaker_threshold;
    }
  in
  Term.(const spec $ seed_arg $ budget $ shard_size $ profile_arg $ no_skel
        $ chaos_arg $ chaos_seed_arg $ chaos_rate_arg $ breaker_window_arg
        $ breaker_threshold_arg $ no_breakers_arg)

let fuzz_cmd =
  let checkpoint =
    Arg.(value & opt (some string) None
         & info [ "checkpoint" ] ~docv:"FILE"
             ~doc:"serialize campaign progress here after every completed shard")
  in
  let verbose = Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"log campaign progress") in
  Cmd.v
    (Cmd.info "fuzz" ~doc:"run a skeleton-guided differential campaign (Algorithm 2)")
    Term.(const fuzz $ spec_term $ show_arg $ telemetry_arg $ progress_arg
          $ jobs_arg $ checkpoint $ stop_after_arg $ trace_dir_arg $ verbose)

let resume_cmd =
  let checkpoint =
    Arg.(required & opt (some file) None
         & info [ "checkpoint" ] ~docv:"FILE" ~doc:"checkpoint written by fuzz --checkpoint")
  in
  let verbose = Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"log campaign progress") in
  Cmd.v
    (Cmd.info "resume"
       ~doc:"resume an interrupted fuzz campaign from its checkpoint; lands on \
             the same report as an uninterrupted run")
    Term.(const resume $ checkpoint $ jobs_arg $ show_arg $ telemetry_arg
          $ progress_arg $ stop_after_arg $ trace_dir_arg $ verbose)

let stats_cmd_v =
  (* plain strings, not Arg.file: a missing path gets our typed "cannot
     read" diagnostic and exit 2, not cmdliner's usage error *)
  let file = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE") in
  let file_b =
    Arg.(value & pos 1 (some string) None
         & info [] ~docv:"FILE2"
             ~doc:"second log: print per-stage deltas instead of a summary")
  in
  let diff =
    Arg.(value & flag
         & info [ "diff" ]
             ~doc:"compare two logs (per-stage latency and throughput deltas)")
  in
  let strict =
    Arg.(value & flag
         & info [ "strict" ]
             ~doc:"exit nonzero on malformed lines or counter mismatches")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"summarize a --telemetry JSONL event log, or diff two of them")
    Term.(const stats_main $ file $ file_b $ diff $ strict)

let replay_cmd =
  let file = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE") in
  let expect =
    Arg.(value & opt (some string) None
         & info [ "expect" ] ~docv:"SIG"
             ~doc:"exit nonzero unless the oracle finds this exact signature")
  in
  let max_steps =
    Arg.(value
         & opt int Once4all.Fuzz.default_config.Once4all.Fuzz.max_steps
         & info [ "max-steps" ] ~docv:"N"
             ~doc:"solver fuel per query (default: the fuzzing loop's)")
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"re-run the differential oracle on a formula (what a repro \
             bundle's repro.sh invokes)")
    Term.(const replay $ file $ expect $ max_steps)

let trace_cmd =
  let dir =
    Arg.(value & opt string "."
         & info [ "dir" ] ~docv:"DIR" ~doc:"trace directory holding the bundles")
  in
  let id = Arg.(required & pos 0 (some string) None & info [] ~docv:"ID") in
  let show =
    Cmd.v
      (Cmd.info "show" ~doc:"print a promoted trace's provenance, stage by stage")
      Term.(const trace_show $ dir $ id)
  in
  Cmd.group (Cmd.info "trace" ~doc:"inspect provenance traces") [ show ]

let triage_cmd =
  let dir = Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR") in
  Cmd.v
    (Cmd.info "triage"
       ~doc:"cluster the repro bundles under a --trace-dir directory, with \
             the same keys the campaign report prints")
    Term.(const triage $ dir)

let reduce_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  Cmd.v (Cmd.info "reduce" ~doc:"delta-debug a bug-triggering formula")
    Term.(const reduce $ file)

let report_cmd =
  let budget = Arg.(value & opt int 800 & info [ "budget" ] ~docv:"N") in
  Cmd.v
    (Cmd.info "report" ~doc:"fuzz, then emit issue-style triage reports with reduced reproducers")
    Term.(const report $ seed_arg $ budget)

let lineup_cmd =
  Cmd.v (Cmd.info "lineup" ~doc:"list comparison fuzzers") Term.(const lineup $ const ())

(* ---- server command wiring ---- *)

let socket_arg =
  Arg.(value & opt string "once4all.sock"
       & info [ "socket" ] ~docv:"PATH"
           ~doc:"Unix-domain socket the server listens on")

let connect_arg =
  Arg.(value & opt (some string) None
       & info [ "connect" ] ~docv:"HOST:PORT"
           ~doc:"reach the server over TCP instead of the Unix socket \
                 (same protocol either way)")

let connect_timeout_arg =
  Arg.(value & opt float 0.
       & info [ "connect-timeout" ] ~docv:"SECONDS"
           ~doc:"total retry budget for the initial connect: transient \
                 failures (no socket file yet, connection refused) retry \
                 with backoff until it runs out; 0 means one attempt")

let serve_cmd =
  let state_dir =
    Arg.(value & opt string "once4all-state"
         & info [ "state-dir" ] ~docv:"DIR"
             ~doc:"per-job state root (spec, checkpoint, report, traces); \
                   created if missing")
  in
  let pool =
    Arg.(value & opt int 2
         & info [ "pool" ] ~docv:"N"
             ~doc:"local worker domains shared fairly by all campaigns; 0 \
                   runs every shard on remote worker pools (needs --tcp)")
  in
  let tcp =
    Arg.(value & opt (some string) None
         & info [ "tcp" ] ~docv:"[HOST:]PORT"
             ~doc:"also listen on TCP for remote workers and clients; port \
                   0 binds an ephemeral port, written to \
                   $(i,state-dir)/tcp.port")
  in
  let handshake_timeout =
    Arg.(value & opt float Daemon.default_handshake_timeout
         & info [ "handshake-timeout" ] ~docv:"SECONDS"
             ~doc:"drop connections that send no valid request within this \
                   deadline")
  in
  let idle_timeout =
    Arg.(value & opt float Daemon.default_idle_timeout
         & info [ "idle-timeout" ] ~docv:"SECONDS"
             ~doc:"drop non-subscriber connections idle past this deadline")
  in
  let lease_timeout =
    Arg.(value & opt float Daemon.default_lease_timeout
         & info [ "lease-timeout" ] ~docv:"SECONDS"
             ~doc:"heartbeat deadline for remote shard leases: a worker \
                   that misses it forfeits the shard, which is reassigned \
                   deterministically")
  in
  let verbose = Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"log job lifecycle") in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"run the campaign server: a daemon multiplexing many concurrent \
             campaigns over one worker pool (plus any remote worker pools \
             connected over TCP), streaming events to subscribers; each \
             campaign's outputs are byte-identical to a standalone fuzz \
             run of the same spec")
    Term.(const serve $ socket_arg $ state_dir $ pool $ tcp
          $ handshake_timeout $ idle_timeout $ lease_timeout $ verbose)

let worker_run connect socket slots connect_timeout heartbeat quit_after
    verbose =
  setup_logs verbose;
  match client_addr socket connect with
  | Error msg ->
    Printf.eprintf "%s\n" msg;
    1
  | Ok addr ->
    Orchestrator.Stop.install_handlers ();
    Worker.run
      {
        Worker.addr;
        slots;
        connect_timeout;
        heartbeat_interval = heartbeat;
        quit_after;
      }

let worker_cmd =
  let slots =
    Arg.(value & opt int 2
         & info [ "slots" ] ~docv:"N" ~doc:"executor domains in this pool")
  in
  let heartbeat =
    Arg.(value & opt float Worker.default_heartbeat_interval
         & info [ "heartbeat-interval" ] ~docv:"SECONDS"
             ~doc:"seconds between lease heartbeats; keep well under the \
                   coordinator's --lease-timeout")
  in
  let quit_after =
    Arg.(value & opt (some int) None
         & info [ "quit-after" ] ~docv:"N"
             ~doc:"testing hook: die abruptly (connection dropped, lease \
                   unsettled) instead of sending result N+1")
  in
  let verbose = Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"log leases") in
  Cmd.v
    (Cmd.info "worker"
       ~doc:"run a remote worker pool: connect to a coordinator (serve \
             --tcp), lease shards, execute them with the standalone \
             pipeline, and stream results back; shards forfeited by a \
             dying worker are reassigned without changing one byte of the \
             campaign's outputs")
    Term.(const worker_run $ connect_arg $ socket_arg $ slots
          $ connect_timeout_arg $ heartbeat $ quit_after $ verbose)

let submit_cmd =
  let spec_file =
    Arg.(value & opt (some string) None
         & info [ "spec" ] ~docv:"FILE"
             ~doc:"submit this JSON job spec verbatim (other flags ignored)")
  in
  let name_arg =
    Arg.(value & opt string "job"
         & info [ "name" ] ~docv:"NAME"
             ~doc:"job name; the server suffixes it if taken")
  in
  let quota =
    Arg.(value & opt int default_spec.Jobspec.quota
         & info [ "quota" ] ~docv:"N"
             ~doc:"fair-share weight: shards this job may run per scheduling \
                   round when the pool is contended")
  in
  let trace =
    Arg.(value & flag
         & info [ "trace" ] ~doc:"write repro bundles under the job's trace/ dir")
  in
  let telemetry =
    Arg.(value & flag
         & info [ "telemetry" ]
             ~doc:"write a JSONL event log next to the job's checkpoint")
  in
  Cmd.v
    (Cmd.info "submit" ~doc:"submit a campaign to a running server")
    Term.(const submit $ socket_arg $ connect_arg $ connect_timeout_arg
          $ spec_file $ name_arg $ quota $ trace $ telemetry $ spec_term)

let job_pos = Arg.(required & pos 0 (some string) None & info [] ~docv:"JOB")

let jobs_cmd_v =
  Cmd.v
    (Cmd.info "jobs" ~doc:"list a running server's jobs")
    Term.(const jobs_cmd $ socket_arg $ connect_arg $ connect_timeout_arg)

let watch_cmd_v =
  let from =
    Arg.(value & opt int 0
         & info [ "from" ] ~docv:"N"
             ~doc:"replay the job's event backlog from line N before going \
                   live (0 = everything: a late subscriber sees exactly what \
                   an early one saw)")
  in
  Cmd.v
    (Cmd.info "watch"
       ~doc:"stream a job's events (telemetry, findings, health, progress, \
             state) as JSON lines until it finishes")
    Term.(const watch_cmd $ socket_arg $ connect_arg $ connect_timeout_arg
          $ job_pos $ from)

let pause_cmd_v =
  Cmd.v
    (Cmd.info "pause"
       ~doc:"stop dispatching a job's shards (in-flight shards still merge \
             and checkpoint)")
    Term.(const pause_cmd $ socket_arg $ connect_arg $ connect_timeout_arg
          $ job_pos)

let resume_job_cmd_v =
  Cmd.v
    (Cmd.info "resume-job"
       ~doc:"unpause a job, or revive it from its on-disk spec + checkpoint \
             after a server restart")
    Term.(const resume_job_cmd $ socket_arg $ connect_arg
          $ connect_timeout_arg $ job_pos)

let cancel_cmd_v =
  Cmd.v
    (Cmd.info "cancel" ~doc:"cancel a job (its checkpoint stays on disk)")
    Term.(const cancel_cmd $ socket_arg $ connect_arg $ connect_timeout_arg
          $ job_pos)

let shutdown_cmd_v =
  Cmd.v
    (Cmd.info "shutdown"
       ~doc:"gracefully drain the server: finish in-flight shards, checkpoint \
             every campaign, exit (the request-level twin of SIGTERM)")
    Term.(const shutdown_cmd $ socket_arg $ connect_arg
          $ connect_timeout_arg)

let metrics_cmd_v =
  let prom =
    Arg.(value & flag
         & info [ "prom" ]
             ~doc:"print the Prometheus text-exposition rendering instead of \
                   the canonical analytics JSON")
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:"snapshot a job's merged analytics from a running server; for a \
             finished job the JSON is byte-identical to analyze --json on \
             its checkpoint")
    Term.(const metrics_cmd $ socket_arg $ connect_arg
          $ connect_timeout_arg $ job_pos $ prom)

let checkpoint_cmd =
  let file = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE") in
  let info_cmd =
    Cmd.v
      (Cmd.info "info"
         ~doc:"print a checkpoint's format version, campaign provenance, \
               progress, observability artifacts, quarantine set, and \
               breaker/health counters")
      Term.(const checkpoint_info $ file)
  in
  Cmd.group (Cmd.info "checkpoint" ~doc:"inspect checkpoint files") [ info_cmd ]

let analyze_cmd =
  let file =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"CHECKPOINT")
  in
  let csv =
    Arg.(value & opt (some string) None
         & info [ "csv" ] ~docv:"FILE"
             ~doc:"export the per-bucket series as CSV (one row per shard, \
                   raw and cumulative columns; byte-stable across --jobs N)")
  in
  let json =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"export the full analytics record (series + yield table) \
                   as canonical JSON — the same bytes the server's metrics \
                   request returns for the finished job")
  in
  let export =
    Arg.(value & opt (some string) None
         & info [ "export" ] ~docv:"DIR"
             ~doc:"write series.csv, analytics.json, and metrics.prom under \
                   DIR (created if missing) — the paper's coverage/yield \
                   curve data, ready for plotting")
  in
  let window =
    Arg.(value & opt int Analytics.default_window
         & info [ "window" ] ~docv:"N"
             ~doc:"plateau window: shards of zero cumulative growth that \
                   count as saturation")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"render a checkpoint's campaign analytics: coverage/yield \
             sparklines, saturation verdict, and the per-(theory, profile, \
             seed-cluster) yield table")
    Term.(const analyze $ file $ csv $ json $ export $ window)

let main =
  Cmd.group
    (Cmd.info "once4all" ~doc:"skeleton-guided SMT solver fuzzing with LLM-synthesized generators")
    [ construct_cmd; fuzz_cmd; resume_cmd; serve_cmd; worker_cmd; submit_cmd;
      jobs_cmd_v;
      watch_cmd_v; pause_cmd_v; resume_job_cmd_v; cancel_cmd_v; shutdown_cmd_v;
      metrics_cmd_v; checkpoint_cmd; analyze_cmd; stats_cmd_v; replay_cmd;
      trace_cmd; triage_cmd; reduce_cmd; report_cmd; lineup_cmd ]

let () = exit (Cmd.eval' main)
