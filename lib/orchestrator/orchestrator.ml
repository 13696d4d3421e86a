module Shard = Shard
module Checkpoint = Checkpoint
module Stop = Stop
module Pool = Pool
module Rng = O4a_util.Rng
module Telemetry = O4a_telemetry.Telemetry
module Sink = O4a_telemetry.Sink
module Event = O4a_telemetry.Event
module Json = O4a_telemetry.Json
module Coverage = O4a_coverage.Coverage
module Engine = Solver.Engine
module Fuzz = Once4all.Fuzz
module Dedup = Once4all.Dedup
module Trace = O4a_trace.Trace
module Bundle = O4a_trace.Bundle
module Faults = O4a_faults.Faults
module Health = O4a_health.Health
module Profile = O4a_profile.Profile
module Hud = O4a_profile.Hud
module Analytics = O4a_analytics.Analytics

let log_src =
  Logs.Src.create "once4all.orchestrator" ~doc:"Parallel campaign orchestrator"

module Log = (val Logs.src_log log_src : Logs.LOG)

type report = {
  stats : Fuzz.stats;
  clusters : Dedup.cluster list;
  found_bug_ids : string list;
  coverage : (string * int) list;
  coverage_zeal : Coverage.snapshot;
  coverage_cove : Coverage.snapshot;
  shards_total : int;
  shards_run : int;
  shards_resumed : int;
  interrupted : bool;
  promoted : Trace.promoted list;
  bundles_written : int;
  quarantined : Checkpoint.quarantine list;
  shard_retries : int;
  faults_injected : int;
  health : Health.entry list;
  profile : Profile.t;
  analytics : Analytics.t;
  plateaus : Analytics.plateau list;
  stopped : bool;
}

(* ------------------------------------------------------------------ *)
(* Generic parallel map                                                *)
(* ------------------------------------------------------------------ *)

let parallel_map ?(jobs = 1) f xs =
  let jobs = min jobs (List.length xs) in
  if jobs <= 1 then List.map f xs
  else (
    let pool = Pool.create ~slots:jobs in
    List.iteri
      (fun i x ->
        Pool.submit pool (fun ~worker_id:_ ~zeal:_ ~cove:_ ->
            (i, try Ok (f x) with e -> Error e)))
      xs;
    let out = List.map (fun _ -> Pool.take pool) xs in
    ignore (Pool.close pool);
    (* placed by index, so the error raised is the first in list order *)
    List.sort (fun (i, _) (j, _) -> compare i j) out
    |> List.map (fun (_, r) -> match r with Ok y -> y | Error e -> raise e))

(* ------------------------------------------------------------------ *)
(* One shard, in isolation                                             *)
(* ------------------------------------------------------------------ *)

(* Everything a worker needs to execute one shard of a campaign, and nothing
   about which worker pool runs it or where the results merge. [run] builds
   one per campaign; the campaign server builds one per submitted job and
   executes shards from many envs on one shared pool — a shard result is a
   pure function of (env, shard), so multiplexing cannot perturb it. *)
type exec_env = {
  env_seed : int;
  env_config : Fuzz.config;
  env_generators : Gensynth.Generator.t list;
  env_seeds : Smtlib.Script.t list;
  env_tel_enabled : bool;
  env_tracing : bool;
  env_chaos : Faults.plan option;
  env_health : Health.config option;
  env_profiling : bool;
  env_gen_profile : string;
      (** the LLM generator profile, for yield attribution *)
}

let make_env ?(config = Fuzz.default_config) ?(tel_enabled = false)
    ?(tracing = false) ?chaos ?health ?(profiling = false) ?(gen_profile = "")
    ~seed ~generators ~seeds () =
  (* a plan whose profile is Off injects nothing and skips supervision *)
  let chaos =
    match chaos with Some p when Faults.enabled p -> Some p | _ -> None
  in
  {
    env_seed = seed;
    env_config = config;
    env_generators = generators;
    env_seeds = seeds;
    env_tel_enabled = tel_enabled;
    env_tracing = tracing;
    env_chaos = chaos;
    env_health = health;
    env_profiling = profiling;
    env_gen_profile = gen_profile;
  }

type shard_payload = {
  merged : Checkpoint.merged_shard;
  events : Event.t list;
  promoted : Trace.promoted list;
  profile_export : Profile.t;
}

let run_one_shard ~env ~worker_id ~zeal ~cove shard =
  let wtel =
    if env.env_tel_enabled then
      Telemetry.create ~sink:(Sink.memory ())
        ~clock:(Telemetry.monotonic_clock ())
        ~labels:[ ("worker", string_of_int worker_id) ]
        ()
    else Telemetry.disabled
  in
  (* one flight recorder per shard: trace ids come from (seed, tick), so a
     recorder carries no cross-shard state and promoted traces merge by
     shard order *)
  let recorder =
    if env.env_tracing then Trace.Recorder.create ~seed:env.env_seed
    else Trace.Recorder.disabled
  in
  let ledger = Coverage.make_ledger () in
  (* like the coverage ledger, the health ledger is fresh per shard attempt:
     breaker windows never straddle a shard boundary, so trips depend only on
     (seed, shard, attempt) and are identical at any --jobs N — and a tainted
     attempt discards its ledger wholesale along with everything else *)
  let hledger =
    match env.env_health with
    | Some cfg -> Health.make_ledger cfg
    | None -> Health.disabled
  in
  (* the profile ledger follows the coverage/health pattern: fresh per shard
     attempt, ambient on the worker domain, merged commutatively at the
     barrier. It wraps only the fuzz loop itself — per-shard setup (telemetry
     handle, recorder) stays outside, which is part of what keeps the
     deterministic projection identical at any --jobs N. *)
  let pledger =
    if env.env_profiling then Profile.make_ledger () else Profile.disabled
  in
  (* the analytics ledger is always on: its counters are cheap, and keeping
     it unconditional means `analyze` works on every checkpoint a campaign
     ever writes. Same lifecycle as the coverage ledger — fresh per shard
     attempt, discarded wholesale with a tainted attempt — but not ambient:
     the fuzz loop records into it from each test's oracle outcome. *)
  let aledger = Analytics.make_ledger ~profile:env.env_gen_profile () in
  let rng = Shard.rng ~seed:env.env_seed shard in
  let stats =
    Coverage.with_ledger ledger (fun () ->
        Telemetry.using wtel (fun () ->
            Trace.Recorder.using recorder (fun () ->
                Health.using hledger (fun () ->
                    Profile.using pledger (fun () ->
                        Fuzz.run_shard ~rng ~config:env.env_config
                          ~telemetry:wtel ~analytics:aledger
                          ~shard_index:shard.Shard.index
                          ~first_tick:shard.Shard.first_tick
                          ~generators:env.env_generators ~seeds:env.env_seeds
                          ~zeal ~cove ~budget:shard.Shard.ticks)))))
  in
  let coverage = Coverage.export ledger in
  {
    merged =
      {
        Checkpoint.m_result =
          {
            Checkpoint.shard = shard.Shard.index;
            tests = stats.Fuzz.tests;
            parse_ok = stats.Fuzz.parse_ok;
            solved = stats.Fuzz.solved;
            bytes_total = stats.Fuzz.bytes_total;
            findings = stats.Fuzz.findings;
          };
        m_coverage = coverage;
        m_health = Health.export hledger;
        m_analytics =
          Analytics.export aledger ~bucket:shard.Shard.index
            ~first_tick:shard.Shard.first_tick ~ticks:shard.Shard.ticks
            ~tests:stats.Fuzz.tests ~parse_ok:stats.Fuzz.parse_ok
            ~solved:stats.Fuzz.solved
            ~findings:(List.length stats.Fuzz.findings)
            ~cov_points:(List.map fst coverage)
            ~clusters:
              (stats.Fuzz.findings
              |> List.map (fun (f : Dedup.found) ->
                     Dedup.signature_to_string
                       (Dedup.signature f.Dedup.finding))
              |> List.sort_uniq compare);
      };
    events =
      (if env.env_tel_enabled then Sink.events (Telemetry.sink wtel) else []);
    promoted = Trace.Recorder.promoted recorder;
    profile_export = Profile.export pledger;
  }

(* ------------------------------------------------------------------ *)
(* Supervision                                                         *)
(* ------------------------------------------------------------------ *)

(* one failed attempt at a shard: which faults fired before it was given up *)
type attempt_log = { attempt : int; fired : Faults.site list }

type shard_outcome =
  | Merged of shard_payload * attempt_log list * Faults.site list
      (** clean result, after the listed tainted attempts were retried; the
          final site list is the non-tainting faults (sick-solver hangs)
          that fired during the merged attempt itself *)
  | Quarantined of attempt_log list
      (** every attempt was tainted; results discarded, ticks reported *)
  | Failed of string  (** a genuine (non-injected) worker exception *)

(* Retry a shard until an attempt completes with zero tainting faults. Any
   tainting fault spoils the whole attempt — even one whose effect was merely
   a wrong solver answer — because only all-or-nothing discarding guarantees
   that the merged payload is byte-identical to the fault-free run's. (The
   sick-solver profile is the exception: its hangs are the subject under test
   for the health layer, so they merge.) The fault plan re-rolls per attempt
   (with decayed probability), so a retried shard is a pure function of
   (plan, shard index, attempt): the supervision outcome is the same at any
   --jobs N and on resume. *)
(* An injected fault can escape through a [Fun.protect] cleanup (e.g. a
   telemetry span emitting its end event into a faulted sink), arriving
   wrapped in [Fun.Finally_raised] — possibly several layers deep. *)
let rec is_injected = function
  | Faults.Injected _ -> true
  | Fun.Finally_raised e -> is_injected e
  | _ -> false

let run_supervised ~chaos ~run_attempt shard_index =
  match chaos with
  | None -> (
    match run_attempt () with
    | payload -> Merged (payload, [], [])
    | exception e -> Failed (Printexc.to_string e))
  | Some plan ->
    let rec go attempt failed_rev =
      let inj = Faults.Injector.create plan ~shard:shard_index ~attempt in
      let attempt_and_ship () =
        let payload = run_attempt () in
        (* the finished payload still has to survive its trip to the merge
           owner: a fired network site means it was lost on the wire, which
           taints the attempt exactly like an in-shard fault *)
        Faults.transit ();
        payload
      in
      let result =
        match Faults.using inj attempt_and_ship with
        | payload -> Ok payload
        | exception e when is_injected e -> Error `Injected
        | exception e -> Error (`Fatal (Printexc.to_string e))
      in
      let fired = Faults.Injector.fired inj in
      let tainting = List.filter (Faults.taints plan) fired in
      match result with
      | Error (`Fatal msg) -> Failed msg
      | Ok payload when tainting = [] ->
        Merged (payload, List.rev failed_rev, fired)
      | Ok _ | Error `Injected ->
        let log = { attempt; fired } in
        if attempt >= Faults.max_retries then
          Quarantined (List.rev (log :: failed_rev))
        else (
          ignore (Faults.backoff ~attempt);
          go (attempt + 1) (log :: failed_rev))
    in
    go 0 []

let quarantine_of_logs (shard : Shard.t) logs =
  {
    Checkpoint.q_shard = shard.Shard.index;
    q_first_tick = shard.Shard.first_tick;
    q_ticks = shard.Shard.ticks;
    q_attempts = List.length logs;
    q_sites =
      logs
      |> List.concat_map (fun l -> List.map Faults.site_name l.fired)
      |> O4a_util.Listx.dedup |> List.sort compare;
  }

(* ------------------------------------------------------------------ *)
(* The pluggable shard executor                                        *)
(* ------------------------------------------------------------------ *)

let exec_shard ~env ~worker_id ~zeal ~cove shard =
  run_supervised ~chaos:env.env_chaos
    ~run_attempt:(fun () -> run_one_shard ~env ~worker_id ~zeal ~cove shard)
    shard.Shard.index

(* ------------------------------------------------------------------ *)
(* The merge sink                                                      *)
(* ------------------------------------------------------------------ *)

(* Per-campaign merge owner: whichever domain created it is the only one
   that may call [absorb]/[finalize]. Worker payloads arrive in completion
   order; the persisted state is a [Checkpoint.state], whose fold is
   commutative (counters, coverage, health, analytics) or re-canonicalized
   by shard index, so the final report does not depend on that order —
   which is what lets the server interleave many campaigns on one pool and
   still land every one of them on its standalone report. *)
module Merge = struct
  type t = {
    env : exec_env;
    tel : Telemetry.t;
    checkpoint_path : string option;
    on_progress : (Hud.progress -> unit) option;
    resumed : int;  (* completed shards taken from the base checkpoint *)
    state : Checkpoint.state;
    mutable profile : Profile.t;
    (* plateau detection: [settled] is the length of the contiguous prefix
       of shards the state lists, and [tracker] has been fed that prefix's
       samples. Detection only ever sees samples inside the prefix, so the
       event stream is a pure function of merged content — independent of
       shard completion order and therefore of [--jobs]. *)
    mutable settled : int;
    tracker : Analytics.tracker;
    (* [None] until this merge writes the full state to [checkpoint_path],
       then the number of entries appended to it since *)
    mutable journal : int option;
    mutable promoted_by_shard : (int * Trace.promoted list) list;
    mutable errors : (int * string) list;
    mutable shard_retries : int;
    mutable faults_injected : int;
    mutable processed : int;
    t_start : float;
  }

  (* Advance the settled cursor past shards the state lists and feed the
     samples it passes to the plateau tracker. Detection is positional and
     monotone (see {!Analytics.plateaus}), so the first plateau a prefix
     exhibits is the one the full series reports — announcing what this
     returns is safe and happens exactly once per series, at a point
     determined by shard *indices*, not completion order. *)
  let advance_prefix t =
    let fresh = ref [] in
    while
      t.settled < t.state.Checkpoint.s_shards
      && Hashtbl.mem t.state.Checkpoint.s_listed t.settled
    do
      Option.iter
        (fun s -> fresh := s :: !fresh)
        (Analytics.sample t.state.Checkpoint.s_analytics t.settled);
      t.settled <- t.settled + 1
    done;
    Analytics.advance t.tracker (List.rev !fresh)

  let create ~env ~tel ?checkpoint_path ?base ?on_progress ~jobs ~budget
      ~shard_size ~extra () =
    let artifacts =
      { Checkpoint.a_telemetry = env.env_tel_enabled; a_trace = env.env_tracing;
        a_analytics = true }
    in
    let fresh =
      { Checkpoint.seed = 0; budget; shard_size; extra; completed = [];
        quarantined = []; coverage = []; health = [];
        analytics = Analytics.empty; artifacts }
    in
    let header =
      { (Option.value base ~default:fresh) with
        Checkpoint.seed = env.env_seed; budget; shard_size; extra; artifacts }
    in
    let state =
      match Checkpoint.start header with
      | Ok state -> state
      | Error msg -> invalid_arg ("Merge.create: " ^ msg)
    in
    let resumed = List.length header.Checkpoint.completed in
    Telemetry.emit tel "campaign.start"
      [
        ("budget", Json.Int budget);
        ("seeds", Json.Int (List.length env.env_seeds));
        ("generators", Json.Int (List.length env.env_generators));
        ("skeletons", Json.Bool env.env_config.Fuzz.use_skeletons);
        ("jobs", Json.Int jobs);
        ("shard_size", Json.Int shard_size);
        ("shards", Json.Int state.Checkpoint.s_shards);
        ("resumed_shards", Json.Int resumed);
      ];
    let t =
      {
        env;
        tel;
        checkpoint_path;
        on_progress;
        resumed;
        state;
        profile = Profile.empty;
        settled = 0;
        tracker = Analytics.tracker ~window:Analytics.default_window;
        journal = None;
        promoted_by_shard = [];
        errors = [];
        shard_retries = 0;
        faults_injected = 0;
        processed = 0;
        t_start = Unix.gettimeofday ();
      }
    in
    (* plateaus already visible in the resumed prefix were announced by the
       run that wrote the checkpoint; feed that prefix silently so a resumed
       campaign only emits events for plateaus it discovers itself *)
    ignore (advance_prefix t);
    t

  let processed t = t.processed
  let failed t = t.errors <> []
  let analytics_snapshot t = Analytics.of_acc t.state.Checkpoint.s_analytics

  (* merge-time progress snapshot for the HUD callback: a pure function of
     already-merged state, so observing it cannot perturb the campaign *)
  let notify_progress t =
    match t.on_progress with
    | None -> ()
    | Some f ->
      let st = t.state in
      f
        {
          Hud.shards_done = Hashtbl.length st.Checkpoint.s_listed;
          shards_total = st.Checkpoint.s_shards;
          ticks_done = st.Checkpoint.s_tests;
          budget = st.Checkpoint.s_header.Checkpoint.budget;
          findings = st.Checkpoint.s_findings;
          coverage_points = Hashtbl.length st.Checkpoint.s_coverage;
          cov_rate =
            (* coverage points per 1,000 ticks of the completed shards —
               [None] (rendered as "–") until one completes, instead of a
               stale 0.0 *)
            (if st.Checkpoint.s_tests > 0 then
               Some
                 (1000.
                 *. float_of_int (Hashtbl.length st.Checkpoint.s_coverage)
                 /. float_of_int st.Checkpoint.s_tests)
             else None);
          quarantined = List.length st.Checkpoint.s_quarantined;
          breaker_trips =
            List.fold_left
              (fun acc (e : Health.entry) -> acc + e.Health.opened)
              0 st.Checkpoint.s_health;
          elapsed_s = Unix.gettimeofday () -. t.t_start;
        }

  (* [cp], the state's current checkpoint, atomically, as a one-line file *)
  let write_full t cp =
    match t.checkpoint_path with
    | None -> ()
    | Some path ->
      Checkpoint.save ~path cp;
      t.journal <- Some 0

  (* The full state: before any shard runs (so a signal that lands in the
     campaign's first seconds still leaves a resumable file behind), on
     drain, and to compact the journal. It bypasses the chaos tear site,
     which is keyed to merged shards. *)
  let checkpoint_now t =
    if t.checkpoint_path <> None then write_full t (Checkpoint.current t.state)

  (* Supervised append of one shard's entry: the Checkpoint_corrupt site
     tears it (half the line), the read-back verify detects that and the
     append is undone and made again — bounded by the same retry budget as
     shard faults, and per-(shard, attempt) deterministic, so the injected
     count is identical at any --jobs N. *)
  let journal_append t ~after_shard entry =
    match (t.checkpoint_path, t.journal) with
    | None, _ -> ()
    | Some _, None ->
      (* nothing written yet: the full state already holds the entry *)
      checkpoint_now t
    | Some path, Some _ ->
      let rec attempt_append attempt =
        let tear =
          attempt < Faults.max_retries
          && (match t.env.env_chaos with
             | None -> false
             | Some plan ->
               Faults.decide plan ~site:Faults.Checkpoint_corrupt
                 ~shard:after_shard ~attempt
               <> None)
        in
        if tear then (
          t.faults_injected <- t.faults_injected + 1;
          Telemetry.emit t.tel "fault.injected"
            [
              ("site", Json.String (Faults.site_name Faults.Checkpoint_corrupt));
              ("shard", Json.Int after_shard);
              ("attempt", Json.Int attempt);
            ]);
        match Checkpoint.append ~path ~tear entry with
        | Ok () -> t.journal <- Option.map succ t.journal
        | Error err when tear && attempt < Faults.max_retries ->
          Log.debug (fun m ->
              m "checkpoint append torn by chaos (%s), appending again"
                (Checkpoint.load_error_to_string ~path err));
          attempt_append (attempt + 1)
        | Error err ->
          failwith
            (Printf.sprintf "checkpoint verify failed after save: %s"
               (Checkpoint.load_error_to_string ~path err))
      in
      attempt_append 0

  let emit_attempt_faults t shard_idx logs =
    List.iter
      (fun { attempt; fired } ->
        List.iter
          (fun site ->
            t.faults_injected <- t.faults_injected + 1;
            Telemetry.emit t.tel "fault.injected"
              [
                ("site", Json.String (Faults.site_name site));
                ("shard", Json.Int shard_idx);
                ("attempt", Json.Int attempt);
              ])
          fired)
      logs

  let emit_retries t shard_idx logs ~quarantining =
    (* every tainted attempt except a quarantining shard's last one was
       followed by a backoff + retry *)
    let retried =
      if quarantining then max 0 (List.length logs - 1) else List.length logs
    in
    List.iteri
      (fun i { attempt; _ } ->
        if i < retried then (
          t.shard_retries <- t.shard_retries + 1;
          Telemetry.emit t.tel "shard.retry"
            [
              ("shard", Json.Int shard_idx);
              ("attempt", Json.Int (attempt + 1));
              ("backoff_fuel", Json.Int (1_000 * (1 lsl min attempt 10)));
            ]))
      logs

  let announce_plateaus t =
    List.iter
      (fun (pl : Analytics.plateau) ->
        Telemetry.emit t.tel Analytics.plateau_event_name
          [
            ("series", Json.String pl.Analytics.pl_series);
            ("bucket", Json.Int pl.Analytics.pl_bucket);
            ("tick", Json.Int pl.Analytics.pl_tick);
            ("window", Json.Int pl.Analytics.pl_window);
            ("value", Json.Int pl.Analytics.pl_value);
          ];
        Log.info (fun m ->
            m "%s plateaued at tick %d (%d after %d-shard window)"
              pl.Analytics.pl_series pl.Analytics.pl_tick
              pl.Analytics.pl_value pl.Analytics.pl_window))
      (advance_prefix t)

  (* fold one shard into the state before anything of its outcome is
     forwarded or written: a shard the state already lists is refused *)
  let settle t entry =
    match Checkpoint.add t.state entry with
    | Ok () -> ()
    | Error msg -> failwith ("Merge.absorb: " ^ msg)

  let absorb t shard outcome =
    let shard_idx = shard.Shard.index in
    (match outcome with
    | Failed msg -> t.errors <- (shard_idx, msg) :: t.errors
    | Quarantined logs ->
      let q = quarantine_of_logs shard logs in
      let entry = Checkpoint.Quarantined q in
      settle t entry;
      emit_attempt_faults t shard_idx logs;
      emit_retries t shard_idx logs ~quarantining:true;
      Telemetry.emit t.tel "shard.quarantined"
        [
          ("shard", Json.Int shard_idx);
          ("first_tick", Json.Int q.Checkpoint.q_first_tick);
          ("ticks", Json.Int q.Checkpoint.q_ticks);
          ("attempts", Json.Int q.Checkpoint.q_attempts);
          ( "sites",
            Json.List (List.map (fun s -> Json.String s) q.Checkpoint.q_sites)
          );
        ];
      announce_plateaus t;
      journal_append t ~after_shard:shard_idx entry;
      Log.warn (fun m ->
          m "shard %d quarantined after %d attempts (sites: %s)" shard_idx
            q.Checkpoint.q_attempts
            (String.concat " " q.Checkpoint.q_sites))
    | Merged (payload, logs, merged_fired) ->
      let entry = Checkpoint.Completed payload.merged in
      settle t entry;
      (* the merged attempt's own non-tainting faults (sick-solver hangs)
         count as injected too; its attempt index is one past the tainted
         attempts that preceded it *)
      emit_attempt_faults t shard_idx
        (logs
        @
        if merged_fired = [] then []
        else [ { attempt = List.length logs; fired = merged_fired } ]);
      emit_retries t shard_idx logs ~quarantining:false;
      List.iter
        (fun (e : Event.t) ->
          Telemetry.forward t.tel
            (Event.make ~ts:e.Event.ts ~name:e.Event.name
               (e.Event.fields @ [ ("shard", Json.Int shard_idx) ])))
        payload.events;
      t.profile <- Profile.merge t.profile payload.profile_export;
      if payload.promoted <> [] then
        t.promoted_by_shard <-
          (shard_idx, payload.promoted) :: t.promoted_by_shard;
      announce_plateaus t;
      journal_append t ~after_shard:shard_idx entry;
      Log.debug (fun m ->
          m "shard %d merged (%d/%d done)" shard_idx
            (List.length t.state.Checkpoint.s_completed)
            t.state.Checkpoint.s_shards));
    t.processed <- t.processed + 1;
    notify_progress t

  let check t (shard : Shard.t) outcome =
    let index = shard.Shard.index in
    match outcome with
    | Merged (p, _, _) ->
      let m = p.merged in
      let buckets =
        List.map (fun (s : Analytics.sample) -> s.Analytics.bucket)
          m.Checkpoint.m_analytics.Analytics.samples
      in
      if
        List.exists (( <> ) index)
          (m.Checkpoint.m_result.Checkpoint.shard :: buckets)
      then Error (Printf.sprintf "the result does not describe shard %d" index)
      else if List.exists (fun (_, n) -> n <= 0) m.Checkpoint.m_coverage then
        Error "the result's coverage has a count that is not positive"
      else (
        match Coverage.unregistered m.Checkpoint.m_coverage with
        | Some id ->
          Error (Printf.sprintf "the result's coverage names no point here: %S" id)
        | None -> Ok ())
    | Quarantined _ when t.env.env_chaos = None ->
      (* only injected faults quarantine a shard *)
      Error
        (Printf.sprintf "shard %d was quarantined, but the job injects no faults"
           index)
    | Quarantined _ | Failed _ -> Ok ()

  let finalize ?trace_dir ~interrupted ~stopped t =
    let cp = Checkpoint.current t.state in
    (* compaction: the journal back into one canonical document *)
    if Option.value t.journal ~default:0 > 0 then write_full t cp;
    (match List.sort compare t.errors with
    | (idx, msg) :: _ ->
      failwith (Printf.sprintf "Orchestrator.run: shard %d failed: %s" idx msg)
    | [] -> ());
    (* canonical order: shard index, i.e. campaign tick order — the merged
       finding stream a sequential run over the same plan would produce *)
    let all_results = cp.Checkpoint.completed in
    let findings =
      List.concat_map
        (fun (r : Checkpoint.shard_result) -> r.Checkpoint.findings)
        all_results
    in
    let sum f = List.fold_left (fun acc r -> acc + f r) 0 all_results in
    let stats =
      {
        Fuzz.tests = sum (fun r -> r.Checkpoint.tests);
        parse_ok = sum (fun r -> r.Checkpoint.parse_ok);
        solved = sum (fun r -> r.Checkpoint.solved);
        bytes_total = sum (fun r -> r.Checkpoint.bytes_total);
        findings;
      }
    in
    let clusters = Dedup.cluster findings in
    let found_bug_ids =
      findings
      |> List.filter_map (fun (f : Dedup.found) ->
             f.Dedup.finding.Once4all.Oracle.bug_id)
      |> O4a_util.Listx.dedup |> List.sort compare
    in
    (* promoted traces in shard (= campaign tick) order, like the findings —
       a [--jobs n] campaign writes bundles in the sequential run's order *)
    let promoted =
      t.promoted_by_shard
      |> List.sort (fun (a, _) (b, _) -> compare a b)
      |> List.concat_map snd
    in
    let bundles_written =
      match trace_dir with
      | None -> 0
      | Some dir ->
        Bundle.ensure_dir dir;
        List.iter (fun p -> ignore (Bundle.write ~dir p)) promoted;
        Telemetry.emit t.tel "campaign.bundles"
          [
            ("dir", Json.String dir);
            ("bundles", Json.Int (List.length promoted));
          ];
        List.length promoted
    in
    (* canonical quarantine order, like the findings: shard index *)
    let quarantined = cp.Checkpoint.quarantined in
    let analytics = cp.Checkpoint.analytics in
    Telemetry.emit t.tel "campaign.end"
      (Fuzz.stats_fields stats
      @
      if quarantined = [] then []
      else [ ("quarantined_shards", Json.Int (List.length quarantined)) ]);
    Log.info (fun m ->
        m "campaign merged: %d shards (%d resumed, %d quarantined), %d tests, \
           %d findings, %d distinct bugs"
          (List.length all_results) t.resumed (List.length quarantined)
          stats.Fuzz.tests (List.length findings)
          (List.length found_bug_ids));
    let coverage = cp.Checkpoint.coverage in
    {
      stats;
      clusters;
      found_bug_ids;
      coverage;
      coverage_zeal = Coverage.snapshot_of_export coverage Coverage.Zeal;
      coverage_cove = Coverage.snapshot_of_export coverage Coverage.Cove;
      shards_total = t.state.Checkpoint.s_shards;
      shards_run = t.processed - List.length t.errors;
      shards_resumed = t.resumed;
      interrupted;
      promoted;
      bundles_written;
      quarantined;
      shard_retries = t.shard_retries;
      faults_injected = t.faults_injected;
      health = cp.Checkpoint.health;
      profile = t.profile;
      analytics;
      plateaus = Analytics.plateaus analytics;
      stopped;
    }
end

(* ------------------------------------------------------------------ *)
(* The campaign                                                        *)
(* ------------------------------------------------------------------ *)

let default_shard_size = 250

let run ?(jobs = 1) ?(shard_size = default_shard_size)
    ?(config = Fuzz.default_config) ?telemetry ?checkpoint_path ?base
    ?stop_after ?(extra = []) ?trace_dir ?chaos ?health ?(profiling = false)
    ?on_progress ~seed ~budget ~generators ~seeds () =
  if jobs < 1 then invalid_arg "Orchestrator.run: jobs must be >= 1";
  Option.iter
    (fun cp ->
      let path = Option.value checkpoint_path ~default:"the base checkpoint" in
      match Checkpoint.matches ~path ~seed ~budget ~shard_size cp with
      | Error msg -> failwith msg
      | Ok () -> ())
    base;
  let tel = match telemetry with Some t -> t | None -> Telemetry.global () in
  let extra =
    match base with Some cp when extra = [] -> cp.Checkpoint.extra | _ -> extra
  in
  let plan = Shard.plan ~budget ~shard_size in
  let remaining = Checkpoint.remaining base plan in
  let to_run =
    match stop_after with
    | Some k -> O4a_util.Listx.take k remaining
    | None -> remaining
  in
  let interrupted = List.length to_run < List.length remaining in
  (* populate the coverage point tables before any worker races to use
     them, and so that the report's percentages count every point *)
  Engine.prewarm ();
  (* yield attribution labels rows with the generator profile; the CLI
     records it in the provenance extras, which resume restores — so the
     label is a constant of the campaign, never of the run *)
  let gen_profile =
    match List.assoc_opt "profile" extra with Some p -> p | None -> ""
  in
  let env =
    make_env ~config ~tel_enabled:(Telemetry.enabled tel)
      ~tracing:(trace_dir <> None) ?chaos ?health ~profiling ~gen_profile ~seed
      ~generators ~seeds ()
  in
  let merge =
    Merge.create ~env ~tel ?checkpoint_path ?base ?on_progress ~jobs ~budget
      ~shard_size ~extra ()
  in
  let n_to_run = List.length to_run in
  (* write a checkpoint before any shard runs, so a signal that lands in the
     campaign's first seconds still leaves a resumable file behind *)
  if n_to_run > 0 then Merge.checkpoint_now merge;
  Merge.notify_progress merge;
  (* jobs 1 runs every shard inline on this domain, so progress callbacks
     fire live; either way this domain is the merge's one owner *)
  let nworkers = min jobs n_to_run in
  let pool = Pool.create ~slots:(if nworkers <= 1 then 0 else nworkers) in
  (* set when the merge loop ends, so an absorb that raises leaves the
     shards not yet started unrun *)
  let over = Atomic.make false in
  List.iter
    (fun shard ->
      Pool.submit pool (fun ~worker_id ~zeal ~cove ->
          (* graceful stop lands on a shard boundary: a shard that started
             finishes and merges, but none starts once the flag is up *)
          if Stop.requested () || Atomic.get over then None
          else Some (shard, exec_shard ~env ~worker_id ~zeal ~cove shard)))
    to_run;
  Fun.protect
    ~finally:(fun () ->
      Atomic.set over true;
      ignore (Pool.close pool))
    (fun () ->
      for _ = 1 to n_to_run do
        Option.iter
          (fun (shard, outcome) -> Merge.absorb merge shard outcome)
          (Pool.take pool)
      done);
  let stopped = Stop.requested () && Merge.processed merge < n_to_run in
  if stopped then (
    Telemetry.emit tel "campaign.stopped"
      [
        ("shards_done", Json.Int (Merge.processed merge));
        ("shards_remaining", Json.Int (n_to_run - Merge.processed merge));
      ];
    Log.info (fun m ->
        m "stop requested: drained %d/%d shards at the shard boundary"
          (Merge.processed merge) n_to_run));
  Merge.finalize ?trace_dir ~interrupted ~stopped merge
