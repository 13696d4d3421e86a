module Faults = O4a_faults.Faults
module Checkpoint = Orchestrator.Checkpoint
module Campaign = Once4all.Campaign
module Oracle = Once4all.Oracle
module Fuzz = Once4all.Fuzz
module Dedup = Once4all.Dedup
module Telemetry = O4a_telemetry.Telemetry
module Sink = O4a_telemetry.Sink
module Event = O4a_telemetry.Event

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* shared engines and generator library, built once *)
let campaign = lazy (Campaign.prepare ~seed:3 ())
let generators () = (Lazy.force campaign).Campaign.generators
let zeal () = (Lazy.force campaign).Campaign.zeal
let cove () = (Lazy.force campaign).Campaign.cove
let seed_pool = lazy (O4a_util.Listx.take 25 (Seeds.Corpus.all ()))

(* ------------------------- fault plan ------------------------- *)

let test_decide_pure () =
  let plan = Faults.plan ~rate:0.7 ~chaos_seed:11 Faults.All in
  List.iter
    (fun site ->
      for shard = 0 to 9 do
        for attempt = 0 to 3 do
          let a = Faults.decide plan ~site ~shard ~attempt in
          let b = Faults.decide plan ~site ~shard ~attempt in
          check_bool "equal args, equal decision" true (a = b);
          match a with
          | Some k -> check_bool "fire index in consult window" true (k >= 0 && k < 16)
          | None -> ()
        done
      done)
    Faults.all_sites

let test_decide_rates () =
  let never = Faults.plan ~rate:0.0 ~chaos_seed:3 Faults.All in
  let always = Faults.plan ~rate:1.0 ~chaos_seed:3 Faults.All in
  List.iter
    (fun site ->
      for shard = 0 to 7 do
        for attempt = 0 to Faults.max_retries do
          check_bool "rate 0.0 never fires" true
            (Faults.decide never ~site ~shard ~attempt = None);
          check_bool "rate 1.0 fires on every attempt" true
            (Faults.decide always ~site ~shard ~attempt <> None)
        done
      done)
    Faults.all_sites

let test_decide_respects_profile () =
  let plan = Faults.plan ~rate:1.0 ~chaos_seed:5 Faults.Solver in
  check_bool "armed site fires" true
    (Faults.decide plan ~site:Faults.Solver_crash ~shard:0 ~attempt:0 <> None);
  check_bool "site outside the profile never fires" true
    (Faults.decide plan ~site:Faults.Worker_death ~shard:0 ~attempt:0 = None);
  let off = Faults.plan ~rate:1.0 ~chaos_seed:5 Faults.Off in
  check_bool "off profile disabled" false (Faults.enabled off);
  List.iter
    (fun site ->
      check_bool "off profile never fires" true
        (Faults.decide off ~site ~shard:0 ~attempt:0 = None))
    Faults.all_sites

let test_decide_seed_sensitivity () =
  let sample p =
    List.concat_map
      (fun site ->
        List.concat_map
          (fun shard -> [ Faults.decide p ~site ~shard ~attempt:0 ])
          (List.init 20 Fun.id))
      Faults.all_sites
  in
  check_bool "different chaos seeds give different plans" true
    (sample (Faults.plan ~rate:0.5 ~chaos_seed:1 Faults.All)
    <> sample (Faults.plan ~rate:0.5 ~chaos_seed:2 Faults.All))

(* ------------------------- injector ------------------------- *)

let test_injector_single_fire () =
  let plan = Faults.plan ~rate:1.0 ~chaos_seed:9 Faults.Solver in
  let inj = Faults.Injector.create plan ~shard:2 ~attempt:1 in
  let fire_at =
    match Faults.decide plan ~site:Faults.Solver_crash ~shard:2 ~attempt:1 with
    | Some k -> k
    | None -> Alcotest.fail "rate 1.0 must schedule a fire"
  in
  let fires = ref [] in
  for i = 0 to 39 do
    if Faults.Injector.check inj Faults.Solver_crash then fires := i :: !fires
  done;
  check_bool "fires exactly once, at decide's consult index" true
    (!fires = [ fire_at ]);
  check_bool "fired list records the site" true
    (List.mem Faults.Solver_crash (Faults.Injector.fired inj));
  let unarmed = ref false in
  for _ = 0 to 39 do
    if Faults.Injector.check inj Faults.Worker_death then unarmed := true
  done;
  check_bool "workers site not armed under solver profile" false !unarmed;
  check_bool "disabled injector never fires" false
    (Faults.Injector.check Faults.Injector.disabled Faults.Solver_hang);
  check_int "injector remembers its shard" 2 (Faults.Injector.shard inj);
  check_int "injector remembers its attempt" 1 (Faults.Injector.attempt inj)

let test_ambient_and_tick () =
  check_bool "default ambient is disabled" true
    (Faults.ambient () == Faults.Injector.disabled);
  let plan = Faults.plan ~rate:1.0 ~chaos_seed:4 Faults.Workers in
  let inj = Faults.Injector.create plan ~shard:0 ~attempt:0 in
  let fired =
    Faults.using inj (fun () ->
        let rec go n =
          if n > 64 then false
          else
            match Faults.tick () with
            | () -> go (n + 1)
            | exception Faults.Injected { site = Faults.Worker_death; shard = 0; attempt = 0 }
              -> true
        in
        go 0)
  in
  check_bool "tick raises Injected under a workers injector" true fired;
  check_bool "ambient restored after using" true
    (Faults.ambient () == Faults.Injector.disabled)

let test_backoff_deterministic_fuel () =
  check_int "attempt 0" 1_000 (Faults.backoff ~attempt:0);
  check_int "attempt 1" 2_000 (Faults.backoff ~attempt:1);
  check_int "attempt 3" 8_000 (Faults.backoff ~attempt:3);
  check_int "fuel caps at 2^10 units" (1_000 * (1 lsl 10)) (Faults.backoff ~attempt:40)

let test_names_round_trip () =
  List.iter
    (fun s ->
      check_bool "site name round-trips" true
        (Faults.site_of_name (Faults.site_name s) = Some s))
    Faults.all_sites;
  List.iter
    (fun p ->
      check_bool "profile round-trips" true
        (Faults.profile_of_string (Faults.profile_to_string p) = Some p))
    [ Faults.Off; Faults.Solver; Faults.Io; Faults.Workers; Faults.All ];
  check_bool "unknown profile rejected" true (Faults.profile_of_string "boom" = None);
  check_bool "chaos signature in chaos namespace" true
    (Faults.is_injected_signature Faults.crash_signature);
  check_bool "ordinary signature outside it" false
    (Faults.is_injected_signature "src/theory/strings/foo.cpp:19 bar")

(* ------------------------- supervised campaigns ------------------------- *)

(* [~resume:true] resumes from the checkpoint at [checkpoint_path]: the
   caller loads it and passes it to [Orchestrator.run] as its base *)
let resume_base ~resume checkpoint_path =
  match (resume, checkpoint_path) with
  | false, _ | true, None -> None
  | true, Some path -> (
    match Checkpoint.load ~path with
    | Ok cp -> Some cp
    | Error e -> failwith (Checkpoint.load_error_to_string ~path e))

let run ?jobs ?telemetry ?checkpoint_path ?(resume = false) ?stop_after
    ?trace_dir ?chaos ?(budget = 120) ?(shard_size = 30) () =
  Orchestrator.run ?jobs ?telemetry ?checkpoint_path
    ?base:(resume_base ~resume checkpoint_path) ?stop_after
    ?trace_dir ?chaos ~shard_size ~seed:7 ~budget ~generators:(generators ())
    ~seeds:(Lazy.force seed_pool) ()

let report_key (r : Orchestrator.report) =
  ( r.Orchestrator.stats.Fuzz.tests,
    r.Orchestrator.stats.Fuzz.parse_ok,
    r.Orchestrator.stats.Fuzz.solved,
    List.map (fun c -> (c.Dedup.key, c.Dedup.count)) r.Orchestrator.clusters,
    r.Orchestrator.found_bug_ids,
    r.Orchestrator.coverage )

let chaos_key (r : Orchestrator.report) =
  ( report_key r,
    r.Orchestrator.quarantined,
    r.Orchestrator.shard_retries,
    r.Orchestrator.faults_injected )

let chaos_all = Faults.plan ~chaos_seed:5 Faults.All
let chaos_workers_always = Faults.plan ~rate:1.0 ~chaos_seed:3 Faults.Workers

let test_chaos_jobs_invariance () =
  let r1 = run ~jobs:1 ~chaos:chaos_all () in
  let r2 = run ~jobs:2 ~chaos:chaos_all () in
  let r4 = run ~jobs:4 ~chaos:chaos_all () in
  check_bool "faults actually injected at this seed" true
    (r1.Orchestrator.faults_injected > 0);
  check_bool "jobs 2 reproduces jobs 1, faults included" true
    (chaos_key r1 = chaos_key r2);
  check_bool "jobs 4 reproduces jobs 1, faults included" true
    (chaos_key r1 = chaos_key r4)

(* relative path -> file contents, for every regular file under [dir] *)
let dir_contents dir =
  let rec walk rel acc =
    let abs = if rel = "" then dir else Filename.concat dir rel in
    if Sys.is_directory abs then
      Array.fold_left
        (fun acc entry ->
          walk (if rel = "" then entry else Filename.concat rel entry) acc)
        acc
        (let es = Sys.readdir abs in
         Array.sort compare es;
         es)
    else (rel, In_channel.with_open_bin abs In_channel.input_all) :: acc
  in
  List.rev (walk "" [])

let with_temp_dir f =
  let dir = Filename.temp_file "o4a_chaos" "" in
  Sys.remove dir;
  let rec rm path =
    if Sys.is_directory path then (
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path)
    else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm dir) (fun () -> f dir)

let test_chaos_converges_to_fault_free () =
  (* the tentpole invariant: when every retry eventually succeeds, the chaos
     run is indistinguishable from the fault-free run — report, trace tree,
     repro bundles. Retry probabilities decay, so most seeds converge; scan a
     few to find one that produced retries but no quarantine. *)
  with_temp_dir (fun d0 ->
      let base = run ~jobs:2 ~trace_dir:d0 () in
      let rec search chaos_seed =
        if chaos_seed > 20 then
          Alcotest.fail "no quarantine-free chaos seed in 1..20"
        else
          let verdict =
            with_temp_dir (fun dc ->
                let r =
                  run ~jobs:2 ~trace_dir:dc
                    ~chaos:(Faults.plan ~chaos_seed Faults.All)
                    ()
                in
                if
                  r.Orchestrator.quarantined = []
                  && r.Orchestrator.shard_retries > 0
                then (
                  check_bool "report identical to fault-free run" true
                    (report_key base = report_key r);
                  check_bool "bundle tree byte-identical" true
                    (dir_contents d0 = dir_contents dc);
                  check_bool "faults were injected" true
                    (r.Orchestrator.faults_injected > 0);
                  true)
                else false)
          in
          if not verdict then search (chaos_seed + 1)
      in
      search 1)

let test_quarantine_and_degraded_merge () =
  let r = run ~jobs:1 ~chaos:chaos_workers_always () in
  check_int "every shard quarantined" 4 (List.length r.Orchestrator.quarantined);
  check_int "degraded merge: no quarantined ticks counted" 0
    r.Orchestrator.stats.Fuzz.tests;
  check_bool "no clusters from quarantined shards" true
    (r.Orchestrator.clusters = []);
  List.iter
    (fun (q : Checkpoint.quarantine) ->
      check_int "retries exhausted" (Faults.max_retries + 1) q.Checkpoint.q_attempts;
      check_bool "worker death recorded" true
        (q.Checkpoint.q_sites = [ Faults.site_name Faults.Worker_death ]))
    r.Orchestrator.quarantined;
  check_bool "quarantine list in shard order" true
    (List.map (fun q -> q.Checkpoint.q_shard) r.Orchestrator.quarantined
    = [ 0; 1; 2; 3 ])

let test_quarantine_checkpoint_resume_round_trip () =
  let path = Filename.temp_file "o4a_chaosck" ".json" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let full = run ~jobs:1 ~chaos:chaos_workers_always () in
      let partial =
        run ~jobs:1 ~chaos:chaos_workers_always ~checkpoint_path:path
          ~stop_after:2 ()
      in
      check_bool "interrupted" true partial.Orchestrator.interrupted;
      check_int "two shards quarantined so far" 2
        (List.length partial.Orchestrator.quarantined);
      (match Checkpoint.load ~path with
      | Error e -> Alcotest.fail (Checkpoint.load_error_to_string ~path e)
      | Ok cp ->
          check_bool "checkpoint carries the quarantine list" true
            (cp.Checkpoint.quarantined = partial.Orchestrator.quarantined));
      let resumed =
        run ~jobs:2 ~chaos:chaos_workers_always ~checkpoint_path:path
          ~resume:true ()
      in
      check_int "quarantined shards are not re-run" 2
        resumed.Orchestrator.shards_run;
      check_bool "resume reproduces the uninterrupted quarantine list" true
        (resumed.Orchestrator.quarantined = full.Orchestrator.quarantined);
      check_bool "resume lands on the uninterrupted report" true
        (report_key resumed = report_key full))

let test_chaos_telemetry_events () =
  let sink = Sink.memory () in
  let tel = Telemetry.create ~sink () in
  let r = run ~jobs:2 ~telemetry:tel ~chaos:chaos_workers_always () in
  let events = Sink.events sink in
  let named n = List.filter (fun e -> e.Event.name = n) events in
  check_int "one shard.quarantined event per shard" 4
    (List.length (named "shard.quarantined"));
  check_int "one fault.injected event per fired fault"
    r.Orchestrator.faults_injected
    (List.length (named "fault.injected"));
  check_int "one shard.retry event per retried attempt"
    r.Orchestrator.shard_retries
    (List.length (named "shard.retry"));
  check_bool "retries happened" true (r.Orchestrator.shard_retries > 0)

(* ------------------------- oracle attribution ------------------------- *)

let test_injected_crash_not_attributed () =
  (* under a solver-profile injector a spurious crash fires within the first
     16 consults of the site; each differential test consults it once per
     solver run, so a handful of tests is enough to see the fault surface *)
  let plan = Faults.plan ~rate:1.0 ~chaos_seed:6 Faults.Solver in
  let inj = Faults.Injector.create plan ~shard:0 ~attempt:0 in
  let findings = ref [] in
  Faults.using inj (fun () ->
      for i = 0 to 19 do
        let source =
          Printf.sprintf
            "(declare-const x%d Int)(assert (> x%d 0))(check-sat)" i i
        in
        match (Oracle.test ~zeal:(zeal ()) ~cove:(cove ()) ~source ()).Oracle.finding with
        | Some f -> findings := f :: !findings
        | None -> ()
      done);
  let injected =
    List.filter
      (fun (f : Oracle.finding) -> Faults.is_injected_signature f.Oracle.signature)
      !findings
  in
  check_bool "the spurious crash surfaced as a finding" true (injected <> []);
  List.iter
    (fun (f : Oracle.finding) ->
      check_bool "injected crash never gets a ground-truth bug id" true
        (f.Oracle.bug_id = None))
    injected;
  (* genuine findings from the same loop, if any, are outside the namespace *)
  List.iter
    (fun (f : Oracle.finding) ->
      match f.Oracle.bug_id with
      | Some _ ->
          check_bool "attributed findings never use the chaos namespace" false
            (Faults.is_injected_signature f.Oracle.signature)
      | None -> ())
    !findings

let () =
  Alcotest.run "faults"
    [
      ( "fault plan",
        [
          Alcotest.test_case "decide is pure" `Quick test_decide_pure;
          Alcotest.test_case "rate edge cases" `Quick test_decide_rates;
          Alcotest.test_case "profile gating" `Quick test_decide_respects_profile;
          Alcotest.test_case "seed sensitivity" `Quick test_decide_seed_sensitivity;
        ] );
      ( "injector",
        [
          Alcotest.test_case "single fire" `Quick test_injector_single_fire;
          Alcotest.test_case "ambient + tick" `Quick test_ambient_and_tick;
          Alcotest.test_case "fuel backoff" `Quick test_backoff_deterministic_fuel;
          Alcotest.test_case "names round-trip" `Quick test_names_round_trip;
        ] );
      ( "supervision",
        [
          Alcotest.test_case "chaos jobs 1 = 2 = 4" `Slow test_chaos_jobs_invariance;
          Alcotest.test_case "converges to fault-free run" `Slow
            test_chaos_converges_to_fault_free;
          Alcotest.test_case "quarantine + degraded merge" `Slow
            test_quarantine_and_degraded_merge;
          Alcotest.test_case "quarantine checkpoint/resume" `Slow
            test_quarantine_checkpoint_resume_round_trip;
          Alcotest.test_case "telemetry events" `Slow test_chaos_telemetry_events;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "injected crash not attributed" `Slow
            test_injected_crash_not_attributed;
        ] );
    ]
