module Health = O4a_health.Health
module Faults = O4a_faults.Faults
module Json = O4a_telemetry.Json
module Campaign = Once4all.Campaign
module Dedup = Once4all.Dedup
module Oracle = Once4all.Oracle
module Fuzz = Once4all.Fuzz
module Bug_db = Solver.Bug_db

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* small config so trips happen within a handful of queries *)
let cfg =
  { Health.window = 4; threshold = 2 }

let record l ?(probe = false) ?(fuel = 10) c =
  Health.record l ~solver:"zeal" ~theory:"strings" ~probe ~fuel c

let admit l = Health.admit l ~solver:"zeal" ~theory:"strings"
let state l = Health.state l ~solver:"zeal" ~theory:"strings"

(* ------------------------- breaker state machine ------------------------- *)

let test_trips_at_threshold () =
  let l = Health.make_ledger cfg in
  check_bool "starts closed" true (state l = Health.Closed);
  check_bool "no transition on first timeout" true
    (record l Health.Timeout = None);
  check_bool "trips on the second" true
    (record l Health.Timeout = Some Health.Open);
  check_bool "open" true (state l = Health.Open);
  match admit l with
  | Health.Suppress, None -> ()
  | _ -> Alcotest.fail "open breaker must suppress"

let test_window_slides () =
  let l = Health.make_ledger cfg in
  ignore (record l Health.Timeout);
  (* four good queries push the timeout out of the window=4 *)
  for _ = 1 to 4 do
    ignore (record l Health.Good)
  done;
  check_bool "old timeout evicted" true (record l Health.Timeout = None);
  check_bool "still closed" true (state l = Health.Closed);
  check_bool "two timeouts inside the window trip" true
    (record l Health.Timeout = Some Health.Open)

let test_errors_never_trip () =
  let l = Health.make_ledger cfg in
  for _ = 1 to 4 do
    ignore (record l Health.Error)
  done;
  check_bool "errors alone never trip" true (state l = Health.Closed)

let trip l =
  ignore (record l Health.Timeout);
  ignore (record l Health.Crash)

let cool l =
  (* window - 1 suppressed consults, then the one that flips to Half_open *)
  for _ = 1 to cfg.Health.window - 1 do
    match admit l with
    | Health.Suppress, None -> ()
    | _ -> Alcotest.fail "expected suppression during cooldown"
  done;
  match admit l with
  | Health.Probe, Some Health.Half_open -> ()
  | _ -> Alcotest.fail "cooldown elapsed: expected a probe"

let test_probe_recloses () =
  let l = Health.make_ledger cfg in
  trip l;
  cool l;
  check_bool "good probe re-closes" true
    (record l ~probe:true Health.Good = Some Health.Closed);
  check_bool "closed again" true (state l = Health.Closed);
  (* the window is reset on re-close: one more timeout must not trip *)
  check_bool "fresh window" true (record l Health.Timeout = None)

let test_probe_reopens () =
  let l = Health.make_ledger cfg in
  trip l;
  cool l;
  check_bool "bad probe re-opens" true
    (record l ~probe:true Health.Timeout = Some Health.Open);
  check_bool "open" true (state l = Health.Open);
  (* a full second cycle works: cool down again, probe well, re-close *)
  cool l;
  check_bool "second probe re-closes" true
    (record l ~probe:true Health.Good = Some Health.Closed);
  let e = List.hd (Health.export l) in
  check_int "opened counts trip + re-open" 2 e.Health.opened;
  check_int "one re-close" 1 e.Health.reclosed;
  check_int "two probes" 2 e.Health.probes;
  check_int "suppressed counts both cooldowns" (2 * cfg.Health.window)
    e.Health.suppressed

let test_keys_independent () =
  let l = Health.make_ledger cfg in
  trip l;
  check_bool "other theory unaffected" true
    (Health.state l ~solver:"zeal" ~theory:"ints" = Health.Closed);
  check_bool "other solver unaffected" true
    (Health.state l ~solver:"cove" ~theory:"strings" = Health.Closed)

let test_disabled_ledger () =
  let l = Health.disabled in
  check_bool "not enabled" false (Health.enabled l);
  check_bool "admits everything" true (admit l = (Health.Admit, None));
  check_bool "records nothing" true (record l Health.Crash = None);
  check_bool "exports nothing" true (Health.export l = [])

(* ------------------------- export / merge ------------------------- *)

let test_export_merge () =
  let a = Health.make_ledger cfg in
  ignore (Health.record a ~solver:"zeal" ~theory:"ints" ~probe:false ~fuel:7
            Health.Good);
  ignore (Health.record a ~solver:"cove" ~theory:"ints" ~probe:false ~fuel:5
            Health.Timeout);
  let b = Health.make_ledger cfg in
  ignore (Health.record b ~solver:"zeal" ~theory:"ints" ~probe:false ~fuel:3
            Health.Crash);
  let ea = Health.export a and eb = Health.export b in
  check_bool "commutative" true
    (Health.merge ea eb = Health.merge eb ea);
  check_bool "identity" true (Health.merge ea [] = ea);
  let m = Health.merge ea eb in
  let zeal =
    List.find (fun e -> e.Health.e_solver = "zeal") m
  in
  check_int "queries summed" 2 zeal.Health.queries;
  check_int "fuel summed" 10 zeal.Health.fuel;
  check_int "crashes from b" 1 zeal.Health.crashes

let test_entry_json_round_trip () =
  let l = Health.make_ledger cfg in
  trip l;
  cool l;
  ignore (record l ~probe:true Health.Good);
  List.iter
    (fun e ->
      match Health.entry_codec.dec (Health.entry_codec.enc e) with
      | Error err -> Alcotest.fail ("round-trip failed: " ^ err)
      | Ok e' -> check_bool "entry round-trips" true (e = e'))
    (Health.export l);
  check_bool "garbage refused" true
    (Result.is_error (Health.entry_codec.dec (Json.Int 3)))

let test_ambient () =
  check_bool "default disabled" false (Health.enabled (Health.ambient ()));
  let l = Health.make_ledger cfg in
  Health.using l (fun () ->
      check_bool "ambient inside using" true (Health.ambient () == l));
  check_bool "restored" false (Health.enabled (Health.ambient ()));
  (match Health.using l (fun () -> failwith "boom") with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "exception swallowed");
  check_bool "restored after exception" false
    (Health.enabled (Health.ambient ()))

(* ------------------- sick-solver campaign, end to end ------------------- *)

let campaign = lazy (Campaign.prepare ~seed:3 ())
let generators () = (Lazy.force campaign).Campaign.generators
let seed_pool = lazy (O4a_util.Listx.take 25 (Seeds.Corpus.all ()))

let run ~jobs () =
  Orchestrator.run ~jobs
    ~chaos:(Faults.plan ~rate:1.0 Faults.Sick_solver)
    ~health:{ Health.window = 4; threshold = 2 }
    ~shard_size:60 ~seed:91 ~budget:300 ~generators:(generators ())
    ~seeds:(Lazy.force seed_pool) ()

let report_key (r : Orchestrator.report) =
  ( r.Orchestrator.stats.Fuzz.tests,
    r.Orchestrator.stats.Fuzz.solved,
    List.map (fun c -> (c.Dedup.key, c.Dedup.count)) r.Orchestrator.clusters,
    List.map
      (fun c -> Oracle.mode_to_string c.Dedup.representative.Dedup.finding.Oracle.mode)
      r.Orchestrator.clusters,
    r.Orchestrator.coverage,
    r.Orchestrator.health )

let test_sick_campaign () =
  let r1 = run ~jobs:1 () in
  let r4 = run ~jobs:4 () in
  check_bool "breaker trips byte-identical jobs 1 = jobs 4" true
    (report_key r1 = report_key r4);
  check_bool "sick-solver firings do not taint" true
    (r1.Orchestrator.quarantined = []);
  let opened =
    List.fold_left (fun n e -> n + e.Health.opened) 0 r1.Orchestrator.health
  and reclosed =
    List.fold_left (fun n e -> n + e.Health.reclosed) 0 r1.Orchestrator.health
  and suppressed =
    List.fold_left (fun n e -> n + e.Health.suppressed) 0 r1.Orchestrator.health
  in
  check_bool "at least one breaker tripped" true (opened > 0);
  check_bool "at least one half-open probe re-closed" true (reclosed > 0);
  check_bool "open breakers suppressed queries" true (suppressed > 0);
  (* a degraded-mode finding can never be a soundness claim: with one engine
     suppressed there is no sat/unsat disagreement to report *)
  List.iter
    (fun c ->
      let f = c.Dedup.representative.Dedup.finding in
      if f.Oracle.mode <> Oracle.Differential then
        check_bool "no degraded soundness finding" true
          (f.Oracle.kind <> Bug_db.Soundness))
    r1.Orchestrator.clusters

let test_breakers_off_matches_plain_run () =
  (* a healthy campaign with breakers armed is identical to one without:
     no trips means no behavior change, only bookkeeping *)
  let plain =
    Orchestrator.run ~jobs:1 ~shard_size:60 ~seed:91 ~budget:300
      ~generators:(generators ()) ~seeds:(Lazy.force seed_pool) ()
  and armed =
    Orchestrator.run ~jobs:1
      ~health:Health.default_config ~shard_size:60 ~seed:91 ~budget:300
      ~generators:(generators ()) ~seeds:(Lazy.force seed_pool) ()
  in
  check_bool "same stats" true
    (plain.Orchestrator.stats = armed.Orchestrator.stats);
  check_bool "same clusters" true
    (List.map (fun c -> (c.Dedup.key, c.Dedup.count)) plain.Orchestrator.clusters
    = List.map (fun c -> (c.Dedup.key, c.Dedup.count)) armed.Orchestrator.clusters);
  check_bool "no trips on a healthy campaign" true
    (List.for_all (fun e -> e.Health.opened = 0) armed.Orchestrator.health)

let () =
  Alcotest.run "health"
    [
      ( "breaker",
        [
          Alcotest.test_case "trips at threshold" `Quick test_trips_at_threshold;
          Alcotest.test_case "window slides" `Quick test_window_slides;
          Alcotest.test_case "errors configurable" `Quick
            test_errors_never_trip;
          Alcotest.test_case "probe re-closes" `Quick test_probe_recloses;
          Alcotest.test_case "probe re-opens" `Quick test_probe_reopens;
          Alcotest.test_case "keys independent" `Quick test_keys_independent;
          Alcotest.test_case "disabled ledger" `Quick test_disabled_ledger;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "export/merge" `Quick test_export_merge;
          Alcotest.test_case "entry json round-trip" `Quick
            test_entry_json_round_trip;
          Alcotest.test_case "ambient" `Quick test_ambient;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "sick solver: trips, probes, jobs-invariant" `Slow
            test_sick_campaign;
          Alcotest.test_case "healthy campaign unchanged by breakers" `Slow
            test_breakers_off_matches_plain_run;
        ] );
    ]
