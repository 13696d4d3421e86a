(* The profiling layer: deterministic per-stage counters, commutative
   merge, span-hook attribution, and the --jobs / --progress invariance
   guarantees the observability stack is built on. *)

module Profile = O4a_profile.Profile
module Hud = O4a_profile.Hud
module Campaign = Once4all.Campaign
module Telemetry = O4a_telemetry.Telemetry
module Sink = O4a_telemetry.Sink
module Event = O4a_telemetry.Event
module Json = O4a_telemetry.Json
module Analytics = O4a_analytics.Analytics

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* shared engines and generator library, built once (the orchestrator-test
   harness pattern) *)
let campaign = lazy (Campaign.prepare ~seed:3 ())
let generators () = (Lazy.force campaign).Campaign.generators
let seed_pool = lazy (O4a_util.Listx.take 25 (Seeds.Corpus.all ()))

let run ?jobs ?telemetry ?on_progress ?(profiling = true) ?(budget = 300)
    ?(shard_size = 60) () =
  Orchestrator.run ?jobs ?telemetry ?on_progress ~profiling ~shard_size
    ~seed:91 ~budget
    ~generators:(generators ())
    ~seeds:(Lazy.force seed_pool) ()

(* ------------------------- merge algebra ------------------------- *)

let entry ?(calls = 1) ?(wall_ns = 0) ?(alloc_words = 0) ?(promoted_words = 0)
    ?(consults = 0) ?(fuel = 0) stage =
  { Profile.stage; calls; wall_ns; alloc_words; promoted_words; consults; fuel }

let test_merge_basics () =
  let a =
    { Profile.ticks = 2; alloc_words = 100;
      stages = [ entry ~alloc_words:10 "parse"; entry ~consults:1 "solve" ] }
  in
  let b =
    { Profile.ticks = 3; alloc_words = 40;
      stages = [ entry ~fuel:7 "adapt"; entry ~alloc_words:5 "parse" ] }
  in
  let m = Profile.merge a b in
  check_int "ticks sum" 5 m.Profile.ticks;
  check_int "exact alloc sums" 140 m.Profile.alloc_words;
  check_int "three stages" 3 (List.length m.Profile.stages);
  check_bool "sorted canonical" true
    (List.map (fun (e : Profile.entry) -> e.Profile.stage) m.Profile.stages
    = [ "adapt"; "parse"; "solve" ]);
  let parse =
    List.find (fun (e : Profile.entry) -> e.Profile.stage = "parse")
      m.Profile.stages
  in
  check_int "parse alloc summed" 15 parse.Profile.alloc_words;
  check_int "parse calls summed" 2 parse.Profile.calls;
  check_bool "commutes" true (Profile.merge b a = m);
  check_bool "empty is identity" true
    (Profile.merge a Profile.empty = a && Profile.merge Profile.empty a = a)

let test_strip_timing () =
  let p =
    { Profile.ticks = 1; alloc_words = 77;
      stages =
        [ entry ~wall_ns:99 ~alloc_words:4 ~promoted_words:3 ~fuel:9 "solve" ] }
  in
  let s = Profile.strip_timing p in
  let e = List.hd s.Profile.stages in
  check_int "wall zeroed" 0 e.Profile.wall_ns;
  check_int "promoted zeroed" 0 e.Profile.promoted_words;
  check_int "per-stage alloc zeroed (measurement)" 0 e.Profile.alloc_words;
  check_int "fuel kept" 9 e.Profile.fuel;
  check_int "exact alloc total kept" 77 s.Profile.alloc_words;
  check_int "ticks kept" 1 s.Profile.ticks

(* ---------------------- ledger attribution ---------------------- *)

(* The span hook fires even through the disabled telemetry handle, and a
   consult inside the span charges the stage on top of the stack. *)
let test_ledger_attribution () =
  let l = Profile.make_ledger () in
  Profile.using l (fun () ->
      Profile.tick ();
      Telemetry.with_span Telemetry.disabled "stage.a" (fun () ->
          Profile.consult ~fuel:5 ();
          ignore (Sys.opaque_identity (List.init 100 Fun.id));
          Telemetry.with_span Telemetry.disabled "stage.b" (fun () ->
              Profile.consult ~fuel:2 ()));
      Profile.consult ());
  let p = Profile.export l in
  check_int "one tick" 1 p.Profile.ticks;
  let find s =
    List.find (fun (e : Profile.entry) -> e.Profile.stage = s)
      p.Profile.stages
  in
  let a = find "stage.a" and b = find "stage.b" and o = find "other" in
  ignore a.Profile.alloc_words;
  check_int "a consults" 1 a.Profile.consults;
  check_int "a fuel" 5 a.Profile.fuel;
  check_int "b consults (nested)" 1 b.Profile.consults;
  check_int "b fuel" 2 b.Profile.fuel;
  check_int "outside-span consult on root" 1 o.Profile.consults;
  check_bool "scope allocation counted (exact total)" true
    (p.Profile.alloc_words > 0)

let test_disabled_ledger_records_nothing () =
  Profile.using Profile.disabled (fun () ->
      Profile.tick ();
      Telemetry.with_span Telemetry.disabled "stage.a" (fun () ->
          Profile.consult ~fuel:5 ()));
  check_bool "disabled exports empty" true
    (Profile.export Profile.disabled = Profile.empty);
  (* no ambient ledger at all: still a no-op *)
  Profile.tick ();
  Profile.consult ();
  check_bool "still empty" true
    (Profile.export Profile.disabled = Profile.empty)

(* ---------------------- campaign invariance ---------------------- *)

let show_strip (p : Profile.t) =
  Json.to_string (Profile.codec.enc (Profile.strip_timing p))

(* The acceptance gate: the deterministic projection of the campaign
   profile is byte-identical at --jobs 1, 2, 3 and 4, and the campaign's
   work counters are pinned exactly. Workers reuse their engines across
   shards, profiled or not; jobs 2 and 3 hand each domain a different mix
   of shards than jobs 4 does, so engine state leaking into a count would
   show here. *)
let test_profile_jobs_invariant () =
  let r1 = run ~jobs:1 () in
  List.iter
    (fun jobs ->
      let r = run ~jobs () in
      Alcotest.(check string)
        (Printf.sprintf "strip_timing byte-identical across jobs (1 vs %d)"
           jobs)
        (show_strip r1.Orchestrator.profile)
        (show_strip r.Orchestrator.profile))
    [ 2; 3; 4 ];
  let p = r1.Orchestrator.profile in
  let pin what expected actual =
    check_int
      (what ^ " pinned: moving it is a semantic change and must be declared")
      expected actual
  in
  pin "ticks" 300 p.Profile.ticks;
  pin "solver consults" 600 (Profile.total_consults p);
  pin "solver fuel" 5_548_149 (Profile.total_fuel p);
  (* The search charges leaves whose outcome is already known instead of
     evaluating them: these two catch a charge that forgets the leaf's
     coverage hits (total) or the skipped node visits ([domain.*] line 0,
     which become the trace's [decisions]). *)
  let coverage_sum keep =
    List.fold_left
      (fun acc (identity, count) -> if keep identity then acc + count else acc)
      0 r1.Orchestrator.coverage
  in
  pin "coverage hits" 6_070_895 (coverage_sum (fun _ -> true));
  pin "domain.* line-0 hits" 24_822
    (coverage_sum (fun identity ->
         match String.split_on_char '|' identity with
         | [ _; _; func; "l"; "0" ] -> String.starts_with ~prefix:"domain." func
         | _ -> false));
  (* the analytics ledger counts the same queries as the profile ledger *)
  let samples = Analytics.series r1.Orchestrator.analytics in
  let sum f = List.fold_left (fun acc pt -> acc + f pt) 0 samples in
  check_int "analytics consults = profile consults"
    (Profile.total_consults p)
    (sum (fun pt -> pt.Analytics.p_consults));
  check_int "analytics fuel = profile fuel" (Profile.total_fuel p)
    (sum (fun pt -> pt.Analytics.p_fuel))

let test_profile_off_means_empty () =
  let r = run ~jobs:2 ~profiling:false () in
  check_bool "no profiling, empty profile" true
    (r.Orchestrator.profile = Profile.empty)

(* --progress is a pure observer: a run with the callback produces the
   identical report and telemetry event stream, and the callback's last
   snapshot matches the final report. *)
let test_progress_callback_pure () =
  let capture f =
    let sink = Sink.memory () in
    let tel = Telemetry.create ~sink () in
    let r = f tel in
    (r, Sink.events sink)
  in
  let r_plain, ev_plain = capture (fun tel -> run ~jobs:2 ~telemetry:tel ()) in
  let snaps = ref [] in
  let r_hud, ev_hud =
    capture (fun tel ->
        run ~jobs:2 ~telemetry:tel
          ~on_progress:(fun p -> snaps := p :: !snaps)
          ())
  in
  check_bool "reports identical" true
    (r_plain.Orchestrator.stats = r_hud.Orchestrator.stats
    && r_plain.Orchestrator.found_bug_ids = r_hud.Orchestrator.found_bug_ids
    && r_plain.Orchestrator.coverage = r_hud.Orchestrator.coverage
    && Profile.strip_timing r_plain.Orchestrator.profile
       = Profile.strip_timing r_hud.Orchestrator.profile);
  let names evs =
    List.sort compare
      (List.map (fun (e : Event.t) -> e.Event.name) evs)
  in
  check_bool "telemetry event multiset identical" true
    (names ev_plain = names ev_hud);
  check_int "zero extra events" (List.length ev_plain) (List.length ev_hud);
  (* callback saw the whole campaign: initial empty snapshot + one per shard *)
  check_int "snapshots: 1 initial + 5 shards" 6 (List.length !snaps);
  let last = List.hd !snaps in
  check_int "final ticks" 300 last.Hud.ticks_done;
  check_int "final shards" 5 last.Hud.shards_done;
  check_int "final findings"
    (List.length r_hud.Orchestrator.stats.Once4all.Fuzz.findings)
    last.Hud.findings

(* ------------------------------ HUD ------------------------------ *)

let test_hud_render () =
  let p =
    { Hud.shards_done = 2; shards_total = 4; ticks_done = 150; budget = 300;
      findings = 3; coverage_points = 42; cov_rate = Some 280.0;
      quarantined = 1; breaker_trips = 0; elapsed_s = 2.0 }
  in
  let line = Hud.render ~width:8 p in
  check_bool "half-full bar" true
    (String.length line > 0 && String.sub line 0 10 = "[####----]");
  check_bool "mentions ticks" true
    (O4a_util.Strx.contains_sub ~sub:"150/300 ticks" line);
  check_bool "mentions rate" true
    (O4a_util.Strx.contains_sub ~sub:"75 t/s" line);
  check_bool "mentions quarantine" true
    (O4a_util.Strx.contains_sub ~sub:"quar 1" line);
  check_bool "mentions coverage rate" true
    (O4a_util.Strx.contains_sub ~sub:"cov 42 (280.0/kt)" line);
  check_bool "dash before first sample" true
    (O4a_util.Strx.contains_sub ~sub:"cov 42 (\xe2\x80\x93/kt)"
       (Hud.render ~width:8 { p with Hud.cov_rate = None }))

let test_hud_profile_line () =
  let p =
    { Profile.ticks = 100; alloc_words = 100_000;
      stages =
        [ entry ~wall_ns:900_000 ~alloc_words:1000 ~consults:150 "solver.run";
          entry ~wall_ns:100_000 "parse" ] }
  in
  let line = Hud.profile_line p in
  check_bool "uses display names" true
    (O4a_util.Strx.contains_sub ~sub:"solve 90%" line);
  check_bool "consult rate" true
    (O4a_util.Strx.contains_sub ~sub:"1.50 consults/tick" line)

let () =
  Alcotest.run "profile"
    [
      ( "algebra",
        [
          Alcotest.test_case "merge basics" `Quick test_merge_basics;
          Alcotest.test_case "strip_timing" `Quick test_strip_timing;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "span attribution" `Quick
            test_ledger_attribution;
          Alcotest.test_case "disabled records nothing" `Quick
            test_disabled_ledger_records_nothing;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "jobs invariance (1 vs 4)" `Slow
            test_profile_jobs_invariant;
          Alcotest.test_case "profiling off = empty" `Slow
            test_profile_off_means_empty;
          Alcotest.test_case "--progress is pure" `Slow
            test_progress_callback_pure;
        ] );
      ( "hud",
        [
          Alcotest.test_case "render" `Quick test_hud_render;
          Alcotest.test_case "profile line" `Quick test_hud_profile_line;
        ] );
    ]
