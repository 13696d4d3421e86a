(* Campaign analytics: the deterministic time-series ledger.

   Unit tests pin the derived-series and plateau arithmetic on handcrafted
   samples; the campaign tests check the end-to-end contracts the feature
   ships on — the merged series (CSV, JSON, plateau set, emitted plateau
   events) is byte-identical at any --jobs N, survives checkpoint/resume,
   and pre-v4 checkpoints still load with empty analytics. *)

module Analytics = O4a_analytics.Analytics
module Checkpoint = Orchestrator.Checkpoint
module Campaign = Once4all.Campaign
module Telemetry = O4a_telemetry.Telemetry
module Sink = O4a_telemetry.Sink
module Event = O4a_telemetry.Event
module Json = O4a_telemetry.Json

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* shared engines and generator library, built once *)
let campaign = lazy (Campaign.prepare ~seed:3 ())
let generators () = (Lazy.force campaign).Campaign.generators
let seed_pool = lazy (O4a_util.Listx.take 25 (Seeds.Corpus.all ()))

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
    ?(budget = 300) ?(shard_size = 60) () =
  Orchestrator.run ?jobs ?telemetry ?checkpoint_path
    ?base:(resume_base ~resume checkpoint_path) ?stop_after
    ~shard_size ~seed:91 ~budget ~generators:(generators ())
    ~seeds:(Lazy.force seed_pool) ()

(* ------------------------- derived series ------------------------- *)

let mk ~bucket ?(cov = []) ?(cl = []) () =
  {
    Analytics.bucket;
    first_tick = bucket * 10;
    ticks = 10;
    tests = 10;
    parse_ok = 9;
    solved = 7;
    findings = List.length cl;
    consults = 20;
    fuel = 1_000;
    cov_points = cov;
    clusters = cl;
  }

let test_series_cumulative () =
  let t =
    {
      Analytics.samples =
        [
          mk ~bucket:0 ~cov:[ "a"; "b" ] ~cl:[ "k1" ] ();
          mk ~bucket:1 ~cov:[ "b"; "c" ] ();
          mk ~bucket:2 ();
        ];
      yield = [];
    }
  in
  match Analytics.series t with
  | [ p0; p1; p2 ] ->
    check_int "bucket 0 new cov" 2 p0.Analytics.p_new_cov;
    check_int "bucket 0 cum cov" 2 p0.Analytics.p_cum_cov;
    check_int "bucket 1 new cov (b already seen)" 1 p1.Analytics.p_new_cov;
    check_int "bucket 1 cum cov" 3 p1.Analytics.p_cum_cov;
    check_int "bucket 2 new cov" 0 p2.Analytics.p_new_cov;
    check_int "bucket 2 cum cov" 3 p2.Analytics.p_cum_cov;
    check_int "cluster appears once" 1 p0.Analytics.p_cum_clusters;
    check_int "clusters stay flat" 1 p2.Analytics.p_cum_clusters
  | pts -> Alcotest.failf "expected 3 points, got %d" (List.length pts)

let flat_tail =
  (* coverage grows in buckets 0-1, then five flat buckets; no clusters *)
  {
    Analytics.samples =
      [
        mk ~bucket:0 ~cov:[ "a" ] ();
        mk ~bucket:1 ~cov:[ "b" ] ();
        mk ~bucket:2 ();
        mk ~bucket:3 ();
        mk ~bucket:4 ();
        mk ~bucket:5 ();
      ];
    yield = [];
  }

let test_plateau_detection () =
  match Analytics.plateaus ~window:4 flat_tail with
  | [ cov; cl ] ->
    check_string "coverage series" "coverage" cov.Analytics.pl_series;
    (* cum_cov = 1,2,2,2,2,2: first i with cum[i] = cum[i-4] is bucket 5 *)
    check_int "coverage plateau bucket" 5 cov.Analytics.pl_bucket;
    check_int "coverage plateau tick" 60 cov.Analytics.pl_tick;
    check_int "coverage plateau value" 2 cov.Analytics.pl_value;
    check_string "clusters series" "clusters" cl.Analytics.pl_series;
    (* cum_clusters = 0 throughout: flat from the start, declared at 4 *)
    check_int "clusters plateau bucket" 4 cl.Analytics.pl_bucket;
    check_int "clusters plateau value" 0 cl.Analytics.pl_value
  | pls -> Alcotest.failf "expected 2 plateaus, got %d" (List.length pls)

let test_plateau_monotone_under_extension () =
  (* once a prefix exhibits a plateau, every extension reports the same
     one — the property that makes incremental emission deterministic *)
  let extended =
    Analytics.merge flat_tail
      { Analytics.samples = [ mk ~bucket:6 ~cov:[ "z" ] () ]; yield = [] }
  in
  check_bool "extension reports the prefix's plateau" true
    (Analytics.plateaus ~window:4 flat_tail
    = Analytics.plateaus ~window:4 extended)

let test_no_plateau_while_growing () =
  let growing =
    {
      Analytics.samples =
        List.init 6 (fun i ->
            mk ~bucket:i ~cov:[ Printf.sprintf "p%d" i ] ());
      yield = [];
    }
  in
  check_bool "coverage still growing" true
    (List.for_all
       (fun (pl : Analytics.plateau) -> pl.Analytics.pl_series <> "coverage")
       (Analytics.plateaus ~window:4 growing));
  check_bool "short series never plateaus" true
    (Analytics.plateaus ~window:4
       { flat_tail with Analytics.samples = [ mk ~bucket:0 () ] }
    = [])

(* ------------------------- incremental tracker ------------------------- *)

(* A campaign as the merge owner sees it: [window], one optional sample per
   shard ([None]: quarantined, so no sample), and the order shards complete
   in. Points come from small alphabets, so the curves flatten. *)
let gen_settling =
  let open QCheck.Gen in
  let names prefix bound n =
    list_size (int_bound n) (map (Printf.sprintf "%s%d" prefix) (int_bound bound))
  in
  let* window = int_range 1 4 in
  let* n = int_range 0 16 in
  let* samples =
    flatten_l
      (List.init n (fun bucket ->
           let* present = frequencyl [ (5, true); (1, false) ] in
           let* cov = names "p" 6 2 in
           let* cl = names "k" 3 1 in
           return (if present then Some (mk ~bucket ~cov ~cl ()) else None)))
  in
  let* order = shuffle_l (List.init n Fun.id) in
  return (window, Array.of_list samples, order)

let print_settling (window, samples, order) =
  let sample = function
    | None -> "-"
    | Some (s : Analytics.sample) ->
      Printf.sprintf "{%s|%s}"
        (String.concat "," s.Analytics.cov_points)
        (String.concat "," s.Analytics.clusters)
  in
  Printf.sprintf "window %d, samples %s, order %s" window
    (String.concat " " (Array.to_list (Array.map sample samples)))
    (String.concat " " (List.map string_of_int order))

(* the merge owner's loop: each completion settles a prefix; the tracker is
   fed the samples it settled and must return what [plateaus] of that
   prefix shows and was not announced before, in [plateaus]' order *)
let prop_tracker_matches_plateaus =
  QCheck.Test.make ~name:"tracker = settled plateaus"
    ~count:1000
    (QCheck.make ~print:print_settling gen_settling)
    (fun (window, samples, order) ->
      let n = Array.length samples in
      let accounted = Array.make n false in
      let settled = ref 0 and announced = ref [] in
      let tracker = Analytics.tracker ~window in
      List.for_all
        (fun i ->
          accounted.(i) <- true;
          let fresh = ref [] in
          while !settled < n && accounted.(!settled) do
            Option.iter (fun s -> fresh := s :: !fresh) samples.(!settled);
            incr settled
          done;
          let got = Analytics.advance tracker (List.rev !fresh) in
          let prefix =
            {
              Analytics.samples =
                List.filter_map Fun.id
                  (Array.to_list (Array.sub samples 0 !settled));
              yield = [];
            }
          in
          let expected =
            List.filter
              (fun (p : Analytics.plateau) ->
                not (List.mem p.Analytics.pl_series !announced))
              (Analytics.plateaus ~window prefix)
          in
          announced :=
            List.map (fun (p : Analytics.plateau) -> p.Analytics.pl_series)
              expected
            @ !announced;
          got = expected)
        order)

(* ------------------------- rendering smoke ------------------------- *)

let test_sparkline () =
  check_string "scaled to max" " -=@" (Analytics.sparkline [ 0.; 1.5; 2.; 4. ]);
  check_string "all-zero stays low" "   " (Analytics.sparkline [ 0.; 0.; 0. ]);
  check_string "empty" "" (Analytics.sparkline [])

let test_csv_shape () =
  let csv = Analytics.to_csv flat_tail in
  let lines = String.split_on_char '\n' (String.trim csv) in
  check_int "header + one row per bucket" 7 (List.length lines);
  check_string "header names every column"
    "bucket,first_tick,ticks,tests,parse_ok,solved,findings,consults,fuel,\
     new_cov,cum_cov,new_clusters,cum_clusters"
    (List.hd lines)

let test_prometheus_shape () =
  let text =
    Analytics.to_prometheus
      {
        flat_tail with
        Analytics.yield =
          [
            {
              Analytics.y_theory = "strings";
              y_profile = "gpt-4";
              y_seed_cluster = "ab12cd34";
              y_tests = 5;
              y_parse_ok = 4;
              y_findings = 1;
            };
          ];
      }
  in
  let contains sub =
    let nl = String.length sub and ml = String.length text in
    let rec find i =
      i + nl <= ml && (String.sub text i nl = sub || find (i + 1))
    in
    find 0
  in
  check_bool "campaign totals" true (contains "once4all_tests_total 60");
  check_bool "plateau gauge with labels" true
    (contains "once4all_plateau_tick{series=\"coverage\",window=\"4\"} 60");
  check_bool "yield counter with labels" true
    (contains
       "once4all_yield_tests{theory=\"strings\",profile=\"gpt-4\",\
        seed_cluster=\"ab12cd34\"} 5")

(* ------------------------- campaign contracts ------------------------- *)

let test_jobs_invariance () =
  let r1 = run ~jobs:1 () in
  let r4 = run ~jobs:4 () in
  check_bool "campaign produced samples" true
    (Analytics.series r1.Orchestrator.analytics <> []);
  check_string "CSV byte-identical at jobs 4"
    (Analytics.to_csv r1.Orchestrator.analytics)
    (Analytics.to_csv r4.Orchestrator.analytics);
  check_string "JSON byte-identical at jobs 4"
    (Json.to_string (Analytics.codec.enc r1.Orchestrator.analytics))
    (Json.to_string (Analytics.codec.enc r4.Orchestrator.analytics));
  check_bool "plateau set identical" true
    (r1.Orchestrator.plateaus = r4.Orchestrator.plateaus)

let plateau_events sink =
  List.filter_map
    (fun (e : Event.t) ->
      if e.Event.name = Analytics.plateau_event_name then Some e.Event.fields
      else None)
    (Sink.events sink)

let test_plateau_events_deterministic () =
  (* 60 narrow shards so both curves flatten (clusters by tick 110,
     coverage by tick 250); the emitted event stream must not depend on
     shard completion order *)
  let observe jobs =
    let sink = Sink.memory () in
    let tel = Telemetry.create ~sink () in
    let r = run ~jobs ~telemetry:tel ~shard_size:5 () in
    (plateau_events sink, r)
  in
  let ev1, r1 = observe 1 in
  let ev4, _ = observe 4 in
  check_bool "both series announced" true
    (List.sort compare (List.map (List.assoc "series") ev1)
    = [ Json.String "clusters"; Json.String "coverage" ]);
  check_bool "event streams identical across jobs" true (ev1 = ev4);
  (* every emitted event is the plateau the final series reports, and every
     final plateau was announced exactly once *)
  let final =
    List.map
      (fun (pl : Analytics.plateau) ->
        [
          ("series", Json.String pl.Analytics.pl_series);
          ("bucket", Json.Int pl.Analytics.pl_bucket);
          ("tick", Json.Int pl.Analytics.pl_tick);
          ("window", Json.Int pl.Analytics.pl_window);
          ("value", Json.Int pl.Analytics.pl_value);
        ])
      r1.Orchestrator.plateaus
  in
  check_bool "events match the final plateau set" true
    (List.sort compare ev1 = List.sort compare final)

(* The merge owner itself, fed hand-made outcomes whose coverage stops
   growing after bucket 1 and which find no clusters (window 4: clusters
   plateau at bucket 4, coverage at bucket 5). Each plateau is announced
   once, by the absorb that settles the prefix exhibiting it. *)
let test_merge_announces_plateaus () =
  let n = 8 in
  let plan = Array.of_list (Orchestrator.Shard.plan ~budget:(10 * n) ~shard_size:10) in
  let outcome i =
    let cov = [ Printf.sprintf "p%d" (min i 1) ] in
    Orchestrator.Merged
      ( {
          Orchestrator.merged =
            {
              Checkpoint.m_result =
                { Checkpoint.shard = i; tests = 10; parse_ok = 10; solved = 10;
                  bytes_total = 0; findings = [] };
              m_coverage = [];
              m_health = [];
              m_analytics =
                { Analytics.samples = [ mk ~bucket:i ~cov () ]; yield = [] };
            };
          events = [];
          promoted = [];
          profile_export = O4a_profile.Profile.empty;
        },
        [],
        [] )
  in
  (* the plateau series announced by each absorb, and the final plateaus *)
  let announce order =
    let sink = Sink.memory () in
    let tel = Telemetry.create ~sink () in
    let env = Orchestrator.make_env ~seed:1 ~generators:[] ~seeds:[] () in
    let merge =
      Orchestrator.Merge.create ~env ~tel ~jobs:2 ~budget:(10 * n)
        ~shard_size:10 ~extra:[] ()
    in
    let seen = ref 0 in
    let per_absorb =
      List.map
        (fun i ->
          Orchestrator.Merge.absorb merge plan.(i) (outcome i);
          let events = plateau_events sink in
          let fresh = List.filteri (fun j _ -> j >= !seen) events in
          seen := List.length events;
          List.map (fun fields -> List.assoc "series" fields) fresh)
        order
    in
    let r = Orchestrator.Merge.finalize ~interrupted:false ~stopped:false merge in
    (per_absorb, plateau_events sink, r.Orchestrator.plateaus)
  in
  let in_order, ev_in_order, final = announce (List.init n Fun.id) in
  let s name = Json.String name in
  check_bool "in order: clusters at shard 4, coverage at shard 5" true
    (in_order = [ []; []; []; []; [ s "clusters" ]; [ s "coverage" ]; []; [] ]);
  let reversed, ev_reversed, _ = announce (List.rev (List.init n Fun.id)) in
  check_bool "reversed: both at the last absorb, coverage first" true
    (reversed
    = [ []; []; []; []; []; []; []; [ s "coverage"; s "clusters" ] ]);
  check_bool "the same events either way" true
    (List.sort compare ev_in_order = List.sort compare ev_reversed);
  check_bool "the final plateaus, each announced once" true
    (List.map
       (fun (pl : Analytics.plateau) -> (pl.Analytics.pl_series, pl.Analytics.pl_bucket))
       final
    = [ ("coverage", 5); ("clusters", 4) ]
    && List.length ev_reversed = List.length final)

let test_checkpoint_carries_analytics () =
  let path = Filename.temp_file "o4a_analytics" ".json" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let r = run ~jobs:2 ~checkpoint_path:path () in
      match Checkpoint.load ~path with
      | Error e ->
        Alcotest.fail ("load failed: " ^ Checkpoint.load_error_to_string ~path e)
      | Ok cp ->
        check_bool "checkpoint analytics = report analytics" true
          (cp.Checkpoint.analytics = r.Orchestrator.analytics);
        check_bool "analytics artifact flagged" true
          cp.Checkpoint.artifacts.Checkpoint.a_analytics;
        check_bool "telemetry artifact not flagged" false
          cp.Checkpoint.artifacts.Checkpoint.a_telemetry)

let test_resume_preserves_series () =
  let path = Filename.temp_file "o4a_analytics_resume" ".json" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let full = run ~jobs:1 () in
      let partial = run ~jobs:1 ~checkpoint_path:path ~stop_after:2 () in
      check_bool "interrupted" true partial.Orchestrator.interrupted;
      let resumed = run ~jobs:4 ~checkpoint_path:path ~resume:true () in
      check_string "resumed series = uninterrupted series"
        (Analytics.to_csv full.Orchestrator.analytics)
        (Analytics.to_csv resumed.Orchestrator.analytics);
      check_bool "resumed plateau set identical" true
        (full.Orchestrator.plateaus = resumed.Orchestrator.plateaus))

(* ------------------------- forward compatibility ------------------------- *)

let rec strip_keys keys = function
  | Json.Obj fields ->
    Json.Obj
      (List.filter_map
         (fun (k, v) ->
           if List.mem k keys then None else Some (k, strip_keys keys v))
         fields)
  | Json.List l -> Json.List (List.map (strip_keys keys) l)
  | j -> j

let set_version v = function
  | Json.Obj fields ->
    Json.Obj
      (List.map
         (fun (k, x) -> if k = "version" then (k, Json.Int v) else (k, x))
         fields)
  | j -> j

let test_pre_v4_checkpoint_loads_empty () =
  let path = Filename.temp_file "o4a_analytics_v3" ".json" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let r = run ~jobs:1 ~checkpoint_path:path () in
      check_bool "v4 campaign recorded samples" true
        (r.Orchestrator.analytics.Analytics.samples <> []);
      let json =
        match
          Json.parse (In_channel.with_open_bin path In_channel.input_all)
        with
        | Ok j -> j
        | Error e -> Alcotest.fail ("checkpoint unreadable: " ^ e)
      in
      match
        Checkpoint.codec.dec
          (set_version 3 (strip_keys [ "analytics"; "artifacts" ] json))
      with
      | Error e -> Alcotest.fail ("v3 decode failed: " ^ e)
      | Ok cp ->
        check_bool "v3 loads with empty analytics" true
          (cp.Checkpoint.analytics = Analytics.empty);
        check_bool "v3 loads with no artifacts" true
          (cp.Checkpoint.artifacts = Checkpoint.no_artifacts))

let () =
  Alcotest.run "analytics"
    [
      ( "series",
        [
          Alcotest.test_case "cumulative curves" `Quick test_series_cumulative;
          Alcotest.test_case "plateau detection" `Quick test_plateau_detection;
          Alcotest.test_case "plateau monotone under extension" `Quick
            test_plateau_monotone_under_extension;
          Alcotest.test_case "no plateau while growing" `Quick
            test_no_plateau_while_growing;
        ] );
      ( "incremental",
        [ QCheck_alcotest.to_alcotest prop_tracker_matches_plateaus ] );
      ( "rendering",
        [
          Alcotest.test_case "sparkline" `Quick test_sparkline;
          Alcotest.test_case "csv shape" `Quick test_csv_shape;
          Alcotest.test_case "prometheus shape" `Quick test_prometheus_shape;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "jobs 1 = jobs 4" `Slow test_jobs_invariance;
          Alcotest.test_case "plateau events deterministic" `Slow
            test_plateau_events_deterministic;
          Alcotest.test_case "merge announces plateaus" `Quick
            test_merge_announces_plateaus;
          Alcotest.test_case "checkpoint carries analytics" `Slow
            test_checkpoint_carries_analytics;
          Alcotest.test_case "resume preserves series" `Slow
            test_resume_preserves_series;
        ] );
      ( "compatibility",
        [
          Alcotest.test_case "pre-v4 checkpoint loads empty" `Slow
            test_pre_v4_checkpoint_loads_empty;
        ] );
    ]
