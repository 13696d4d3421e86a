module Trace = O4a_trace.Trace
module Bundle = O4a_trace.Bundle
module Json = O4a_telemetry.Json

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ------------------------- trace ids ------------------------- *)

let test_id_determinism () =
  check_string "same (seed, tick), same id"
    (Trace.id_of ~seed:43 ~tick:17)
    (Trace.id_of ~seed:43 ~tick:17);
  check_bool "different tick, different id" true
    (Trace.id_of ~seed:43 ~tick:17 <> Trace.id_of ~seed:43 ~tick:18);
  check_bool "different seed, different id" true
    (Trace.id_of ~seed:43 ~tick:17 <> Trace.id_of ~seed:44 ~tick:17)

let test_id_order_is_tick_order () =
  let ids = List.init 50 (fun tick -> Trace.id_of ~seed:7 ~tick:(tick * 37)) in
  check_bool "lexicographic = tick order" true
    (List.sort compare ids = ids)

(* ------------------------- JSON codec ------------------------- *)

let all_records =
  [
    Trace.Seed_selected { hash = "abcd"; bytes = 120; size = 17 };
    Trace.Skeletonized { mode = "boolean"; holes = 2 };
    Trace.Skeleton_hole { hole = 0; path = "0.2.1"; sort = None };
    Trace.Skeleton_hole { hole = 1; path = ""; sort = Some "(_ BitVec 8)" };
    Trace.Adapted { substitutions = [ ("x0", "a"); ("y1", "b") ] };
    Trace.Hole_filled { hole = 0; theory = "strings"; sort = None; raw = false };
    Trace.Hole_filled
      { hole = 1; theory = "bitvectors"; sort = Some "(_ BitVec 8)"; raw = true };
    Trace.Direct_generated { terms = 3; theories = [ "sets"; "bags" ] };
    Trace.Synthesized { bytes = 314; parse_ok = true; theories = [ "strings" ] };
    Trace.Parse_rejected { error = "unexpected ')'" };
    Trace.Solver_run
      {
        solver = "zeal-trunk";
        commit = 100;
        verdict = "sat";
        steps = 812;
        decisions = 31;
        propagations = 7;
      };
    Trace.Oracle_verdict
      {
        kind = Some "crash";
        solver = Some "cove-trunk";
        signature = Some "src/x.cpp:1 f";
        bug_id = Some "cove-001";
        theory = Some "sets";
        mode = Some "degraded:zeal-trunk";
      };
    Trace.Oracle_verdict
      {
        kind = None;
        solver = None;
        signature = None;
        bug_id = None;
        theory = None;
        mode = None;
      };
  ]

let test_record_roundtrip () =
  List.iter
    (fun r ->
      match Trace.record_codec.dec (Trace.record_codec.enc r) with
      | Ok r' -> check_bool "record round-trips" true (r = r')
      | Error e -> Alcotest.fail ("record decode failed: " ^ e))
    all_records;
  let decode text = Result.bind (Json.parse text) Trace.record_codec.dec in
  (* a non-string theory is an error, not silently dropped *)
  check_bool "non-string theory rejected" true
    (decode {|{"stage":"direct","terms":1,"theories":["sets",3]}|}
    = Error {|field "theories": element 1: expected a string|});
  (* traces recorded before oracle modes existed still decode *)
  check_bool "verdict without a mode" true
    (decode {|{"stage":"verdict","kind":null,"solver":null,"signature":null,"bug_id":null,"theory":null}|}
    = Ok
        (Trace.Oracle_verdict
           { kind = None; solver = None; signature = None; bug_id = None;
             theory = None; mode = None }))

let sample_trace =
  {
    Trace.id = Trace.id_of ~seed:43 ~tick:3;
    campaign_seed = 43;
    tick = 3;
    records = all_records;
  }

let sample_finding =
  {
    Trace.kind = "crash";
    solver = "cove";
    solver_name = "cove-trunk";
    signature = "src/x.cpp:1 f";
    bug_id = Some "cove-001";
    theory = "sets";
    dedup_key = "crash:src/x.cpp:1 f";
    mode = "differential";
  }

let sample_promoted =
  { Trace.trace = sample_trace; source = "(assert true)(check-sat)"; finding = sample_finding }

let test_trace_roundtrip () =
  (* through the printer and parser, like a bundle on disk *)
  let text = Json.to_string (Trace.codec.enc sample_trace) in
  match Result.bind (Json.parse text) Trace.codec.dec with
  | Ok t -> check_bool "trace round-trips through text" true (t = sample_trace)
  | Error e -> Alcotest.fail ("trace decode failed: " ^ e)

let test_promoted_roundtrip () =
  let text = Json.to_string (Trace.promoted_codec.enc sample_promoted) in
  match Result.bind (Json.parse text) Trace.promoted_codec.dec with
  | Ok p -> check_bool "promoted round-trips" true (p = sample_promoted)
  | Error e -> Alcotest.fail ("promoted decode failed: " ^ e)

let test_rejects_garbage () =
  check_bool "unknown stage" true
    (Result.is_error
       (Trace.record_codec.dec (Json.Obj [ ("stage", Json.String "nope") ])));
  check_bool "not an object" true (Result.is_error (Trace.codec.dec (Json.Int 3)))

let test_solvers_run () =
  check_bool "solver/commit pairs in run order" true
    (Trace.solvers_run sample_trace = [ ("zeal-trunk", 100) ])

let test_render_mentions_stages () =
  let out = Trace.render sample_trace in
  List.iter
    (fun sub ->
      check_bool ("render mentions " ^ sub) true
        (O4a_util.Strx.contains_sub ~sub out))
    [ sample_trace.Trace.id; "seed"; "skeletonize"; "fill"; "adapted"; "zeal-trunk"; "verdict" ]

(* ------------------------- recorder ------------------------- *)

let test_disabled_recorder_is_inert () =
  let r = Trace.Recorder.disabled in
  Trace.Recorder.start r ~tick:5;
  check_bool "never active" false (Trace.Recorder.active r);
  Trace.Recorder.record r (Trace.Skeletonized { mode = "boolean"; holes = 1 });
  Trace.Recorder.promote r ~source:"x" ~finding:sample_finding;
  Trace.Recorder.finish r;
  check_bool "no promotions" true (Trace.Recorder.promoted r = [])

let test_promotion_survives_eviction () =
  let r = Trace.Recorder.create ~seed:9 in
  Trace.Recorder.start r ~tick:0;
  Trace.Recorder.promote r ~source:"s0" ~finding:sample_finding;
  Trace.Recorder.finish r;
  Trace.Recorder.start r ~tick:1;
  Trace.Recorder.finish r;
  (* finishing drops the trace in progress, never a promoted one *)
  match Trace.Recorder.promoted r with
  | [ p ] ->
    check_int "promoted tick" 0 p.Trace.trace.Trace.tick;
    check_string "promoted source" "s0" p.Trace.source;
    check_string "promoted id matches id_of" (Trace.id_of ~seed:9 ~tick:0)
      p.Trace.trace.Trace.id
  | ps -> Alcotest.failf "expected one promotion, got %d" (List.length ps)

(* the records a finished trace held, read back through its promotion *)
let promoted_records r =
  List.map (fun (p : Trace.promoted) -> p.Trace.trace.Trace.records)
    (Trace.Recorder.promoted r)

let test_records_only_between_start_and_finish () =
  let r = Trace.Recorder.create ~seed:9 in
  Trace.Recorder.record r (Trace.Skeletonized { mode = "boolean"; holes = 1 });
  Trace.Recorder.start r ~tick:4;
  Trace.Recorder.record r (Trace.Skeletonized { mode = "typed"; holes = 2 });
  Trace.Recorder.promote r ~source:"s4" ~finding:sample_finding;
  Trace.Recorder.finish r;
  Trace.Recorder.record r (Trace.Skeletonized { mode = "boolean"; holes = 3 });
  (* a finished trace is closed: promoting now captures nothing *)
  Trace.Recorder.promote r ~source:"late" ~finding:sample_finding;
  check_bool "only the in-trace record is kept" true
    (promoted_records r
    = [ [ Trace.Skeletonized { mode = "typed"; holes = 2 } ] ])

let test_ambient_scoping () =
  let r = Trace.Recorder.create ~seed:9 in
  check_bool "ambient starts disabled" false (Trace.noting ());
  Trace.Recorder.using r (fun () ->
      Trace.Recorder.start r ~tick:0;
      check_bool "ambient notes while installed" true (Trace.noting ());
      Trace.note (Trace.Skeletonized { mode = "boolean"; holes = 1 });
      Trace.Recorder.promote r ~source:"s0" ~finding:sample_finding;
      Trace.Recorder.finish r);
  check_bool "ambient restored" false (Trace.noting ());
  check_bool "note reached the installed recorder" true
    (promoted_records r
    = [ [ Trace.Skeletonized { mode = "boolean"; holes = 1 } ] ])

(* ------------------------- bundles ------------------------- *)

let with_temp_dir f =
  let dir = Filename.temp_file "o4a_trace" "" in
  Sys.remove dir;
  let rec rm path =
    if Sys.is_directory path then (
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path)
    else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm dir) (fun () -> f dir)

let test_bundle_roundtrip () =
  with_temp_dir (fun dir ->
      let bdir = Bundle.write ~dir sample_promoted in
      check_bool "bundle dir named after trace id" true
        (Filename.basename bdir = sample_trace.Trace.id);
      List.iter
        (fun f ->
          check_bool (f ^ " exists") true
            (Sys.file_exists (Filename.concat bdir f)))
        [ "formula.smt2"; "trace.json"; "meta.json"; "repro.sh" ];
      match Bundle.load ~path:bdir with
      | Ok p -> check_bool "bundle round-trips" true (p = sample_promoted)
      | Error e -> Alcotest.fail ("bundle load failed: " ^ e))

let test_bundle_repro_script () =
  with_temp_dir (fun dir ->
      let bdir = Bundle.write ~dir sample_promoted in
      let path = Filename.concat bdir "repro.sh" in
      let contents = In_channel.with_open_bin path In_channel.input_all in
      check_bool "executable" true ((Unix.stat path).Unix.st_perm land 0o100 <> 0);
      check_bool "invokes replay with the expected signature" true
        (O4a_util.Strx.contains_sub
           ~sub:"replay formula.smt2 --expect 'src/x.cpp:1 f'" contents);
      check_bool "honors $ONCE4ALL" true
        (O4a_util.Strx.contains_sub ~sub:"${ONCE4ALL:-once4all}" contents))

let test_bundle_scan () =
  with_temp_dir (fun dir ->
      let p2 =
        {
          sample_promoted with
          Trace.trace =
            {
              sample_trace with
              Trace.id = Trace.id_of ~seed:43 ~tick:11;
              tick = 11;
            };
        }
      in
      (* write out of tick order; scan must come back sorted by id *)
      ignore (Bundle.write ~dir p2);
      ignore (Bundle.write ~dir sample_promoted);
      (* a corrupt bundle is reported, not fatal *)
      let bad = Filename.concat dir "t999999-deadbeef" in
      Bundle.ensure_dir bad;
      Out_channel.with_open_bin (Filename.concat bad "meta.json") (fun oc ->
          Out_channel.output_string oc "{broken");
      let bundles, warnings = Bundle.scan ~dir in
      check_bool "tick order" true
        (List.map (fun (p : Trace.promoted) -> p.Trace.trace.Trace.tick) bundles
        = [ 3; 11 ]);
      check_int "one warning" 1 (List.length warnings);
      check_bool "warning names the bundle" true
        (O4a_util.Strx.contains_sub ~sub:"t999999-deadbeef" (List.hd warnings)))

let test_bundle_scan_missing_dir () =
  check_bool "missing dir scans empty" true
    (Bundle.scan ~dir:"/nonexistent/o4a" = ([], []))

let () =
  Alcotest.run "trace"
    [
      ( "ids",
        [
          Alcotest.test_case "deterministic" `Quick test_id_determinism;
          Alcotest.test_case "tick-ordered" `Quick test_id_order_is_tick_order;
        ] );
      ( "codec",
        [
          Alcotest.test_case "record round-trip" `Quick test_record_roundtrip;
          Alcotest.test_case "trace round-trip" `Quick test_trace_roundtrip;
          Alcotest.test_case "promoted round-trip" `Quick test_promoted_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_rejects_garbage;
          Alcotest.test_case "solvers_run" `Quick test_solvers_run;
          Alcotest.test_case "render" `Quick test_render_mentions_stages;
        ] );
      ( "recorder",
        [
          Alcotest.test_case "disabled inert" `Quick test_disabled_recorder_is_inert;
          Alcotest.test_case "promotion survives eviction" `Quick
            test_promotion_survives_eviction;
          Alcotest.test_case "start/finish bracket" `Quick
            test_records_only_between_start_and_finish;
          Alcotest.test_case "ambient scoping" `Quick test_ambient_scoping;
        ] );
      ( "bundles",
        [
          Alcotest.test_case "round-trip" `Quick test_bundle_roundtrip;
          Alcotest.test_case "repro script" `Quick test_bundle_repro_script;
          Alcotest.test_case "scan" `Quick test_bundle_scan;
          Alcotest.test_case "missing dir" `Quick test_bundle_scan_missing_dir;
        ] );
    ]
