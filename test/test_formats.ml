(* Format fixtures: files written by an earlier build of the project, kept
   under fixtures/, pin every persisted and wire format byte for byte. A v4
   checkpoint (and a quarantined one), a repro bundle, three wire outcomes
   and a job spec must re-encode to their exact bytes; the v1-v3
   checkpoints, derived by hand from the v4 one, must decode to the
   documented defaults for the members their version lacked. A failure here
   means a codec drifted, so files on disk and peers on the wire would no
   longer interoperate. *)

module Json = O4a_telemetry.Json
module Checkpoint = Orchestrator.Checkpoint
module Bundle = O4a_trace.Bundle
module Wire = O4a_server.Wire
module Jobspec = O4a_server.Jobspec
module Oracle = Once4all.Oracle
module Dedup = Once4all.Dedup

let check_string = Alcotest.(check string)
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let fixture name = Filename.concat "fixtures" name
let read path = In_channel.with_open_bin path In_channel.input_all

let decode_file codec path =
  match Result.bind (Json.parse (read path)) codec.Json.Codec.dec with
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" path e

(* decode, re-encode, compare with the file's bytes *)
let reencodes codec name () =
  let path = fixture name in
  let v = decode_file codec path in
  check_string (name ^ " re-encodes byte for byte") (read path)
    (Json.to_string (codec.Json.Codec.enc v) ^ "\n")

let load_checkpoint name =
  let path = fixture name in
  match Checkpoint.inspect ~path with
  | Ok info -> info
  | Error e -> Alcotest.fail (Checkpoint.load_error_to_string ~path e)

(* through the file API, as resume reads and every merge writes it *)
let test_checkpoint_file name () =
  let cp = (load_checkpoint name).Checkpoint.i_checkpoint in
  let path = Filename.temp_file "o4a_fixture" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Checkpoint.save ~path cp;
      check_string (name ^ " saves byte for byte") (read (fixture name))
        (read path))

(* what each older version decodes to, relative to the v4 original *)
let test_older_versions () =
  let v4 = (load_checkpoint "checkpoint_v4.json").Checkpoint.i_checkpoint in
  check_bool "v4 fixture carries findings" true
    (List.exists (fun sr -> sr.Checkpoint.findings <> []) v4.Checkpoint.completed);
  check_bool "v4 fixture carries health" true (v4.Checkpoint.health <> []);
  let v3 =
    {
      v4 with
      Checkpoint.analytics = O4a_analytics.Analytics.empty;
      artifacts = Checkpoint.no_artifacts;
    }
  in
  let differential (sr : Checkpoint.shard_result) =
    {
      sr with
      Checkpoint.findings =
        List.map
          (fun (f : Dedup.found) ->
            { f with Dedup.finding = { f.Dedup.finding with Oracle.mode = Oracle.Differential } })
          sr.Checkpoint.findings;
    }
  in
  let v2 =
    {
      v3 with
      Checkpoint.health = [];
      completed = List.map differential v3.Checkpoint.completed;
    }
  in
  let v1 = { v2 with Checkpoint.quarantined = [] } in
  List.iter
    (fun (version, expected) ->
      let name = Printf.sprintf "checkpoint_v%d.json" version in
      let info = load_checkpoint name in
      check_int (name ^ " version") version info.Checkpoint.i_version;
      check_bool (name ^ " decodes to the documented defaults") true
        (info.Checkpoint.i_checkpoint = expected))
    [ (3, v3); (2, v2); (1, v1) ]

let test_bundle () =
  let dir = fixture "bundle" in
  let id = "t000016-06a9914d" in
  let p =
    match Bundle.load ~path:(Filename.concat dir id) with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let out = Filename.temp_file "o4a_fixture" "" in
  Sys.remove out;
  let written = Bundle.write ~dir:out p in
  List.iter
    (fun file ->
      check_string (file ^ " rewrites byte for byte")
        (read (Filename.concat (Filename.concat dir id) file))
        (read (Filename.concat written file)))
    [ "formula.smt2"; "trace.json"; "meta.json" ]

let () =
  Alcotest.run "formats"
    [
      ( "fixtures",
        [
          Alcotest.test_case "v4 checkpoint" `Quick
            (test_checkpoint_file "checkpoint_v4.json");
          Alcotest.test_case "quarantine checkpoint" `Quick
            (test_checkpoint_file "checkpoint_quarantine.json");
          Alcotest.test_case "v1-v3 checkpoints" `Quick test_older_versions;
          Alcotest.test_case "bundle" `Quick test_bundle;
          Alcotest.test_case "wire traced" `Quick
            (reencodes Wire.outcome_codec "wire_traced.json");
          Alcotest.test_case "wire quarantined" `Quick
            (reencodes Wire.outcome_codec "wire_quarantined.json");
          Alcotest.test_case "wire profiled" `Quick
            (reencodes Wire.outcome_codec "wire_profiled.json");
          Alcotest.test_case "job spec" `Quick
            (reencodes Jobspec.codec "jobspec.json");
        ] );
    ]
