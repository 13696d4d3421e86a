(* Format fixtures: files written by an earlier build of the project, kept
   under fixtures/, pin every persisted and wire format byte for byte. A v4
   checkpoint (and a quarantined one), a repro bundle, three wire outcomes
   and a job spec must re-encode to their exact bytes (the checkpoints at
   version 5, the version this build writes); the v1-v3 checkpoints,
   derived by hand from the v4 one, must decode to the documented defaults
   for the members their version lacked, and the v5 journal must fold to
   the v4 checkpoint. A failure here
   means a codec drifted, so files on disk and peers on the wire would no
   longer interoperate. The last group mutates the same files to check that
   no decoder at a trust boundary raises. *)

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

(* a v4 file's bytes as this build writes them: version 5 *)
let as_v5 s =
  let v4 = {|{"version":4,|} in
  let n = String.length v4 in
  if String.length s >= n && String.sub s 0 n = v4 then
    {|{"version":5,|} ^ String.sub s n (String.length s - n)
  else s

(* through the file API, as resume reads and compaction writes it: the
   same bytes, at the version this build writes *)
let test_checkpoint_file name () =
  let cp = (load_checkpoint name).Checkpoint.i_checkpoint in
  let path = Filename.temp_file "o4a_fixture" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Checkpoint.save ~path cp;
      check_string (name ^ " saves byte for byte") (as_v5 (read (fixture name)))
        (read path))

(* the v5 journal is the v4 fixture's campaign before compaction: a header
   written before any shard ran, then one entry per merged shard *)
let test_journal () =
  let v4 = (load_checkpoint "checkpoint_v4.json").Checkpoint.i_checkpoint in
  let info = load_checkpoint "checkpoint_v5.json" in
  check_int "checkpoint_v5.json version" 5 info.Checkpoint.i_version;
  check_int "a header and two entries" 3
    (List.length (String.split_on_char '\n' (String.trim (read (fixture "checkpoint_v5.json")))));
  check_bool "the journal folds to the v4 checkpoint" true
    (info.Checkpoint.i_checkpoint = v4)

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

(* Decoding checks a checkpoint's shard lists with the table of settled
   shards alone, and [start] builds its state on the same table: over the
   v4 fixture with random lists (indices listed twice, outside its 4-shard
   plan, or in both lists) the codec, [start] and [remaining] accept the
   same lists and refuse the rest with one message. The lists are sorted,
   as the codec writes them. *)
let prop_decode_refuses_what_start_refuses =
  let v4 = lazy (load_checkpoint "checkpoint_v4.json").Checkpoint.i_checkpoint in
  let indices =
    QCheck.Gen.(map (List.sort compare) (list_size (int_bound 5) (int_range (-1) 4)))
  in
  let print (completed, quarantined) =
    let ints l = String.concat "," (List.map string_of_int l) in
    Printf.sprintf "completed [%s], quarantined [%s]" (ints completed) (ints quarantined)
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"decode refuses as start does" ~count:500
       (QCheck.make ~print (QCheck.Gen.pair indices indices))
       (fun (completed, quarantined) ->
         let v4 = Lazy.force v4 in
         let result = List.hd v4.Checkpoint.completed in
         let cp =
           { v4 with
             Checkpoint.completed =
               List.map (fun shard -> { result with Checkpoint.shard }) completed;
             quarantined =
               List.map
                 (fun q_shard ->
                   { Checkpoint.q_shard; q_first_tick = 10 * q_shard; q_ticks = 10;
                     q_attempts = 4; q_sites = [ "worker_death" ] })
                 quarantined }
         in
         let started = Result.map ignore (Checkpoint.start cp) in
         let decoded =
           Checkpoint.codec.Json.Codec.dec (Checkpoint.codec.Json.Codec.enc cp)
         in
         let remaining =
           match Checkpoint.remaining (Some cp) [] with
           | _ -> Ok ()
           | exception Invalid_argument msg -> Error msg
         in
         let prefixed p = Result.map_error (fun msg -> p ^ msg) started in
         Result.map ignore decoded = prefixed "checkpoint: "
         && remaining = prefixed "Checkpoint.remaining: "))

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

(* ------------------------ decoders never raise ------------------------ *)

(* Every decoder at a trust boundary returns a result, whatever bytes
   arrive: mutations of the fixture encodings (and of the seed corpus, for
   the SMT-LIB parser) must decode to [Ok] or [Error], never raise. The
   inputs are random per run; a failure prints the mutant. *)

(* extreme stand-ins for a number token *)
let odd_numbers =
  [ "99999999999999999999999"; "4611686018427387904"; "-4611686018427387905";
    "-1"; "-0"; "0.5"; "-2.5e-3"; "1e309"; "1e-400"; "7E+2" ]

(* (start, length) of every maximal run of digits, signs, dots and
   exponents — the number tokens of a JSON text, roughly *)
let number_spans s =
  let is_num c = (c >= '0' && c <= '9') || c = '-' || c = '.' || c = 'e' || c = 'E' || c = '+' in
  let spans = ref [] in
  let i = ref 0 in
  let n = String.length s in
  while !i < n do
    if s.[!i] >= '0' && s.[!i] <= '9' then (
      let j = ref !i in
      while !j < n && is_num s.[!j] do incr j done;
      spans := (!i, !j - !i) :: !spans;
      i := !j)
    else incr i
  done;
  Array.of_list !spans

(* a value of another type than [v] *)
let other_type st (v : Json.t) =
  let kind : Json.t -> int = function
    | Json.Null -> 0
    | Json.Bool _ -> 1
    | Json.Int _ | Json.Float _ -> 2
    | Json.String _ -> 3
    | Json.List _ -> 4
    | Json.Obj _ -> 5
  in
  let others =
    List.filter
      (fun o -> kind o <> kind v)
      [ Json.Null; Json.Bool true; Json.Int (-1); Json.Float 0.5;
        Json.String "x"; Json.List []; Json.Obj [] ]
  in
  List.nth others (Random.State.int st (List.length others))

(* replace the [k]th node (pre-order) of [v] with a value of another type *)
let retype st k v =
  let count = ref 0 in
  let rec go (v : Json.t) : Json.t =
    let here = !count in
    incr count;
    if here = k then other_type st v
    else
      match v with
      | Json.List xs -> Json.List (List.map go xs)
      | Json.Obj ms -> Json.Obj (List.map (fun (m, x) -> (m, go x)) ms)
      | v -> v
  in
  go v

let rec nodes (v : Json.t) =
  match v with
  | Json.List xs -> List.fold_left (fun acc x -> acc + nodes x) 1 xs
  | Json.Obj ms -> List.fold_left (fun acc (_, x) -> acc + nodes x) 1 ms
  | _ -> 1

(* one textual mutation: a byte edit, a truncation, a duplicated span or
   an extreme number *)
let mutate_text st s =
  let n = String.length s in
  let pos () = Random.State.int st (max 1 n) in
  match Random.State.int st 4 with
  | 0 ->
    let i = pos () in
    let b = Bytes.of_string s in
    if n > 0 then Bytes.set b i (Char.chr (Random.State.int st 256));
    Bytes.to_string b
  | 1 -> String.sub s 0 (pos ())
  | 2 ->
    let i = pos () in
    let len = Random.State.int st (min 64 (n - i) + 1) in
    let at = pos () in
    String.sub s 0 at ^ String.sub s i len ^ String.sub s at (n - at)
  | _ -> (
    match number_spans s with
    | [||] -> s
    | spans ->
      let i, len = spans.(Random.State.int st (Array.length spans)) in
      let odd = List.nth odd_numbers (Random.State.int st (List.length odd_numbers)) in
      String.sub s 0 i ^ odd ^ String.sub s (i + len) (n - i - len))

(* textual mutations plus retyping a value, for JSON encodings *)
let mutate_json st s =
  match (Random.State.int st 5, Json.parse s) with
  | 0, Ok v -> Json.to_string (retype st (Random.State.int st (nodes v)) v)
  | _ -> mutate_text st s

(* [count] mutated copies of the [seeds], read when the test runs (the
   fixtures are relative to the test's working directory); [decode] must
   not raise *)
let never_raises ~name ~count ~mutate seeds decode =
  let seeds = lazy (Array.of_list (Lazy.force seeds)) in
  let gen st =
    let seeds = Lazy.force seeds in
    mutate st seeds.(Random.State.int st (Array.length seeds))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count
       (QCheck.make ~print:(fun s -> String.escaped s) gen)
       (fun input ->
         match decode input with
         | Ok _ | Error _ -> true
         | exception e ->
           QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e)))

let json_decoder codec input = Result.bind (Json.parse input) codec.Json.Codec.dec

let fixtures names = lazy (List.map (fun f -> read (fixture f)) names)

let decoder_props =
  let wires =
    fixtures [ "wire_traced.json"; "wire_quarantined.json"; "wire_profiled.json" ]
  in
  let requests =
    lazy
      (List.map
         (fun r -> Json.to_string (O4a_server.Protocol.request_codec.enc r))
         O4a_server.Protocol.
           [ Submit (decode_file Jobspec.codec (fixture "jobspec.json")); Jobs;
             Watch { job = "fixture-spec"; from = 3 }; Metrics "fixture-spec";
             Worker_register { slots = 2 };
             Worker_heartbeat { leases = [ 1; 5 ] };
             Worker_result
               { lease = 7;
                 outcome =
                   Result.get_ok (Json.parse (List.nth (Lazy.force wires) 1)) } ])
  in
  let mutant_file =
    lazy
      (let path = Filename.temp_file "o4a_mutant" ".json" in
       at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
       path)
  in
  let corpus = Seeds.Corpus.all () in
  [
    never_raises ~name:"Checkpoint.inspect" ~count:500 ~mutate:mutate_json
      (fixtures
         [ "checkpoint_v1.json"; "checkpoint_v2.json"; "checkpoint_v3.json";
           "checkpoint_v4.json"; "checkpoint_v5.json";
           "checkpoint_quarantine.json" ])
      (fun input ->
        let path = Lazy.force mutant_file in
        Out_channel.with_open_bin path (fun oc -> output_string oc input);
        Checkpoint.inspect ~path);
    never_raises ~name:"Wire.outcome_codec" ~count:1000 ~mutate:mutate_json wires
      (json_decoder Wire.outcome_codec);
    never_raises ~name:"Jobspec.codec" ~count:3000 ~mutate:mutate_json
      (fixtures [ "jobspec.json" ]) (json_decoder Jobspec.codec);
    never_raises ~name:"Protocol.request_codec" ~count:3000 ~mutate:mutate_json
      requests (json_decoder O4a_server.Protocol.request_codec);
    never_raises ~name:"Parser.parse_script" ~count:(20 * List.length corpus)
      ~mutate:mutate_text
      (lazy (List.map Smtlib.Printer.script corpus))
      Smtlib.Parser.parse_script;
    (* what the oracle's one front end gets: the text [Synthesize.fill],
       [fill_typed] and [direct] emit over a pinned stream, raw generator
       residue included, as is and byte-mutated *)
    never_raises ~name:"Parser.parse_script on synthesized text" ~count:2000
      ~mutate:(fun st s -> if Random.State.int st 4 = 0 then s else mutate_text st s)
      (lazy
        (List.map
           (fun (f : Once4all.Synthesize.filled) -> f.Once4all.Synthesize.source)
           (Fuzz_stream.stream ~mutate:Fuzz_stream.any_synthesis ~seed:41 ~ticks:300 ())))
      Smtlib.Parser.parse_script;
  ]

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
          Alcotest.test_case "v5 journal" `Quick test_journal;
          prop_decode_refuses_what_start_refuses;
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
      ("decoders never raise", decoder_props);
    ]
