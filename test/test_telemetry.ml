module Telemetry = O4a_telemetry.Telemetry
module Sink = O4a_telemetry.Sink
module Event = O4a_telemetry.Event
module Json = O4a_telemetry.Json

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* a deterministic clock: each reading advances by 1ms *)
let ticking_clock () =
  let t = ref 0. in
  fun () ->
    t := !t +. 0.001;
    !t

(* ------------------------- Json ------------------------- *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("s", Json.String "he\"llo\n\t");
        ("i", Json.Int (-42));
        ("f", Json.Float 2.5);
        ("whole", Json.Float 3.);
        ("b", Json.Bool true);
        ("n", Json.Null);
        ("l", Json.List [ Json.Int 1; Json.String "x"; Json.Bool false ]);
      ]
  in
  match Json.parse (Json.to_string v) with
  | Error e -> Alcotest.fail ("reparse failed: " ^ e)
  | Ok v' -> check_bool "round-trips" true (Json.equal v v')

let test_json_special_floats () =
  (* the printer must never produce invalid JSON *)
  check_str "nan" "null" (Json.to_string (Json.Float Float.nan));
  check_str "inf" "null" (Json.to_string (Json.Float Float.infinity));
  check_str "whole float keeps a point" "2.0" (Json.to_string (Json.Float 2.))

let test_json_rejects_garbage () =
  check_bool "trailing" true (Result.is_error (Json.parse "{\"a\":1} x"));
  check_bool "unterminated" true (Result.is_error (Json.parse "{\"a\":"));
  check_bool "bare word" true (Result.is_error (Json.parse "hello"))

(* ------------------------- Telemetry + sinks ------------------------- *)

let test_disabled_records_nothing () =
  let t = Telemetry.disabled in
  Telemetry.emit t "e" [];
  let r = Telemetry.with_span t "s" (fun () -> 7) in
  check_int "passes value through" 7 r;
  check_bool "not enabled" false (Telemetry.enabled t);
  check_bool "no events" true (Sink.events (Telemetry.sink t) = [])

let test_memory_sink_capture () =
  let sink = Sink.memory () in
  let t = Telemetry.create ~sink ~clock:(ticking_clock ()) () in
  Telemetry.emit t "first" [ ("k", Json.Int 1) ];
  Telemetry.emit t "second" [];
  match Sink.events sink with
  | [ a; b ] ->
    check_str "order" "first" a.Event.name;
    check_str "order2" "second" b.Event.name;
    check_bool "field" true (Event.field "k" a = Some (Json.Int 1));
    check_bool "timestamps increase" true (b.Event.ts > a.Event.ts)
  | es -> Alcotest.failf "expected 2 events, got %d" (List.length es)

let test_span_nesting () =
  let sink = Sink.memory () in
  let t = Telemetry.create ~sink ~clock:(ticking_clock ()) () in
  let r =
    Telemetry.with_span t "outer" (fun () ->
        Telemetry.with_span t "inner" (fun () -> 21) * 2)
  in
  check_int "result" 42 r;
  (* inner completes first, so it is emitted first *)
  match Sink.events sink with
  | [ inner; outer ] ->
    check_bool "inner stage" true (Event.field "stage" inner = Some (Json.String "inner"));
    check_bool "inner parent" true
      (Event.field "parent" inner = Some (Json.String "outer"));
    check_bool "inner depth" true (Event.field "depth" inner = Some (Json.Int 1));
    check_bool "outer has no parent" true (Event.field "parent" outer = None);
    check_bool "positive duration" true
      (match Event.field "dur_us" outer with
      | Some d -> Option.value ~default:(-1.) (Json.to_float d) > 0.
      | None -> false)
  | es -> Alcotest.failf "expected 2 span events, got %d" (List.length es)

let test_span_exception_safety () =
  let sink = Sink.memory () in
  let t = Telemetry.create ~sink ~clock:(ticking_clock ()) () in
  (try Telemetry.with_span t "boom" (fun () -> failwith "bang") with Failure _ -> ());
  check_int "span still emitted" 1 (List.length (Sink.events sink));
  (* the span stack unwound: a following span is top-level again *)
  ignore (Telemetry.with_span t "after" (fun () -> ()));
  match Sink.events sink with
  | [ _; after ] -> check_bool "no stale parent" true (Event.field "parent" after = None)
  | _ -> Alcotest.fail "expected 2 events"

let test_using_restores_global () =
  let before = Telemetry.global () in
  let t = Telemetry.create ~sink:(Sink.memory ()) () in
  Telemetry.using t (fun () ->
      check_bool "installed" true (Telemetry.global () == t));
  check_bool "restored" true (Telemetry.global () == before)

let test_global_is_domain_local () =
  let t = Telemetry.create ~sink:(Sink.memory ()) () in
  Telemetry.using t (fun () ->
      let seen_other =
        Domain.join
          (Domain.spawn (fun () -> Telemetry.global () == t))
      in
      check_bool "fresh domain starts disabled" false seen_other;
      check_bool "this domain keeps its handle" true (Telemetry.global () == t))

let test_monotonic_clock_never_repeats () =
  (* gettimeofday readily repeats at this call rate; the wrapper must not *)
  let clock = Telemetry.monotonic_clock () in
  let prev = ref neg_infinity in
  for _ = 1 to 1000 do
    let t = clock () in
    check_bool "strictly increasing" true (t > !prev);
    prev := t
  done

let test_base_labels_stamp_events () =
  let sink = Sink.memory () in
  let t =
    Telemetry.create ~sink ~clock:(ticking_clock ())
      ~labels:[ ("worker", "w3") ] ()
  in
  Telemetry.with_span t "depth" ignore;
  Telemetry.emit t "ping" [];
  match Sink.events sink with
  | [ span; e ] ->
    check_bool "events carry worker field" true
      (List.for_all
         (fun e -> Event.field "worker" e = Some (Json.String "w3"))
         [ span; e ])
  | _ -> Alcotest.fail "expected a span and one event"

(* ------------------------- JSONL round-trip ------------------------- *)

let test_jsonl_roundtrip () =
  let path = Filename.temp_file "o4a_telemetry" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let t = Telemetry.create ~sink:(Sink.open_jsonl path) ~clock:(ticking_clock ()) () in
      let sent =
        [
          Event.
            { ts = 0.; name = "a"; fields = [ ("x", Json.Int 1); ("y", Json.Null) ] };
          Event.{ ts = 0.; name = "b"; fields = [ ("s", Json.String "q\"uote") ] };
        ]
      in
      List.iter (fun e -> Telemetry.emit t e.Event.name e.Event.fields) sent;
      Telemetry.flush t;
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      let got =
        List.rev_map
          (fun l ->
            match Event.of_line l with
            | Ok e -> e
            | Error m -> Alcotest.failf "bad line %S: %s" l m)
          !lines
      in
      (* open_jsonl writes the schema header as the first line *)
      let header, got =
        match got with h :: rest -> (h, rest) | [] -> Alcotest.fail "empty log"
      in
      check_str "header event" Event.schema_event_name header.Event.name;
      check_bool "header version" true
        (Event.log_schema_version [ header ] = Some Event.schema_version);
      check_int "line per event" (List.length sent) (List.length got);
      List.iter2
        (fun a b ->
          check_str "name" a.Event.name b.Event.name;
          check_bool "fields" true
            (Json.equal (Json.Obj a.Event.fields) (Json.Obj b.Event.fields)))
        sent got)

(* a log whose writer died mid-line: the unterminated tail is a torn write,
   not corruption, and everything before it still parses *)
let test_parse_log_torn_tail () =
  let line ts name = Event.to_line (Event.make ~ts ~name []) in
  let intact = line 1. "a" ^ "\n" ^ line 2. "b" ^ "\n" in
  let torn = intact ^ "{\"ts\":3.0,\"event\":\"c\",\"x" in
  let events, malformed, was_torn = Event.parse_log torn in
  check_int "intact events survive" 2 (List.length events);
  check_int "torn tail is not malformed" 0 malformed;
  check_bool "torn flagged" true was_torn;
  (* the same junk WITH a newline is corruption, not a torn write *)
  let events, malformed, was_torn = Event.parse_log (torn ^ "\n") in
  check_int "still two events" 2 (List.length events);
  check_int "counted malformed" 1 malformed;
  check_bool "not torn" false was_torn;
  (* clean logs report neither *)
  let events, malformed, was_torn = Event.parse_log intact in
  check_int "clean events" 2 (List.length events);
  check_int "clean malformed" 0 malformed;
  check_bool "clean not torn" false was_torn;
  check_bool "empty log" true (Event.parse_log "" = ([], 0, false))

(* ------------------------- campaign smoke ------------------------- *)

(* a tiny instrumented campaign: the counts read back from its events must
   agree with the stats the fuzzer itself returns *)
let test_campaign_counters_match () =
  let sink = Sink.memory () in
  let tel = Telemetry.create ~sink () in
  let campaign = Once4all.Campaign.prepare ~seed:42 () in
  let seeds =
    Seeds.Corpus.filtered ~zeal:campaign.Once4all.Campaign.zeal
      ~cove:campaign.Once4all.Campaign.cove ()
  in
  let stats =
    (Orchestrator.run ~telemetry:tel ~seed:43 ~budget:120
       ~generators:campaign.Once4all.Campaign.generators ~seeds ())
      .Orchestrator.stats
  in
  (* the event stream carries one fuzz.test record per test *)
  let tests = List.filter (fun e -> e.Event.name = "fuzz.test") (Sink.events sink) in
  let count p = List.length (List.filter p tests) in
  check_int "tests counter" stats.Once4all.Fuzz.tests (List.length tests);
  check_int "parse_ok counter" stats.Once4all.Fuzz.parse_ok
    (count (fun e -> Event.field "parse_ok" e = Some (Json.Bool true)));
  check_int "solved counter" stats.Once4all.Fuzz.solved
    (count (fun e -> Event.field "solved" e = Some (Json.Bool true)));
  check_int "bytes counter" stats.Once4all.Fuzz.bytes_total
    (List.fold_left
       (fun acc e ->
         match Event.field "bytes" e with Some (Json.Int n) -> acc + n | _ -> acc)
       0 tests);
  check_int "findings counter"
    (List.length stats.Once4all.Fuzz.findings)
    (count (fun e -> Event.field "finding" e <> Some Json.Null))

let () =
  Alcotest.run "telemetry"
    [
      ( "json",
        [
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "special floats" `Quick test_json_special_floats;
          Alcotest.test_case "rejects garbage" `Quick test_json_rejects_garbage;
        ] );
      ( "spans",
        [
          Alcotest.test_case "disabled no-op" `Quick test_disabled_records_nothing;
          Alcotest.test_case "memory sink" `Quick test_memory_sink_capture;
          Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "exception safety" `Quick test_span_exception_safety;
          Alcotest.test_case "using restores" `Quick test_using_restores_global;
          Alcotest.test_case "domain-local ambient" `Quick test_global_is_domain_local;
          Alcotest.test_case "monotonic clock" `Quick test_monotonic_clock_never_repeats;
          Alcotest.test_case "base labels" `Quick test_base_labels_stamp_events;
        ] );
      ( "jsonl",
        [
          Alcotest.test_case "round-trip" `Quick test_jsonl_roundtrip;
          Alcotest.test_case "torn tail" `Quick test_parse_log_torn_tail;
        ] );
      ( "campaign",
        [ Alcotest.test_case "counters match stats" `Quick test_campaign_counters_match ] );
    ]
