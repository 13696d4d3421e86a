(* Campaign server tests: wire protocol round-trips, fair-scheduler quota
   accounting, and an end-to-end in-process daemon exercise — two concurrent
   campaigns over one pool, subscriber catch-up after late attach, and the
   core invariant that a server-run campaign's report is byte-identical to
   the same spec run standalone. *)

module Jobspec = O4a_server.Jobspec
module Protocol = O4a_server.Protocol
module Scheduler = O4a_server.Scheduler
module Daemon = O4a_server.Daemon
module Client = O4a_server.Client
module Addr = O4a_server.Addr
module Framing = O4a_server.Framing
module Render = O4a_server.Render
module Shard = Orchestrator.Shard
module Json = O4a_telemetry.Json

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ------------------------- protocol ------------------------- *)

let roundtrip req =
  let json = Protocol.request_codec.enc req in
  match Protocol.request_codec.dec json with
  | Error msg -> Alcotest.failf "decode failed: %s" msg
  | Ok req' ->
    check_string "request round-trip"
      (Json.to_string json)
      (Json.to_string (Protocol.request_codec.enc req'))

let test_request_roundtrip () =
  List.iter roundtrip
    [
      Protocol.Hello Protocol.version;
      Protocol.Submit { (Jobspec.default ~name:"rt") with Jobspec.quota = 3 };
      Protocol.Jobs;
      Protocol.Watch { job = "rt"; from = 17 };
      Protocol.Pause "rt";
      Protocol.Resume_job "rt";
      Protocol.Cancel "rt";
      Protocol.Metrics "rt";
      Protocol.Shutdown;
      Protocol.Worker_register { slots = 2 };
      Protocol.Worker_heartbeat { leases = [ 3; 5 ] };
      Protocol.Worker_result { lease = 4; outcome = Json.Obj [] };
    ];
  let decode text = Result.bind (Json.parse text) Protocol.request_codec.dec in
  (* absent optional members default; present ones must have their type *)
  check_bool "bare heartbeat" true
    (decode {|{"req":"heartbeat"}|} = Ok (Protocol.Worker_heartbeat { leases = [] }));
  check_bool "bare watch" true
    (decode {|{"req":"watch","job":"rt"}|}
    = Ok (Protocol.Watch { job = "rt"; from = 0 }));
  check_bool "non-int lease rejected, not dropped" true
    (decode {|{"req":"heartbeat","leases":[1,"2"]}|}
    = Error {|request: field "leases": element 1: expected an int|});
  check_bool "mistyped slots rejected" true
    (Result.is_error (decode {|{"req":"worker","slots":"2"}|}))

let test_hello_handshake () =
  (match Protocol.check_hello Protocol.hello with
  | Ok v -> check_int "own hello accepted" Protocol.version v
  | Error msg -> Alcotest.failf "own hello rejected: %s" msg);
  let newer =
    Json.Obj
      [
        ("event", Json.String "server.hello");
        ("proto", Json.Int (Protocol.version + 1));
        ("schema", Json.Int 1);
      ]
  in
  check_bool "newer server refused" true
    (Result.is_error (Protocol.check_hello newer));
  check_bool "junk refused" true
    (Result.is_error (Protocol.check_hello (Json.String "hi")))

let test_job_view_roundtrip () =
  let view =
    {
      Protocol.v_id = "alpha-2";
      v_name = "alpha";
      v_state = Protocol.Failed "boom";
      v_shards_done = 3;
      v_shards_total = 8;
      v_findings = 42;
      v_quota = 2;
    }
  in
  match Protocol.job_view_codec.dec (Protocol.job_view_codec.enc view) with
  | Error msg -> Alcotest.failf "view decode failed: %s" msg
  | Ok v ->
    check_string "id" view.Protocol.v_id v.Protocol.v_id;
    check_bool "state" true (v.Protocol.v_state = Protocol.Failed "boom");
    check_int "findings" 42 v.Protocol.v_findings;
    check_int "quota" 2 v.Protocol.v_quota

let test_jobspec_roundtrip () =
  let spec =
    {
      (Jobspec.default ~name:"spec-rt") with
      Jobspec.seed = 9;
      budget = 450;
      shard_size = 90;
      quota = 4;
      chaos_profile = "solver";
      chaos_seed = 5;
      breakers = false;
    }
  in
  match Jobspec.codec.dec (Jobspec.codec.enc spec) with
  | Error msg -> Alcotest.failf "spec decode failed: %s" msg
  | Ok spec' -> check_bool "jobspec round-trip" true (spec = spec')

(* a terse submission needs only a name; everything else defaults *)
let test_jobspec_lenient () =
  match Jobspec.codec.dec (Json.Obj [ ("name", Json.String "terse") ]) with
  | Error msg -> Alcotest.failf "terse spec rejected: %s" msg
  | Ok spec ->
    check_bool "defaults applied" true (spec = Jobspec.default ~name:"terse");
    check_bool "bad name rejected" true
      (Result.is_error (Jobspec.codec.dec (Json.Obj [ ("name", Json.String "../x") ])));
    (* lenient about absent members only: a mistyped one is an error, never
       silently the default (a string budget must not run 2000 ticks) *)
    let typo =
      Result.bind
        (Json.parse {|{"name":"typo","budget":"500","shard_size":"100"}|})
        Jobspec.codec.dec
    in
    check_bool "mistyped budget rejected" true
      (typo = Error {|job spec: field "budget": expected an int|});
    check_bool "mistyped flag rejected" true
      (Result.is_error
         (Jobspec.codec.dec
            (Json.Obj [ ("name", Json.String "t"); ("trace", Json.Int 1) ])))

(* a checkpoint of [spec]'s campaign before any shard has run *)
let fresh_checkpoint (spec : Jobspec.t) =
  {
    Orchestrator.Checkpoint.seed = Jobspec.fuzz_seed spec;
    budget = spec.Jobspec.budget;
    shard_size = spec.Jobspec.shard_size;
    extra = Jobspec.extra spec;
    completed = [];
    quarantined = [];
    coverage = [];
    health = [];
    analytics = O4a_analytics.Analytics.empty;
    artifacts = Orchestrator.Checkpoint.no_artifacts;
  }

(* checkpoint provenance and its inverse agree: a spec survives the
   extra -> of_checkpoint round trip (modulo runtime-only fields) *)
let test_jobspec_checkpoint_inverse () =
  let spec =
    {
      (Jobspec.default ~name:"inv") with
      Jobspec.seed = 13;
      budget = 700;
      shard_size = 70;
      chaos_profile = "solver_hang";
      chaos_seed = 3;
      chaos_rate = 1.0;
      breaker_window = 5;
      breaker_threshold = 2;
    }
  in
  let spec' = Jobspec.of_checkpoint ~name:"inv" (fresh_checkpoint spec) in
  check_bool "spec survives checkpoint round-trip" true (spec = spec')

(* ------------------------- scheduler ------------------------- *)

let shards n = Shard.plan ~budget:(n * 10) ~shard_size:10

let drain sched =
  let rec go acc =
    match Scheduler.next sched with
    | None -> List.rev acc
    | Some (key, _) -> go (key :: acc)
  in
  go []

(* equal quotas interleave shard-for-shard: the two jobs finish within one
   scheduling round of each other *)
let test_scheduler_fair_equal_quotas () =
  let sched = Scheduler.create () in
  Scheduler.add sched ~key:"a" ~quota:1 (shards 4);
  Scheduler.add sched ~key:"b" ~quota:1 (shards 4);
  let order = drain sched in
  check_bool "strict alternation" true
    (order = [ "a"; "b"; "a"; "b"; "a"; "b"; "a"; "b" ]);
  let last key =
    let rec go i best = function
      | [] -> best
      | k :: rest -> go (i + 1) (if k = key then i else best) rest
    in
    go 0 (-1) order
  in
  check_bool "finish within one round" true (abs (last "a" - last "b") <= 1)

(* quotas weight the rounds: quota 3 vs 1 dispatches 3:1 per round, and the
   low-quota job still runs every round (no starvation) *)
let test_scheduler_quota_accounting () =
  let sched = Scheduler.create () in
  Scheduler.add sched ~key:"big" ~quota:3 (shards 6);
  Scheduler.add sched ~key:"small" ~quota:1 (shards 2);
  let order = drain sched in
  check_bool "weighted rounds, no starvation" true
    (order = [ "big"; "small"; "big"; "big"; "small"; "big"; "big"; "big" ]);
  (match Scheduler.stats sched ~key:"big" with
  | Some (pending, dispatched) ->
    check_int "all dispatched" 6 dispatched;
    check_int "none pending" 0 pending
  | None -> Alcotest.fail "job vanished");
  check_bool "drained" true (Scheduler.idle sched)

let test_scheduler_pause_skips () =
  let sched = Scheduler.create () in
  Scheduler.add sched ~key:"p" ~quota:1 (shards 2);
  Scheduler.add sched ~key:"q" ~quota:1 (shards 2);
  Scheduler.set_runnable sched ~key:"p" false;
  check_bool "paused job never picked" true
    (drain sched = [ "q"; "q" ]);
  Scheduler.set_runnable sched ~key:"p" true;
  check_bool "unpaused job resumes" true (drain sched = [ "p"; "p" ])

(* ------------------------- framing ------------------------- *)

let feed_exn fr chunk =
  match Framing.feed fr chunk with
  | Ok lines -> lines
  | Error e ->
    Alcotest.failf "unexpected framing error: %s" (Framing.error_to_string e)

(* NDJSON frames torn across reads reassemble exactly; frames packed into
   one read split exactly — the property every listener leans on *)
let test_framing_torn_frames () =
  let fr = Framing.create () in
  check_bool "partial frame yields nothing" true (feed_exn fr "{\"req\":" = []);
  check_int "tail carried" 7 (Framing.pending fr);
  check_bool "completion stitches the line" true
    (feed_exn fr "\"jobs\"}\n{\"a\"" = [ "{\"req\":\"jobs\"}" ]);
  check_bool "several lines in one chunk, oldest first" true
    (feed_exn fr ":1}\nx\ny\n" = [ "{\"a\":1}"; "x"; "y" ]);
  check_bool "empty feed is a no-op" true (feed_exn fr "" = []);
  check_int "nothing pending after clean frames" 0 (Framing.pending fr);
  (* byte-at-a-time delivery — the most torn a stream can get *)
  let fr2 = Framing.create () in
  let out = ref [] in
  String.iter (fun ch -> out := !out @ feed_exn fr2 (String.make 1 ch)) "ab\ncd\n";
  check_bool "byte-wise reassembly" true (!out = [ "ab"; "cd" ])

let test_framing_oversized_poisons () =
  let fr = Framing.create ~max_line:8 () in
  check_bool "under the cap passes" true (feed_exn fr "1234\n" = [ "1234" ]);
  (match Framing.feed fr "123456789" with
  | Error (Framing.Line_too_long cap) -> check_int "cap reported" 8 cap
  | Ok _ -> Alcotest.fail "oversized line accepted");
  (* once poisoned, always poisoned: the stream cannot re-synchronize *)
  match Framing.feed fr "\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "poisoned framer kept going"

(* ------------------------- daemon end-to-end ------------------------- *)

let temp_dir () =
  let path = Filename.temp_file "o4a_server" "" in
  Sys.remove path;
  Unix.mkdir path 0o700;
  path

(* the client's own bounded retry-with-backoff: the daemon may still be
   binding its socket when the test asks for a connection *)
let connect_retry ~socket n =
  match
    Client.connect ~timeout:(float_of_int n *. 0.1) (Addr.Unix_path socket)
  with
  | Ok c -> c
  | Error msg -> Alcotest.failf "cannot connect to test daemon: %s" msg

let default_cfg ~socket ~state_dir ~pool =
  {
    Daemon.socket_path = socket;
    state_dir;
    pool;
    tcp = None;
    handshake_timeout = Daemon.default_handshake_timeout;
    idle_timeout = Daemon.default_idle_timeout;
    lease_timeout = Daemon.default_lease_timeout;
  }

let request_exn c req =
  match Client.request c req with
  | Ok reply -> reply
  | Error msg -> Alcotest.failf "request failed: %s" msg

let job_states c =
  match Json.member "jobs" (request_exn c Protocol.Jobs) with
  | Some (Json.List views) ->
    List.filter_map
      (fun v ->
        match Protocol.job_view_codec.dec v with
        | Ok view -> Some (view.Protocol.v_id, view.Protocol.v_state)
        | Error _ -> None)
      views
  | _ -> Alcotest.fail "malformed jobs reply"

let wait_all_done c ids =
  let deadline = Unix.gettimeofday () +. 120. in
  let rec go () =
    let states = job_states c in
    let done_ =
      List.for_all
        (fun id ->
          match List.assoc_opt id states with
          | Some s -> Protocol.job_state_terminal s
          | None -> false)
        ids
    in
    if done_ then states
    else if Unix.gettimeofday () > deadline then
      Alcotest.fail "test daemon jobs did not finish in time"
    else (
      Unix.sleepf 0.05;
      go ())
  in
  go ()

(* collect a job's watch stream (backlog from [from], then live) until its
   terminal state line *)
let watch_lines ~from ~socket job =
  let c = connect_retry ~socket 50 in
  let lines = ref [] in
  let terminal = ref false in
  let on_line json =
    lines := Json.to_string json :: !lines;
    (match
       (Option.bind (Json.member "kind" json) Json.to_str, Json.member "data" json)
     with
    | Some "state", Some data -> (
      match Option.bind (Json.member "state" data) Json.to_str with
      | Some ("done" | "cancelled") -> terminal := true
      | Some s when String.length s >= 6 && String.sub s 0 6 = "failed" ->
        terminal := true
      | _ -> ())
    | _ -> ());
    not !terminal
  in
  (match Client.stream c (Protocol.Watch { job; from }) ~on_line with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "watch failed: %s" msg);
  Client.close c;
  List.rev !lines

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* what `once4all fuzz` would print for this spec: the same pipeline the
   daemon's job path runs, rendered through the same module *)
let standalone_text (spec : Jobspec.t) ~jobs =
  let { Jobspec.generators; seeds } = Jobspec.prepare spec in
  let r =
    Orchestrator.run ~jobs ~shard_size:spec.Jobspec.shard_size
      ~config:(Jobspec.config spec) ~extra:(Jobspec.extra spec)
      ?chaos:(Jobspec.chaos spec) ?health:(Jobspec.health spec)
      ~seed:(Jobspec.fuzz_seed spec) ~budget:spec.Jobspec.budget ~generators
      ~seeds ()
  in
  Render.header ~generators:(List.length generators)
    ~seeds:(List.length seeds) ~budget:spec.Jobspec.budget
  ^ Render.finish ~chaos:(Jobspec.chaos spec) r

(* ------------------------- client diagnostics ------------------------- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_client_connect_diagnostics () =
  (* no socket file at all: the server isn't running (waiting could help) *)
  (match Client.connect (Addr.Unix_path "/nonexistent/o4a-test.sock") with
  | Ok _ -> Alcotest.fail "connected to nothing"
  | Error msg ->
    check_bool "missing-file diagnostic" true (contains msg "no such socket file"));
  (* the file exists but nothing accepts: a dead server's leftover *)
  let dir = temp_dir () in
  let stale = Filename.concat dir "stale.sock" in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX stale);
  Unix.close fd;  (* bound but never listening; the file stays behind *)
  match Client.connect (Addr.Unix_path stale) with
  | Ok _ -> Alcotest.fail "connected to a dead socket"
  | Error msg -> check_bool "stale-socket diagnostic" true (contains msg "stale")

(* A client's two channels share one descriptor. Closing it more than once
   can close a descriptor another domain was just given, so here one domain
   connects and closes clients while another opens pipes and checks both
   ends are still open. *)
let test_client_close_once () =
  let dir = temp_dir () in
  let socket = Filename.concat dir "s.sock" in
  let cfg = default_cfg ~socket ~state_dir:(Filename.concat dir "state") ~pool:0 in
  let daemon = Domain.spawn (fun () -> Daemon.run cfg) in
  Client.close (connect_retry ~socket 300);
  let stop = Atomic.make false in
  let checker =
    Domain.spawn (fun () ->
        let ebadf = ref 0 in
        let check f =
          try f () with Unix.Unix_error (Unix.EBADF, _, _) -> incr ebadf
        in
        while not (Atomic.get stop) do
          let r, w = Unix.pipe () in
          check (fun () -> ignore (Unix.fstat r));
          check (fun () -> ignore (Unix.fstat w));
          check (fun () -> Unix.close r);
          check (fun () -> Unix.close w)
        done;
        !ebadf)
  in
  let failed = ref 0 in
  for _ = 1 to 2000 do
    match Client.connect (Addr.Unix_path socket) with
    | Ok c -> Client.close c
    | Error _ -> incr failed
  done;
  Atomic.set stop true;
  let ebadf = Domain.join checker in
  let c = connect_retry ~socket 300 in
  let _ = request_exn c Protocol.Shutdown in
  Client.close c;
  check_int "connects that failed" 0 !failed;
  check_int "EBADF on another domain's pipes" 0 ebadf;
  check_int "daemon drains and exits 0" 0 (Domain.join daemon)

(* ------------------------- inbound robustness ------------------------- *)

(* a raw connection that speaks whatever bytes we want — for exercising the
   paths a well-behaved Client can't reach *)
let raw_connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)

let expect_error_code ~what ic code =
  match input_line ic with
  | exception End_of_file -> Alcotest.failf "%s: closed without a diagnostic" what
  | line -> (
    match Json.parse line with
    | Error msg -> Alcotest.failf "%s: unparseable diagnostic: %s" what msg
    | Ok json ->
      check_bool
        (what ^ " carries code " ^ code)
        true
        (O4a_server.Protocol.error_code json = Some code))

let expect_eof ~what ic =
  match input_line ic with
  | exception End_of_file -> ()
  | line -> Alcotest.failf "%s: expected disconnect, got %s" what line

(* One short-deadline daemon, three misbehaving peers: an oversized request
   line earns a typed line_too_long error and the boot; a peer that never
   sends a valid request is dropped at the handshake deadline; a peer that
   goes silent after its handshake is dropped at the idle deadline. A
   well-behaved client then shuts the daemon down — misbehaving neighbors
   cost it nothing. *)
let test_daemon_inbound_robustness () =
  let dir = temp_dir () in
  let socket = Filename.concat dir "s.sock" in
  let cfg =
    {
      (default_cfg ~socket ~state_dir:(Filename.concat dir "state") ~pool:1) with
      Daemon.handshake_timeout = 0.6;
      idle_timeout = 2.5;
    }
  in
  let daemon = Domain.spawn (fun () -> Daemon.run cfg) in
  (* await startup, then disconnect — under these short deadlines a client
     would be idle-reaped before the end of the test, which is the point *)
  Client.close (connect_retry ~socket 300);
  (* oversized line: typed error, then disconnect. Handshake first, so the
     slow megabyte write cannot race the handshake deadline instead *)
  let fd1, ic1, oc1 = raw_connect socket in
  ignore (input_line ic1 : string);  (* hello *)
  output_string oc1 (Json.to_string (Protocol.request_codec.enc Protocol.Jobs));
  output_string oc1 "\n";
  flush oc1;
  ignore (input_line ic1 : string);  (* jobs reply *)
  output_string oc1 (String.make ((1 lsl 20) + 16) 'x');
  output_string oc1 "\n";
  flush oc1;
  expect_error_code ~what:"oversized line" ic1 Protocol.code_line_too_long;
  expect_eof ~what:"oversized line" ic1;
  Unix.close fd1;
  (* never completes the handshake: dropped at the deadline *)
  let fd2, ic2, _ = raw_connect socket in
  ignore (input_line ic2 : string);
  expect_error_code ~what:"handshake deadline" ic2 Protocol.code_handshake_timeout;
  expect_eof ~what:"handshake deadline" ic2;
  Unix.close fd2;
  (* valid request, then silence: dropped at the idle deadline *)
  let fd3, ic3, oc3 = raw_connect socket in
  ignore (input_line ic3 : string);
  output_string oc3 (Json.to_string (Protocol.request_codec.enc Protocol.Jobs));
  output_string oc3 "\n";
  flush oc3;
  ignore (input_line ic3 : string);  (* jobs reply *)
  expect_error_code ~what:"idle deadline" ic3 Protocol.code_idle_timeout;
  expect_eof ~what:"idle deadline" ic3;
  Unix.close fd3;
  (* the daemon shrugged all of that off *)
  let c = connect_retry ~socket 50 in
  let _ = request_exn c Protocol.Shutdown in
  Client.close c;
  check_int "daemon still drains cleanly" 0 (Domain.join daemon)

(* One daemon, one exercise: two concurrent campaigns multiplexed over a
   4-domain pool; an early subscriber attached mid-run and a late subscriber
   attached after completion see the same stream; each job's report.txt is
   byte-identical to the standalone run; a Shutdown request drains cleanly. *)
let test_daemon_end_to_end () =
  let dir = temp_dir () in
  let socket = Filename.concat dir "s.sock" in
  let cfg =
    default_cfg ~socket ~state_dir:(Filename.concat dir "state") ~pool:4
  in
  let daemon = Domain.spawn (fun () -> Daemon.run cfg) in
  let c = connect_retry ~socket 300 in
  let spec_a =
    { (Jobspec.default ~name:"alpha") with Jobspec.seed = 7; budget = 300; shard_size = 60 }
  in
  let spec_b = { spec_a with Jobspec.name = "beta"; seed = 11 } in
  let submit spec =
    let reply = request_exn c (Protocol.Submit spec) in
    match Option.bind (Json.member "job" reply) Json.to_str with
    | Some id -> id
    | None -> Alcotest.fail "submit reply lacks a job id"
  in
  let id_a = submit spec_a in
  let id_b = submit spec_b in
  check_string "first job keeps its name" "alpha" id_a;
  (* early subscriber: attaches while the jobs are still running *)
  let early = Domain.spawn (fun () -> watch_lines ~from:0 ~socket id_a) in
  let states = wait_all_done c [ id_a; id_b ] in
  List.iter
    (fun id ->
      check_bool (id ^ " done") true
        (List.assoc_opt id states = Some Protocol.Done))
    [ id_a; id_b ];
  let early_lines = Domain.join early in
  (* late subscriber: attaches after completion, replays the backlog *)
  let late_lines = watch_lines ~from:0 ~socket id_a in
  check_bool "late subscriber catches up to the early one's stream" true
    (early_lines = late_lines);
  check_bool "stream is non-trivial" true (List.length late_lines > 10);
  (* byte-identity: the server's report.txt vs the standalone pipeline *)
  List.iter
    (fun (id, spec) ->
      let report =
        read_file (Filename.concat (Filename.concat cfg.Daemon.state_dir id) "report.txt")
      in
      check_string (id ^ " report byte-identical to standalone")
        (standalone_text spec ~jobs:4) report)
    [ (id_a, spec_a); (id_b, spec_b) ];
  (* duplicate names get suffixed, and bad specs are refused *)
  let id_a2 = submit spec_a in
  check_bool "duplicate name suffixed" true (id_a2 <> id_a);
  let _ = request_exn c (Protocol.Cancel id_a2) in
  check_bool "unknown job errors" true
    (Result.is_error (Client.request c (Protocol.Pause "nope")));
  check_bool "invalid spec refused" true
    (Result.is_error
       (Client.request c
          (Protocol.Submit { spec_a with Jobspec.name = "bad"; budget = 0 })));
  let _ = request_exn c Protocol.Shutdown in
  Client.close c;
  check_int "daemon drains and exits 0" 0 (Domain.join daemon)

(* A finished job keeps only its counters, its backlog file and its
   checkpoint, and still answers every reader: a late [watch] from 0 (and
   from the middle) replays exactly what a live subscriber got, and
   [metrics] is the analytics of its final checkpoint. *)
let test_daemon_finished_job () =
  let dir = temp_dir () in
  let socket = Filename.concat dir "s.sock" in
  let cfg = default_cfg ~socket ~state_dir:(Filename.concat dir "state") ~pool:2 in
  let daemon = Domain.spawn (fun () -> Daemon.run cfg) in
  let c = connect_retry ~socket 300 in
  let spec =
    { (Jobspec.default ~name:"delta") with Jobspec.seed = 5; budget = 120; shard_size = 40 }
  in
  let id =
    match Option.bind (Json.member "job" (request_exn c (Protocol.Submit spec))) Json.to_str with
    | Some id -> id
    | None -> Alcotest.fail "submit reply lacks a job id"
  in
  let live = Domain.spawn (fun () -> watch_lines ~from:0 ~socket id) in
  let states = wait_all_done c [ id ] in
  check_bool "done" true (List.assoc_opt id states = Some Protocol.Done);
  let live_lines = Domain.join live in
  check_bool "late watch from 0 = the live stream" true
    (watch_lines ~from:0 ~socket id = live_lines);
  let from = List.length live_lines / 2 in
  check_bool "late watch from the middle = the live stream's tail" true
    (watch_lines ~from ~socket id = List.filteri (fun i _ -> i >= from) live_lines);
  (* a reader at or past the end of the finished job's backlog reads nothing
     and returns at once, not after the server's idle timeout; the second
     one shares the connection the metrics request below still uses *)
  let timed f =
    let t0 = Unix.gettimeofday () in
    let lines = f () in
    (lines, Unix.gettimeofday () -. t0)
  in
  let on_own_connection from () = watch_lines ~from ~socket id in
  let on_shared_connection from () =
    let lines = ref [] in
    (match
       Client.stream c (Protocol.Watch { job = id; from }) ~on_line:(fun json ->
           lines := Json.to_string json :: !lines;
           true)
     with
    | Ok _ -> ()
    | Error msg -> Alcotest.failf "watch failed: %s" msg);
    !lines
  in
  let backlog = List.length live_lines in
  List.iter
    (fun (what, (lines, secs)) ->
      check_int (what ^ ": no lines") 0 (List.length lines);
      check_bool (Printf.sprintf "%s: returns in under 5 s (%.1f s)" what secs) true
        (secs < 5.))
    [
      ("watch from the backlog's end", timed (on_own_connection backlog));
      ("watch past the backlog's end", timed (on_shared_connection (backlog + 5)));
    ];
  let cp_path = Filename.concat (Filename.concat cfg.Daemon.state_dir id) "checkpoint.json" in
  let expected =
    match Orchestrator.Checkpoint.load ~path:cp_path with
    | Ok cp -> Json.to_string (O4a_analytics.Analytics.codec.enc cp.Orchestrator.Checkpoint.analytics)
    | Error _ -> Alcotest.fail "the finished job's checkpoint does not load"
  in
  (match Json.member "analytics" (request_exn c (Protocol.Metrics id)) with
  | Some a -> check_string "metrics = the checkpoint's analytics" expected (Json.to_string a)
  | None -> Alcotest.fail "metrics reply lacks analytics");
  let _ = request_exn c Protocol.Shutdown in
  Client.close c;
  check_int "daemon drains and exits 0" 0 (Domain.join daemon)

(* A restarted server revives a job from its spec and checkpoint on disk,
   and refuses a checkpoint written for another campaign with the message
   `once4all resume` prints. *)
let test_daemon_revive_rejects_mismatch () =
  let dir = temp_dir () in
  let socket = Filename.concat dir "s.sock" in
  let cfg =
    default_cfg ~socket ~state_dir:(Filename.concat dir "state") ~pool:1
  in
  let spec =
    {
      (Jobspec.default ~name:"gamma") with
      Jobspec.seed = 7;
      budget = 300;
      shard_size = 60;
    }
  in
  let job_dir = Filename.concat cfg.Daemon.state_dir "gamma" in
  Unix.mkdir cfg.Daemon.state_dir 0o700;
  Unix.mkdir job_dir 0o700;
  Out_channel.with_open_bin (Filename.concat job_dir "spec.json") (fun oc ->
      output_string oc (Json.to_string (Jobspec.codec.enc spec)));
  let cp_path = Filename.concat job_dir "checkpoint.json" in
  Orchestrator.Checkpoint.save ~path:cp_path
    { (fresh_checkpoint spec) with Orchestrator.Checkpoint.budget = 360 };
  let daemon = Domain.spawn (fun () -> Daemon.run cfg) in
  let c = connect_retry ~socket 300 in
  Alcotest.(check (result unit string))
    "resume-job refuses the mismatched checkpoint"
    (Error
       (Printf.sprintf
          "cannot resume from %s: checkpoint is for seed 8 budget 360 \
           shard-size 60, requested seed 8 budget 300 shard-size 60"
          cp_path))
    (Result.map ignore (Client.request c (Protocol.Resume_job "gamma")));
  let _ = request_exn c Protocol.Shutdown in
  Client.close c;
  check_int "daemon drains and exits 0" 0 (Domain.join daemon)

let () =
  Alcotest.run "server"
    [
      ( "protocol",
        [
          Alcotest.test_case "request round-trip" `Quick test_request_roundtrip;
          Alcotest.test_case "hello handshake" `Quick test_hello_handshake;
          Alcotest.test_case "job-view round-trip" `Quick test_job_view_roundtrip;
        ] );
      ( "jobspec",
        [
          Alcotest.test_case "json round-trip" `Quick test_jobspec_roundtrip;
          Alcotest.test_case "lenient decode" `Quick test_jobspec_lenient;
          Alcotest.test_case "checkpoint inverse" `Quick
            test_jobspec_checkpoint_inverse;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "fairness: equal quotas" `Quick
            test_scheduler_fair_equal_quotas;
          Alcotest.test_case "quota accounting" `Quick
            test_scheduler_quota_accounting;
          Alcotest.test_case "pause skips" `Quick test_scheduler_pause_skips;
        ] );
      ( "framing",
        [
          Alcotest.test_case "torn frames reassemble" `Quick
            test_framing_torn_frames;
          Alcotest.test_case "oversized line poisons" `Quick
            test_framing_oversized_poisons;
        ] );
      ( "client",
        [
          Alcotest.test_case "connect diagnostics" `Quick
            test_client_connect_diagnostics;
          Alcotest.test_case "close releases its fd once" `Slow
            test_client_close_once;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "inbound deadlines and caps" `Slow
            test_daemon_inbound_robustness;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "end-to-end" `Slow test_daemon_end_to_end;
          Alcotest.test_case "finished job" `Slow test_daemon_finished_job;
          Alcotest.test_case "revive rejects a mismatched checkpoint" `Quick
            test_daemon_revive_rejects_mismatch;
        ] );
    ]
