(* Distributed campaign fabric tests: lease bookkeeping (grants, heartbeats,
   expiry, sibling revocation), lossless wire codecs for shard outcomes, and
   the end-to-end invariant the whole fabric exists to keep — a campaign
   executed by remote TCP worker pools, even one whose worker dies mid-lease
   or that runs under network chaos, produces a report byte-identical to the
   standalone run. *)

module Jobspec = O4a_server.Jobspec
module Protocol = O4a_server.Protocol
module Daemon = O4a_server.Daemon
module Client = O4a_server.Client
module Addr = O4a_server.Addr
module Lease = O4a_server.Lease
module Wire = O4a_server.Wire
module Worker = O4a_server.Worker
module Render = O4a_server.Render
module Shard = Orchestrator.Shard
module Faults = O4a_faults.Faults
module Json = O4a_telemetry.Json

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ------------------------- lease bookkeeping ------------------------- *)

let shard i = { Shard.index = i; first_tick = i * 10; ticks = 10 }

let test_lease_grants_and_attempts () =
  let t = Lease.create ~timeout:5. in
  let g0 = Lease.grant t ~now:100. ~job:"j" ~shard:(shard 0) ~worker:1 in
  check_int "first grant is attempt 0" 0 g0.Lease.grant_attempt;
  check_bool "deadline set" true (g0.Lease.deadline = 105.);
  let g1 = Lease.grant t ~now:100. ~job:"j" ~shard:(shard 0) ~worker:2 in
  check_int "regrant of the same shard is attempt 1" 1 g1.Lease.grant_attempt;
  let other = Lease.grant t ~now:100. ~job:"j" ~shard:(shard 1) ~worker:1 in
  check_int "other shards count their own attempts" 0 other.Lease.grant_attempt;
  check_int "three live leases" 3 (Lease.live_count t);
  check_bool "has_lease_for sees the shard" true
    (Lease.has_lease_for t ~job:"j" ~shard_index:0);
  (* settling one lease revokes its duplicate sibling, not bystanders *)
  (match Lease.complete t ~lease:g0.Lease.lease with
  | None -> Alcotest.fail "live lease reported stale"
  | Some (g, siblings) ->
    check_int "settled the right lease" g0.Lease.lease g.Lease.lease;
    check_bool "sibling for the same shard revoked" true
      (List.map (fun s -> s.Lease.lease) siblings = [ g1.Lease.lease ]));
  check_int "only the other shard's lease survives" 1 (Lease.live_count t);
  (* the revoked sibling's result now arrives stale and is dropped *)
  check_bool "revoked sibling is stale" true
    (Lease.complete t ~lease:g1.Lease.lease = None);
  check_bool "unknown lease is stale" true (Lease.complete t ~lease:999 = None)

let test_lease_heartbeat_and_expiry () =
  let t = Lease.create ~timeout:10. in
  let a = Lease.grant t ~now:0. ~job:"j" ~shard:(shard 0) ~worker:1 in
  let b = Lease.grant t ~now:0. ~job:"j" ~shard:(shard 1) ~worker:2 in
  (* worker 1 beats for both leases, but only keeps the one it owns alive *)
  Lease.heartbeat t ~now:5. ~worker:1 ~leases:[ a.Lease.lease; b.Lease.lease ];
  check_bool "own lease extended" true (a.Lease.deadline = 15.);
  check_bool "someone else's lease untouched" true (b.Lease.deadline = 10.);
  (match Lease.expired t ~now:12. with
  | [ g ] -> check_int "only the unbeaten lease expires" b.Lease.lease g.Lease.lease
  | gs -> Alcotest.failf "expected 1 expiry, got %d" (List.length gs));
  check_bool "expiry removes" true (Lease.expired t ~now:12. = []);
  check_int "the beaten lease lives on" 1 (Lease.live_count t);
  (match Lease.expired t ~now:20. with
  | [ g ] -> check_int "it expires at its extended deadline" a.Lease.lease g.Lease.lease
  | _ -> Alcotest.fail "extended lease did not expire on time");
  check_int "table empty" 0 (Lease.live_count t)

let test_lease_drop_paths () =
  let t = Lease.create ~timeout:5. in
  let a = Lease.grant t ~now:0. ~job:"j1" ~shard:(shard 0) ~worker:1 in
  let _b = Lease.grant t ~now:0. ~job:"j1" ~shard:(shard 1) ~worker:2 in
  let c = Lease.grant t ~now:0. ~job:"j2" ~shard:(shard 0) ~worker:1 in
  (* a dropped connection forfeits exactly that worker's leases *)
  let gone = Lease.drop_worker t ~worker:1 in
  check_bool "worker 1's leases forfeited, in lease order" true
    (List.map (fun g -> g.Lease.lease) gone = [ a.Lease.lease; c.Lease.lease ]);
  check_int "worker 2's lease survives" 1 (Lease.live_count t);
  (* cancelling a job revokes its leases *)
  check_int "drop_job revokes the job's leases" 1
    (List.length (Lease.drop_job t ~job:"j1"));
  check_int "empty" 0 (Lease.live_count t)

(* ------------------------- wire codecs ------------------------- *)

(* a real executed shard outcome survives the wire byte-for-byte: encode,
   decode, re-encode, compare the JSON strings *)
let outcome_roundtrips what (spec : Jobspec.t) =
  let env = Jobspec.env spec (Jobspec.prepare spec) in
  let zeal = Solver.Engine.zeal () and cove = Solver.Engine.cove () in
  let sh =
    match Shard.plan ~budget:spec.Jobspec.budget ~shard_size:spec.Jobspec.shard_size with
    | s :: _ -> s
    | [] -> Alcotest.fail "empty plan"
  in
  let outcome = Orchestrator.exec_shard ~env ~worker_id:0 ~zeal ~cove sh in
  let json = Wire.outcome_to_json outcome in
  match Wire.outcome_of_json json with
  | Error msg -> Alcotest.failf "%s: decode failed: %s" what msg
  | Ok outcome' ->
    check_string (what ^ " round-trips losslessly")
      (Json.to_string json)
      (Json.to_string (Wire.outcome_to_json outcome'))

let test_wire_outcome_roundtrip () =
  (* decode errors name the path to the offending member *)
  check_bool "unknown fault site" true
    (Result.bind
       (Json.parse {|{"outcome":"quarantined","attempts":[{"attempt":0,"fired":["nope"]}]}|})
       Wire.outcome_of_json
    = Error
        {|wire: field "attempts": element 0: field "fired": element 0: unknown fault site "nope"|});
  (* a clean merged outcome, with tracing + telemetry payloads in flight *)
  outcome_roundtrips "merged outcome"
    {
      (Jobspec.default ~name:"wire") with
      Jobspec.seed = 7;
      budget = 120;
      shard_size = 60;
      trace = true;
      telemetry = true;
    };
  (* a chaos outcome: attempt logs (and likely quarantine) on the wire *)
  outcome_roundtrips "chaos outcome"
    {
      (Jobspec.default ~name:"wire-chaos") with
      Jobspec.seed = 7;
      budget = 120;
      shard_size = 60;
      chaos_profile = "all";
      chaos_seed = 3;
      chaos_rate = 1.0;
    }

(* An outcome whose result line would exceed the coordinator's frame cap is
   reported as a failed shard naming the remedy, instead of sending a line
   the coordinator must reject (which hung the job). *)
let test_over_cap_outcome_fails () =
  let sh = { Shard.index = 3; first_tick = 30; ticks = 10 } in
  let decode line =
    match Result.bind (Json.parse line) Protocol.request_codec.dec with
    | Ok (Protocol.Worker_result { lease; outcome }) -> (
      check_int "lease kept" 7 lease;
      match Wire.outcome_of_json outcome with
      | Ok o -> o
      | Error e -> Alcotest.failf "outcome decode failed: %s" e)
    | Ok _ -> Alcotest.fail "not a result request"
    | Error e -> Alcotest.failf "request decode failed: %s" e
  in
  let small = Orchestrator.Failed "boom" in
  check_bool "an outcome under the cap is sent as is" true
    (decode (Worker.result_line ~lease:7 sh small) = small);
  let big = Orchestrator.Failed (String.make O4a_server.Framing.default_max_line 'x') in
  let line = Worker.result_line ~lease:7 sh big in
  check_bool "the line sent fits the cap" true
    (String.length line <= O4a_server.Framing.default_max_line);
  match decode line with
  | Orchestrator.Failed msg ->
    List.iter
      (fun sub ->
        check_bool ("failure names " ^ sub) true (O4a_util.Strx.contains_sub ~sub msg))
      [ "shard 3"; "bytes"; string_of_int O4a_server.Framing.default_max_line;
        "--shard-size" ]
  | _ -> Alcotest.fail "over-cap outcome was not reported as failed"

(* ------------------------- end-to-end fabric ------------------------- *)

let temp_dir () =
  let path = Filename.temp_file "o4a_dist" "" in
  Sys.remove path;
  Unix.mkdir path 0o700;
  path

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* the daemon writes the bound ephemeral port to state_dir/tcp.port *)
let wait_port path =
  let deadline = Unix.gettimeofday () +. 60. in
  let rec go () =
    match int_of_string (String.trim (read_file path)) with
    | port -> port
    | exception _ ->
      if Unix.gettimeofday () > deadline then
        Alcotest.fail "tcp.port never appeared"
      else (
        Unix.sleepf 0.05;
        go ())
  in
  go ()

let connect_tcp port =
  match Client.connect ~timeout:30. (Addr.Tcp ("127.0.0.1", port)) with
  | Ok c -> c
  | Error msg -> Alcotest.failf "cannot connect over TCP: %s" msg

let request_exn c req =
  match Client.request c req with
  | Ok reply -> reply
  | Error msg -> Alcotest.failf "request failed: %s" msg

let submit_exn c spec =
  match
    Option.bind
      (Json.member "job" (request_exn c (Protocol.Submit spec)))
      Json.to_str
  with
  | Some id -> id
  | None -> Alcotest.fail "submit reply lacks a job id"

(* poll the job's view until [ready] holds *)
let wait_view c id ready =
  let deadline = Unix.gettimeofday () +. 120. in
  let rec go () =
    let view =
      match Json.member "jobs" (request_exn c Protocol.Jobs) with
      | Some (Json.List views) ->
        List.find_map
          (fun v ->
            match Protocol.job_view_codec.dec v with
            | Ok view when view.Protocol.v_id = id -> Some view
            | _ -> None)
          views
      | _ -> Alcotest.fail "malformed jobs reply"
    in
    match view with
    | Some v when ready v -> v
    | _ ->
      if Unix.gettimeofday () > deadline then
        Alcotest.fail "distributed job did not get there in time"
      else (
        Unix.sleepf 0.05;
        go ())
  in
  go ()

let wait_done c id =
  (wait_view c id (fun v -> Protocol.job_state_terminal v.Protocol.v_state))
    .Protocol.v_state

(* the finished job's backlog, replayed over a fresh connection — includes
   every lease lifecycle event the run streamed *)
let backlog_lines c id =
  let lines = ref [] in
  let on_line json =
    lines := json :: !lines;
    match (Option.bind (Json.member "kind" json) Json.to_str, Json.member "data" json) with
    | Some "state", Some data -> (
      match Option.bind (Json.member "state" data) Json.to_str with
      | Some ("done" | "cancelled") -> false
      | Some s when String.length s >= 6 && String.sub s 0 6 = "failed" -> false
      | _ -> true)
    | _ -> true
  in
  (match Client.stream c (Protocol.Watch { job = id; from = 0 }) ~on_line with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "watch failed: %s" msg);
  List.rev !lines

let lease_events lines =
  List.filter_map
    (fun json ->
      match Option.bind (Json.member "kind" json) Json.to_str with
      | Some "lease" ->
        Option.bind (Json.member "data" json) (fun d ->
            Option.bind (Json.member "event" d) Json.to_str)
      | _ -> None)
    lines

(* what `once4all fuzz --jobs 1` would print for this spec; with a
   [checkpoint_path] it also writes the checkpoint a served job writes,
   whose artifact flags record the live telemetry every served job has *)
let standalone_text ?checkpoint_path ?trace_dir (spec : Jobspec.t) =
  let { Jobspec.generators; seeds } = Jobspec.prepare spec in
  let r =
    Orchestrator.run ~jobs:1 ~shard_size:spec.Jobspec.shard_size
      ~config:(Jobspec.config spec) ~extra:(Jobspec.extra spec)
      ?chaos:(Jobspec.chaos spec) ?health:(Jobspec.health spec)
      ?checkpoint_path ?trace_dir
      ?telemetry:
        (Option.map (fun _ -> O4a_telemetry.Telemetry.create ()) checkpoint_path)
      ~seed:(Jobspec.fuzz_seed spec) ~budget:spec.Jobspec.budget ~generators
      ~seeds ()
  in
  Render.header ~generators:(List.length generators)
    ~seeds:(List.length seeds) ~budget:spec.Jobspec.budget
  ^ Render.finish ?trace_dir ~chaos:(Jobspec.chaos spec) r

let dist_cfg ~dir =
  {
    Daemon.socket_path = Filename.concat dir "s.sock";
    state_dir = Filename.concat dir "state";
    pool = 0;  (* coordinator-only: every shard must travel the fabric *)
    tcp = Some "127.0.0.1:0";
    handshake_timeout = Daemon.default_handshake_timeout;
    idle_timeout = Daemon.default_idle_timeout;
    lease_timeout = 10.;
  }

let worker_cfg ?quit_after ~port ~slots () =
  {
    Worker.addr = Addr.Tcp ("127.0.0.1", port);
    slots;
    connect_timeout = 30.;
    heartbeat_interval = 1.0;
    quit_after;
  }

(* A coordinator with zero local workers and one remote TCP pool: every
   shard travels the wire out, every outcome travels back, and the report is
   byte-identical to the standalone single-job run. Shutdown drains the
   worker cleanly (exit 0). *)
let test_dist_end_to_end () =
  let dir = temp_dir () in
  let cfg = dist_cfg ~dir in
  let daemon = Domain.spawn (fun () -> Daemon.run cfg) in
  let port = wait_port (Filename.concat cfg.Daemon.state_dir "tcp.port") in
  let w = Domain.spawn (fun () -> Worker.run (worker_cfg ~port ~slots:2 ())) in
  let c = connect_tcp port in
  let spec =
    {
      (Jobspec.default ~name:"remote") with
      Jobspec.seed = 7;
      budget = 300;
      shard_size = 60;
    }
  in
  let id = submit_exn c spec in
  check_bool "job completes over the fabric" true (wait_done c id = Protocol.Done);
  let report = read_file (Filename.concat (Filename.concat cfg.Daemon.state_dir id) "report.txt") in
  check_string "report byte-identical to standalone --jobs 1"
    (standalone_text spec) report;
  (* lease lifecycle is observable on the watch stream *)
  let c2 = connect_tcp port in
  let events = lease_events (backlog_lines c2 id) in
  Client.close c2;
  check_bool "every shard was granted" true
    (List.length (List.filter (( = ) "lease.granted") events) >= 5);
  check_bool "every grant settled" true
    (List.length (List.filter (( = ) "lease.completed") events) >= 5);
  let _ = request_exn c Protocol.Shutdown in
  Client.close c;
  check_int "worker drains on coordinator shutdown" 0 (Domain.join w);
  check_int "daemon drains and exits 0" 0 (Domain.join daemon)

(* Kill a worker mid-lease: pool A dies abruptly with a lease unsettled
   (quit_after), pool B picks up the forfeited shard, and the merged report
   is still byte-identical — reassignment re-executes the shard from its
   index-derived RNG, so nothing about the death can leak into the bytes. *)
let test_dist_worker_killed_mid_lease () =
  let dir = temp_dir () in
  let cfg = dist_cfg ~dir in
  let daemon = Domain.spawn (fun () -> Daemon.run cfg) in
  let port = wait_port (Filename.concat cfg.Daemon.state_dir "tcp.port") in
  (* pool A executes one shard, sends it, then dies with its next lease
     unsettled; pool B does the rest *)
  let wa =
    Domain.spawn (fun () -> Worker.run (worker_cfg ~quit_after:1 ~port ~slots:1 ()))
  in
  let c = connect_tcp port in
  let spec =
    {
      (Jobspec.default ~name:"survivor") with
      Jobspec.seed = 11;
      budget = 300;
      shard_size = 60;
    }
  in
  let id = submit_exn c spec in
  (* B joins once A's first result has merged: the coordinator granted A
     its next shard in the same step, so A certainly dies holding a lease.
     Had B been there from the start it could drain the queue first, and A
     would wait for a grant forever. *)
  ignore (wait_view c id (fun v -> v.Protocol.v_shards_done >= 1));
  let wb = Domain.spawn (fun () -> Worker.run (worker_cfg ~port ~slots:2 ())) in
  check_bool "job completes despite the dead worker" true
    (wait_done c id = Protocol.Done);
  check_int "the dying worker exited abruptly" 1 (Domain.join wa);
  let report = read_file (Filename.concat (Filename.concat cfg.Daemon.state_dir id) "report.txt") in
  check_string "report byte-identical despite mid-lease death"
    (standalone_text spec) report;
  let c2 = connect_tcp port in
  let events = lease_events (backlog_lines c2 id) in
  Client.close c2;
  check_bool "the death was observed" true (List.mem "lease.worker_lost" events);
  check_bool "the forfeited shard was reassigned" true
    (List.mem "lease.reassigned" events);
  let _ = request_exn c Protocol.Shutdown in
  Client.close c;
  check_int "surviving worker drains" 0 (Domain.join wb);
  check_int "daemon drains and exits 0" 0 (Domain.join daemon)

(* Network chaos over the real fabric: conn_drop/stream_stall taint attempts
   (deterministically, per (site, shard, attempt)) and lease_dup duplicates
   grants at the coordinator. None of it may leak into the report: the
   chaos run over TCP equals the same chaos spec run standalone. *)
let test_dist_chaos_net () =
  let dir = temp_dir () in
  let cfg = dist_cfg ~dir in
  let daemon = Domain.spawn (fun () -> Daemon.run cfg) in
  let port = wait_port (Filename.concat cfg.Daemon.state_dir "tcp.port") in
  let w = Domain.spawn (fun () -> Worker.run (worker_cfg ~port ~slots:2 ())) in
  let c = connect_tcp port in
  let spec =
    {
      (Jobspec.default ~name:"chaotic") with
      Jobspec.seed = 5;
      budget = 300;
      shard_size = 60;
      chaos_profile = "net";
      chaos_seed = 2;
      chaos_rate = 1.0;
    }
  in
  let id = submit_exn c spec in
  check_bool "chaos job completes" true (wait_done c id = Protocol.Done);
  let report = read_file (Filename.concat (Filename.concat cfg.Daemon.state_dir id) "report.txt") in
  check_string "chaos report byte-identical to standalone chaos run"
    (standalone_text spec) report;
  (* rate-1.0 lease_dup duplicates every primary grant; each duplicate's
     result must arrive stale (revoked sibling), never double-merge *)
  let c2 = connect_tcp port in
  let events = lease_events (backlog_lines c2 id) in
  Client.close c2;
  check_bool "duplicate grants were issued" true
    (List.mem "lease.duplicated" events);
  check_bool "their results arrived stale" true
    (List.mem "lease.stale_result" events);
  let _ = request_exn c Protocol.Shutdown in
  Client.close c;
  check_int "worker drains" 0 (Domain.join w);
  check_int "daemon drains and exits 0" 0 (Domain.join daemon)

(* the lines of a report, less the "wrote N repro bundles to DIR" line that
   names where its trace tree went *)
let without_paths report =
  String.split_on_char '\n' report
  |> List.filter (fun l -> not (String.starts_with ~prefix:"wrote " l))

(* relative path -> file contents, for every regular file under [root] *)
let dir_contents root =
  let rec go rel =
    let path = Filename.concat root rel in
    if Sys.is_directory path then
      Sys.readdir path |> Array.to_list |> List.sort compare
      |> List.concat_map (fun f -> go (Filename.concat rel f))
    else [ (rel, read_file path) ]
  in
  go Filename.current_dir_name

(* One job on a coordinator with a local slot and a remote one-slot pool:
   the one dispatch step feeds both venues, and the report and trace tree
   are still the standalone run's. *)
let test_local_and_remote_slots () =
  let dir = temp_dir () in
  let cfg = { (dist_cfg ~dir) with Daemon.pool = 1 } in
  let daemon = Domain.spawn (fun () -> Daemon.run cfg) in
  let port = wait_port (Filename.concat cfg.Daemon.state_dir "tcp.port") in
  let w = Domain.spawn (fun () -> Worker.run (worker_cfg ~port ~slots:1 ())) in
  let c = connect_tcp port in
  let spec =
    {
      (Jobspec.default ~name:"mixed") with
      Jobspec.seed = 7;
      budget = 400;
      shard_size = 10;
      trace = true;
    }
  in
  let id = submit_exn c spec in
  check_bool "job completes on both venues" true (wait_done c id = Protocol.Done);
  let job_dir = Filename.concat cfg.Daemon.state_dir id in
  let trace_dir = Filename.concat dir "standalone_trace" in
  Alcotest.(check (list string))
    "report equals the standalone run's"
    (without_paths (standalone_text ~trace_dir spec))
    (without_paths (read_file (Filename.concat job_dir "report.txt")));
  check_bool "trace tree equals the standalone run's" true
    (dir_contents trace_dir = dir_contents (Filename.concat job_dir "trace"));
  let c2 = connect_tcp port in
  let remote =
    List.length
      (List.filter (( = ) "lease.completed") (lease_events (backlog_lines c2 id)))
  in
  Client.close c2;
  check_bool
    (Printf.sprintf "both venues ran shards (%d of 40 remote)" remote)
    true
    (remote > 0 && remote < 40);
  let _ = request_exn c Protocol.Shutdown in
  Client.close c;
  check_int "worker drains" 0 (Domain.join w);
  check_int "daemon drains and exits 0" 0 (Domain.join daemon)

(* Three jobs at once through one remote one-slot worker: the scheduler
   interleaves their shards, so the worker holds three live jobs' envs
   behind one slot, and every report is still its standalone run's. *)
let test_more_jobs_than_slots () =
  let dir = temp_dir () in
  let cfg = dist_cfg ~dir in
  let daemon = Domain.spawn (fun () -> Daemon.run cfg) in
  let port = wait_port (Filename.concat cfg.Daemon.state_dir "tcp.port") in
  let w = Domain.spawn (fun () -> Worker.run (worker_cfg ~port ~slots:1 ())) in
  let c = connect_tcp port in
  let specs =
    List.map
      (fun seed ->
        {
          (Jobspec.default ~name:(Printf.sprintf "crowd%d" seed)) with
          Jobspec.seed;
          budget = 120;
          shard_size = 20;
        })
      [ 3; 5; 7 ]
  in
  let ids = List.map (submit_exn c) specs in
  List.iter2
    (fun spec id ->
      check_bool "job completes" true (wait_done c id = Protocol.Done);
      check_string
        (spec.Jobspec.name ^ " report byte-identical to standalone --jobs 1")
        (standalone_text spec)
        (read_file (Filename.concat (Filename.concat cfg.Daemon.state_dir id) "report.txt")))
    specs ids;
  let _ = request_exn c Protocol.Shutdown in
  Client.close c;
  check_int "worker drains" 0 (Domain.join w);
  check_int "daemon drains and exits 0" 0 (Domain.join daemon)

(* A coordinator that grants one shard, then at once sends Drain and hangs
   up, as a coordinator's shutdown does to a worker still running a
   duplicate lease. After Drain a lost connection is the expected end: the
   worker exits 0, and does not die of SIGPIPE writing its stale result. *)
let test_drain_then_hang_up () =
  let lfd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen lfd 1;
  let port =
    match Unix.getsockname lfd with Unix.ADDR_INET (_, p) -> p | _ -> 0
  in
  let w = Domain.spawn (fun () -> Worker.run (worker_cfg ~port ~slots:1 ())) in
  let fd, _ = Unix.accept lfd in
  Unix.close lfd;
  let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
  let send json =
    output_string oc (Json.to_string json);
    output_char oc '\n';
    flush oc
  in
  send Protocol.hello;
  (match Result.bind (Json.parse (input_line ic)) Protocol.request_codec.dec with
  | Ok (Protocol.Worker_register { slots }) -> check_int "registers" 1 slots
  | _ -> Alcotest.fail "the worker did not register");
  let spec =
    { (Jobspec.default ~name:"drained") with Jobspec.seed = 3; budget = 10; shard_size = 10 }
  in
  send
    (Protocol.worker_msg_codec.enc
       (Protocol.Grant
          { lease = 1; job = "drained"; grant_attempt = 0; shard = shard 0; spec }));
  send (Protocol.worker_msg_codec.enc Protocol.Drain);
  close_out oc;
  check_int "the drained worker exits 0" 0 (Domain.join w)

(* A coordinator that grants a job's shard, retires the job, then grants
   its other shard, as a stale lease can arrive after its job ended. The
   worker dropped the job's env at the Retire and rebuilds it from the
   granted spec: both results must be the ones the job's own env gives. *)
let test_retire_then_grant () =
  let lfd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen lfd 1;
  let port =
    match Unix.getsockname lfd with Unix.ADDR_INET (_, p) -> p | _ -> 0
  in
  let w = Domain.spawn (fun () -> Worker.run (worker_cfg ~port ~slots:1 ())) in
  let fd, _ = Unix.accept lfd in
  Unix.close lfd;
  let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
  let send msg =
    output_string oc (Json.to_string (Protocol.worker_msg_codec.enc msg));
    output_char oc '\n';
    flush oc
  in
  output_string oc (Json.to_string Protocol.hello ^ "\n");
  flush oc;
  let spec =
    { (Jobspec.default ~name:"retired") with Jobspec.seed = 3; budget = 20; shard_size = 10 }
  in
  let env = Jobspec.env spec (Jobspec.prepare spec) in
  let zeal = Solver.Engine.zeal () and cove = Solver.Engine.cove () in
  (* a result line's shard record, the part a checkpoint keeps; its
     telemetry events and metrics carry wall-clock times *)
  let untimed_line line =
    let member k j = Option.bind j (Json.member k) in
    match
      Json.parse line |> Result.to_option |> member "outcome" |> member "payload"
      |> member "sr"
    with
    | Some sr -> Json.to_string sr
    | None -> Alcotest.failf "result line without a shard record: %s" line
  in
  let expected lease i =
    untimed_line
      (Worker.result_line ~lease (shard i)
         (Orchestrator.exec_shard ~env ~worker_id:0 ~zeal ~cove (shard i)))
  in
  (* the next result line; registration and heartbeats are skipped *)
  let rec result () =
    let line = input_line ic in
    match Result.bind (Json.parse line) Protocol.request_codec.dec with
    | Ok (Protocol.Worker_result _) -> untimed_line line
    | _ -> result ()
  in
  let grant lease i =
    send (Protocol.Grant { lease; job = "retired"; grant_attempt = 0; shard = shard i; spec });
    check_string (Printf.sprintf "shard %d's result" i) (expected lease i) (result ())
  in
  grant 1 0;
  send (Protocol.Retire "retired");
  grant 2 1;
  send Protocol.Drain;
  close_out oc;
  check_int "the worker drains" 0 (Domain.join w)

(* ------------------------- untrusted results ------------------------- *)

(* A hand-driven one-slot pool over TCP. It answers the [n]th grant it
   receives with the result line [answer n ~lease shard] builds, and after
   answering [answers] grants asks the coordinator for its job list: the
   reply proves every result line before it was processed. Then it hangs
   up, forfeiting whatever it was granted meanwhile, and returns the jobs
   the coordinator retired on its connection. *)
let scripted_worker ~port ~answers ~answer =
  let c = connect_tcp port in
  (match Client.send c (Protocol.Worker_register { slots = 1 }) with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "scripted worker cannot register: %s" msg);
  let fd = Client.fd c in
  let fr = O4a_server.Framing.create () in
  let buf = Bytes.create 65536 in
  let pending = Queue.create () in
  let deadline = Unix.gettimeofday () +. 60. in
  (* the next line from the coordinator; [None] once it hangs up or goes
     silent for the rest of the deadline *)
  let rec next_line () =
    match Queue.take_opt pending with
    | Some line -> Some line
    | None -> (
      let left = deadline -. Unix.gettimeofday () in
      if left <= 0. then None
      else
        match Unix.select [ fd ] [] [] left with
        | [], _, _ -> None
        | _ -> (
          match Unix.read fd buf 0 (Bytes.length buf) with
          | 0 | (exception Unix.Unix_error _) -> None
          | n -> (
            match O4a_server.Framing.feed fr (Bytes.sub_string buf 0 n) with
            | Ok lines ->
              List.iter (fun l -> Queue.push l pending) lines;
              next_line ()
            | Error _ -> None)))
  in
  let retired = ref [] in
  let parse line =
    match Json.parse line with
    | Ok json ->
      (match Protocol.worker_msg_codec.dec json with
      | Ok (Protocol.Retire job) -> retired := job :: !retired
      | Ok (Protocol.Grant _ | Protocol.Drain) | Error _ -> ());
      json
    | Error msg -> Alcotest.failf "unparseable line from coordinator: %s" msg
  in
  let rec serve n =
    if n < answers then
      match Option.map parse (next_line ()) with
      | None -> ()
      | Some json -> (
        match Protocol.worker_msg_codec.dec json with
        | Ok (Protocol.Grant { lease; shard; _ }) ->
          (match Client.send_line c (answer n ~lease shard) with
          | Ok () -> ()
          | Error msg -> Alcotest.failf "scripted worker cannot send: %s" msg);
          serve (n + 1)
        | Ok (Protocol.Drain | Protocol.Retire _) | Error _ -> serve n)
  in
  serve 0;
  ignore (Client.send c Protocol.Jobs);
  let rec synced () =
    match Option.map parse (next_line ()) with
    | None -> ()
    | Some json -> if Json.member "jobs" json = None then synced ()
  in
  synced ();
  Client.close c;
  List.rev !retired

(* Run a budget-20, two-shard job on a coordinator without local workers.
   The scripted pool answers shard 0 correctly and shard 1 with [corrupt]
   applied to the correct outcomes; then a well-behaved pool finishes the
   job. The daemon must survive, reject the bad result, re-execute the
   shard, and land on the standalone run's report, checkpoint and
   analytics. *)
let remote_result_rejected ~name ~corrupt =
  let dir = temp_dir () in
  let cfg = dist_cfg ~dir in
  let died = Atomic.make None in
  let daemon =
    Domain.spawn (fun () ->
        match Daemon.run cfg with
        | code -> code
        | exception e ->
          Atomic.set died (Some (Printexc.to_string e));
          2)
  in
  let port = wait_port (Filename.concat cfg.Daemon.state_dir "tcp.port") in
  let spec =
    { (Jobspec.default ~name) with Jobspec.seed = 3; budget = 20; shard_size = 10 }
  in
  let env = Jobspec.env spec (Jobspec.prepare spec) in
  let zeal = Solver.Engine.zeal () and cove = Solver.Engine.cove () in
  let outcomes = Hashtbl.create 2 in
  let outcome (sh : Shard.t) =
    match Hashtbl.find_opt outcomes sh.Shard.index with
    | Some o -> o
    | None ->
      let o = Orchestrator.exec_shard ~env ~worker_id:0 ~zeal ~cove sh in
      Hashtbl.replace outcomes sh.Shard.index o;
      o
  in
  let plan = Shard.plan ~budget:20 ~shard_size:10 in
  let answer n ~lease (sh : Shard.t) =
    let o =
      if n = 0 then outcome sh
      else corrupt ~good:(List.map outcome plan) (outcome sh)
    in
    Worker.result_line ~lease sh o
  in
  let scripted =
    Domain.spawn (fun () -> scripted_worker ~port ~answers:2 ~answer)
  in
  let c = connect_tcp port in
  let id = submit_exn c spec in
  check_bool "a job still running is not retired" true (Domain.join scripted = []);
  (match Atomic.get died with
  | Some e -> Alcotest.failf "the daemon died on a bad remote result: %s" e
  | None -> ());
  let w = Domain.spawn (fun () -> Worker.run (worker_cfg ~port ~slots:1 ())) in
  check_bool "the job completes once a well-behaved pool re-executes the shard"
    true (wait_done c id = Protocol.Done);
  let metrics = request_exn c (Protocol.Metrics id) in
  let job_dir = Filename.concat cfg.Daemon.state_dir id in
  let cp_path = Filename.concat dir "standalone_checkpoint.json" in
  check_string "report byte-identical to standalone"
    (standalone_text ~checkpoint_path:cp_path spec)
    (read_file (Filename.concat job_dir "report.txt"));
  check_string "checkpoint byte-identical to standalone" (read_file cp_path)
    (read_file (Filename.concat job_dir "checkpoint.json"));
  (* what `analyze --json` prints for the standalone checkpoint *)
  let analyze =
    match Orchestrator.Checkpoint.load ~path:cp_path with
    | Ok cp ->
      Json.to_string
        (O4a_analytics.Analytics.codec.enc cp.Orchestrator.Checkpoint.analytics)
    | Error _ -> Alcotest.fail "standalone checkpoint unreadable"
  in
  check_string "live analytics equal analyze --json on the standalone checkpoint"
    analyze
    (match Json.member "analytics" metrics with
    | Some a -> Json.to_string a
    | None -> Alcotest.fail "metrics reply lacks analytics");
  let _ = request_exn c Protocol.Shutdown in
  Client.close c;
  check_int "worker drains" 0 (Domain.join w);
  check_int "daemon drains and exits 0" 0 (Domain.join daemon)

(* A scripted pool runs a whole two-shard job. Its last result finishes
   the job, so the coordinator retires the job on the pool's connection
   before it answers the pool's job list. *)
let test_finished_job_retired () =
  let dir = temp_dir () in
  let cfg = dist_cfg ~dir in
  let daemon = Domain.spawn (fun () -> Daemon.run cfg) in
  let port = wait_port (Filename.concat cfg.Daemon.state_dir "tcp.port") in
  let spec =
    { (Jobspec.default ~name:"finished") with Jobspec.seed = 3; budget = 20; shard_size = 10 }
  in
  let env = Jobspec.env spec (Jobspec.prepare spec) in
  let zeal = Solver.Engine.zeal () and cove = Solver.Engine.cove () in
  let answer _ ~lease sh =
    Worker.result_line ~lease sh (Orchestrator.exec_shard ~env ~worker_id:0 ~zeal ~cove sh)
  in
  let scripted = Domain.spawn (fun () -> scripted_worker ~port ~answers:2 ~answer) in
  let c = connect_tcp port in
  let id = submit_exn c spec in
  let retired = Domain.join scripted in
  check_bool "the job completes" true (wait_done c id = Protocol.Done);
  check_bool "the pool was told to retire the job" true (retired = [ id ]);
  let _ = request_exn c Protocol.Shutdown in
  Client.close c;
  check_int "daemon drains and exits 0" 0 (Domain.join daemon)

(* shard 0's outcome, sent for shard 1's lease: merged, it listed shard 0
   twice and the checkpoint written next failed its own verify step *)
let test_result_for_another_shard () =
  remote_result_rejected ~name:"wrong-shard" ~corrupt:(fun ~good _ ->
      List.hd good)

(* a result whose metrics turn the stage-duration histograms into counters:
   absorbed, it raised out of Metrics.absorb and took the whole daemon down *)
let test_result_with_clashing_metrics () =
  remote_result_rejected ~name:"metric-clash" ~corrupt:(fun ~good:_ o ->
      match o with
      | Orchestrator.Merged (p, retries, fired) ->
        let clash (e : O4a_telemetry.Metrics.entry) =
          match e.O4a_telemetry.Metrics.value with
          | O4a_telemetry.Metrics.Histogram _
            when e.O4a_telemetry.Metrics.name = "stage.duration" ->
            { e with O4a_telemetry.Metrics.value = O4a_telemetry.Metrics.Counter 1 }
          | _ -> e
        in
        Orchestrator.Merged
          ( { p with
              Orchestrator.metric_entries =
                List.map clash p.Orchestrator.metric_entries },
            retries,
            fired )
      | o -> Alcotest.failf "shard 1 did not merge: %s"
               (Json.to_string (Wire.outcome_to_json o)))

let () =
  Alcotest.run "dist"
    [
      ( "lease",
        [
          Alcotest.test_case "grants, attempts, sibling revocation" `Quick
            test_lease_grants_and_attempts;
          Alcotest.test_case "heartbeat and expiry" `Quick
            test_lease_heartbeat_and_expiry;
          Alcotest.test_case "drop worker / drop job" `Quick
            test_lease_drop_paths;
        ] );
      ( "wire",
        [
          Alcotest.test_case "outcome round-trip" `Slow
            test_wire_outcome_roundtrip;
          Alcotest.test_case "over-cap outcome fails the shard" `Quick
            test_over_cap_outcome_fails;
        ] );
      ( "fabric",
        [
          Alcotest.test_case "TCP end-to-end byte-identity" `Slow
            test_dist_end_to_end;
          Alcotest.test_case "worker killed mid-lease" `Slow
            test_dist_worker_killed_mid_lease;
          Alcotest.test_case "network chaos invariance" `Slow
            test_dist_chaos_net;
          Alcotest.test_case "one job on local and remote slots" `Slow
            test_local_and_remote_slots;
          Alcotest.test_case "more jobs than slots on one remote worker" `Slow
            test_more_jobs_than_slots;
          Alcotest.test_case "hang-up after Drain exits 0" `Slow
            test_drain_then_hang_up;
          Alcotest.test_case "a grant after Retire rebuilds the env" `Slow
            test_retire_then_grant;
        ] );
      ( "untrusted",
        [
          Alcotest.test_case "a result for another shard is requeued" `Slow
            test_result_for_another_shard;
          Alcotest.test_case "clashing metrics are requeued" `Slow
            test_result_with_clashing_metrics;
          Alcotest.test_case "a finished job is retired at its pool" `Slow
            test_finished_job_retired;
        ] );
    ]
