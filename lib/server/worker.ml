module Json = O4a_telemetry.Json
module Engine = Solver.Engine
module Shard = Orchestrator.Shard

let log_src = Logs.Src.create "once4all.worker" ~doc:"Remote campaign worker"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* A remote worker pool: connects to a coordinator's TCP (or Unix) listener,
   registers its slot count, and executes granted shards with the exact
   pipeline the coordinator's local pool uses — Jobspec.prepare and
   Jobspec.env from the granted spec, then Orchestrator.exec_shard. A shard
   outcome is a pure function of (env, shard) and the env is a pure function
   of the spec, so a shard executed here is bit-for-bit the shard the
   coordinator would have executed itself; the network moves work, never
   results' content.

   Threading: the main thread owns the connection — it reads grants, writes
   heartbeats and result lines, and waits in [select] on the socket and on
   the pool's ready descriptor. [slots] executors of an Orchestrator.Pool
   build envs, run shards and encode their result lines. Heartbeats
   therefore keep flowing while every slot is busy crunching, which is what
   lets a shard legitimately outlive the lease timeout. *)

type config = {
  addr : Addr.t;
  slots : int;
  connect_timeout : float;
  heartbeat_interval : float;
  quit_after : int option;
      (** test hook: die abruptly — connection dropped, no drain — instead
          of sending result number N+1. [Some 0] dies before the first. *)
}

let default_heartbeat_interval = Daemon.default_lease_timeout /. 3.

type state = {
  cfg : config;
  client : Client.t;
  pool : (int * string option) Orchestrator.Pool.t;
      (* a lease and its result line; [None] when its task skipped the shard *)
  elock : Mutex.t;  (* guards the cells in [envs]; executors fill them *)
  envs : (string, Orchestrator.exec_env option ref) Hashtbl.t;
      (* by job, granted and not yet retired; socket thread only *)
  mutable leases : int list;  (* granted, result not yet taken *)
  mutable sent : int;  (* results delivered, for [quit_after] *)
  mutable draining : bool;  (* coordinator said Drain: finish and exit *)
  mutable abrupt : bool;  (* the exit is abnormal: exit 1 *)
  dead : bool Atomic.t;  (* the connection is over; tasks skip their shard *)
}

(* The connection is over. After Drain that is the expected end (the
   coordinator has already forfeited any lease still out); before it, the
   exit is abrupt. *)
let hang_up st why =
  if not st.draining then (
    Log.warn (fun m -> m "%s" why);
    st.abrupt <- true);
  Atomic.set st.dead true

let send_line st line =
  match Client.send_line st.client line with
  | Ok () -> ()
  | Error msg -> hang_up st ("send failed: " ^ msg)

(* The coordinator's framer drops a connection whose line exceeds the frame
   cap, which would strand the lease until the job hangs. An outcome too
   big for one line is therefore reported as a failure that names the
   remedy, and the job fails instead. *)
let result_line ~lease (shard : Shard.t) outcome =
  let line outcome =
    Json.to_string
      (Protocol.request_codec.enc
         (Protocol.Worker_result { lease; outcome = Wire.outcome_to_json outcome }))
  in
  let full = line outcome in
  let cap = Framing.default_max_line in
  if String.length full <= cap then full
  else (
    Log.warn (fun m ->
        m "shard %d outcome is %d bytes, over the frame cap" shard.Shard.index
          (String.length full));
    line
      (Orchestrator.Failed
         (Printf.sprintf
            "shard %d outcome is %d bytes on the wire, over the %d-byte frame \
             cap; resubmit with a smaller --shard-size"
            shard.Shard.index (String.length full) cap)))

(* one env per job: preparing a campaign runs Algorithm 1, so it happens
   once per job, not per granted shard. The socket thread files a job's env
   cell at its first grant and drops it when the coordinator retires the
   job, so a worker holds the envs of live jobs only, however many it has
   served. A task keeps its job's cell: a stale lease that runs after the
   Retire builds its env into a cell no later grant sees *)
let env_cell st job =
  match Hashtbl.find_opt st.envs job with
  | Some cell -> cell
  | None ->
    let cell = ref None in
    Hashtbl.replace st.envs job cell;
    cell

let env_of st ~spec cell =
  Mutex.protect st.elock (fun () ->
      match !cell with
      | Some env -> env
      | None ->
        let env = Jobspec.env spec (Jobspec.prepare spec) in
        cell := Some env;
        env)

let execute st ~lease ~cell ~spec shard ~worker_id ~zeal ~cove =
  if Atomic.get st.dead then (lease, None)
  else
    let env = env_of st ~spec cell in
    let outcome = Orchestrator.exec_shard ~env ~worker_id ~zeal ~cove shard in
    (lease, Some (result_line ~lease shard outcome))

let deliver st (lease, line) =
  st.leases <- List.filter (( <> ) lease) st.leases;
  match line with
  | Some line when not (Atomic.get st.dead) -> (
    match st.cfg.quit_after with
    | Some n when st.sent >= n ->
      (* die with the lease unsettled: the coordinator sees the connection
         drop and reassigns the shard — the scenario the byte-identity
         tests kill workers to produce *)
      st.abrupt <- true;
      Atomic.set st.dead true
    | _ ->
      st.sent <- st.sent + 1;
      send_line st line)
  | Some _ | None -> ()

let heartbeat st =
  send_line st
    (Json.to_string
       (Protocol.request_codec.enc
          (Protocol.Worker_heartbeat { leases = List.sort compare st.leases })))

let handle_line st line =
  match Json.parse line with
  | Error msg -> Log.warn (fun m -> m "unparseable line from coordinator: %s" msg)
  | Ok json -> (
    match Protocol.worker_msg_codec.dec json with
    | Ok (Protocol.Grant { lease; job; grant_attempt = _; shard; spec }) ->
      Log.info (fun m ->
          m "granted lease %d: job %s shard %d" lease job shard.Shard.index);
      st.leases <- lease :: st.leases;
      Orchestrator.Pool.submit st.pool
        (execute st ~lease ~cell:(env_cell st job) ~spec shard)
    | Ok (Protocol.Retire job) ->
      Log.info (fun m -> m "job %s retired; dropping its env" job);
      Hashtbl.remove st.envs job
    | Ok Protocol.Drain ->
      Log.info (fun m -> m "coordinator draining; finishing in-flight shards");
      st.draining <- true
    | Error _ -> (
      (* not a coordinator push: a late reply (ok) or an error report *)
      match Protocol.reply_error json with
      | Some msg -> hang_up st ("coordinator error: " ^ msg)
      | None -> ()))

let finished st = Atomic.get st.dead || (st.draining && st.leases = [])

(* main-thread loop: grants in; results and heartbeats out, on a select
   timer so heartbeats flow even when nothing is arriving *)
let socket_loop st fd =
  let fr = Framing.create () in
  let buf = Bytes.create 4096 in
  let ready = Orchestrator.Pool.ready_fd st.pool in
  let last_beat = ref (Unix.gettimeofday ()) in
  let rec take_results () =
    Option.iter
      (fun r -> deliver st r; take_results ())
      (Orchestrator.Pool.try_take st.pool)
  in
  let rec loop () =
    if not (finished st) then (
      let tick = Float.max 0.05 (st.cfg.heartbeat_interval /. 4.) in
      (match Unix.select [ fd; ready ] [] [] tick with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | readable, _, _ when List.mem fd readable -> (
        match Unix.read fd buf 0 (Bytes.length buf) with
        | exception
            Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
          -> ()
        | exception Unix.Unix_error _ | 0 ->
          hang_up st "connection to coordinator lost"
        | n -> (
          match Framing.feed fr (Bytes.sub_string buf 0 n) with
          | Ok lines -> List.iter (handle_line st) lines
          | Error err -> hang_up st (Framing.error_to_string err)))
      | _ -> ());
      take_results ();
      let now = Unix.gettimeofday () in
      if now -. !last_beat >= st.cfg.heartbeat_interval then (
        last_beat := now;
        if not (finished st) then heartbeat st);
      loop ())
  in
  loop ()

let run cfg =
  if cfg.slots < 1 then (
    prerr_endline "once4all: worker --slots must be >= 1";
    2)
  else (
    (* a coordinator that hangs up mid-write must surface as EPIPE, not kill
       the worker *)
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ | Sys_error _ -> ());
    Engine.prewarm ();
    match Client.connect ~timeout:cfg.connect_timeout cfg.addr with
    | Error msg ->
      prerr_endline ("once4all: " ^ msg);
      1
    | Ok client -> (
      (* the register reply is consumed by the framing loop, not here: a
         buffered request-reply read could swallow a grant the coordinator
         pushes in the same instant it acknowledges registration *)
      match Client.send client (Protocol.Worker_register { slots = cfg.slots }) with
      | Error msg ->
        prerr_endline ("once4all: cannot register with coordinator: " ^ msg);
        Client.close client;
        1
      | Ok () ->
        Log.info (fun m ->
            m "registering with %s (%d slots)" (Addr.to_string cfg.addr)
              cfg.slots);
        let st =
          {
            cfg;
            client;
            pool = Orchestrator.Pool.create ~slots:cfg.slots;
            elock = Mutex.create ();
            envs = Hashtbl.create 4;
            leases = [];
            sent = 0;
            draining = false;
            abrupt = false;
            dead = Atomic.make false;
          }
        in
        socket_loop st (Client.fd client);
        ignore (Orchestrator.Pool.close st.pool);
        Client.close client;
        if st.abrupt then (
          Log.warn (fun m -> m "worker exiting abruptly (%d results sent)" st.sent);
          1)
        else (
          Log.info (fun m -> m "worker drained (%d results sent)" st.sent);
          0)))
