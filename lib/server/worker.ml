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

   Threading: the main thread owns the socket — reads grants, sends
   heartbeats — and [slots] executor domains pull grants off a local queue
   and push results back through a writer lock. Heartbeats therefore keep
   flowing while every slot is busy crunching, which is what lets a shard
   legitimately outlive the lease timeout. *)

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

type task = { lease : int; job : string; spec : Jobspec.t; shard : Shard.t }

type state = {
  cfg : config;
  client : Client.t;
  wlock : Mutex.t;  (* guards writes to the shared connection *)
  elock : Mutex.t;  (* guards [envs]; held across a build, so heartbeats
                       (under [qlock]) never stall on env construction *)
  qlock : Mutex.t;  (* guards everything below *)
  qcond : Condition.t;
  queue : task Queue.t;
  inflight : (int, unit) Hashtbl.t;  (* lease ids being executed *)
  envs : (string, Orchestrator.exec_env) Hashtbl.t;
  mutable sent : int;  (* results delivered, for [quit_after] *)
  mutable draining : bool;  (* coordinator said Drain: finish and exit *)
  mutable dead : bool;  (* connection lost or quit_after tripped *)
}

let push_line st line =
  Mutex.protect st.wlock (fun () ->
      match Client.send_line st.client line with
      | Ok () -> ()
      | Error msg ->
        Log.warn (fun m -> m "send failed: %s" msg);
        Mutex.protect st.qlock (fun () ->
            st.dead <- true;
            Condition.broadcast st.qcond))

let push_request st req =
  push_line st (Json.to_string (Protocol.request_codec.enc req))

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
   once, not per granted shard *)
let env_for st (task : task) =
  Mutex.protect st.elock (fun () ->
      match Hashtbl.find_opt st.envs task.job with
      | Some env -> env
      | None ->
        let env = Jobspec.env task.spec (Jobspec.prepare task.spec) in
        Hashtbl.replace st.envs task.job env;
        env)

let executor st slot () =
  Printexc.record_backtrace (Printexc.backtrace_status ());
  let zeal = Engine.zeal () and cove = Engine.cove () in
  let claim () =
    Mutex.protect st.qlock (fun () ->
        let rec go () =
          if st.dead then None
          else
            match Queue.take_opt st.queue with
            | Some task ->
              Hashtbl.replace st.inflight task.lease ();
              Some task
            | None ->
              if st.draining then None
              else (
                Condition.wait st.qcond st.qlock;
                go ())
        in
        go ())
  in
  let rec loop () =
    match claim () with
    | None -> ()
    | Some task ->
      let env = env_for st task in
      let outcome =
        Orchestrator.exec_shard ~env ~worker_id:slot ~zeal ~cove task.shard
      in
      let quit =
        Mutex.protect st.qlock (fun () ->
            Hashtbl.remove st.inflight task.lease;
            match st.cfg.quit_after with
            | Some n when st.sent >= n ->
              (* die with the lease unsettled: the coordinator sees the
                 connection drop and reassigns the shard — the scenario the
                 byte-identity tests kill workers to produce *)
              st.dead <- true;
              Condition.broadcast st.qcond;
              true
            | _ ->
              st.sent <- st.sent + 1;
              false)
      in
      if quit then ()
      else (
        push_line st (result_line ~lease:task.lease task.shard outcome);
        Mutex.protect st.qlock (fun () -> Condition.broadcast st.qcond);
        loop ())
  in
  loop ()

let heartbeat st =
  let leases =
    Mutex.protect st.qlock (fun () ->
        Hashtbl.fold (fun l () acc -> l :: acc) st.inflight []
        @ Queue.fold (fun acc t -> t.lease :: acc) [] st.queue)
  in
  push_request st (Protocol.Worker_heartbeat { leases = List.sort compare leases })

let handle_line st line =
  match Json.parse line with
  | Error msg -> Log.warn (fun m -> m "unparseable line from coordinator: %s" msg)
  | Ok json -> (
    match Protocol.worker_msg_codec.dec json with
    | Ok (Protocol.Grant { lease; job; grant_attempt = _; shard; spec }) ->
      Log.info (fun m ->
          m "granted lease %d: job %s shard %d" lease job shard.Shard.index);
      Mutex.protect st.qlock (fun () ->
          Queue.push { lease; job; spec; shard } st.queue;
          Condition.broadcast st.qcond)
    | Ok Protocol.Drain ->
      Log.info (fun m -> m "coordinator draining; finishing in-flight shards");
      Mutex.protect st.qlock (fun () ->
          st.draining <- true;
          Condition.broadcast st.qcond)
    | Error _ -> (
      (* not a coordinator push: a late reply (ok) or an error report *)
      match Protocol.reply_error json with
      | Some msg ->
        Log.warn (fun m -> m "coordinator error: %s" msg);
        Mutex.protect st.qlock (fun () ->
            st.dead <- true;
            Condition.broadcast st.qcond)
      | None -> ()))

let finished st =
  Mutex.protect st.qlock (fun () ->
      st.dead
      || (st.draining && Queue.is_empty st.queue && Hashtbl.length st.inflight = 0))

(* main-thread socket loop: grants in, heartbeats out, on a select timer so
   heartbeats flow even when nothing is arriving *)
let socket_loop st fd =
  let fr = Framing.create () in
  let buf = Bytes.create 4096 in
  let last_beat = ref (Unix.gettimeofday ()) in
  let rec loop () =
    if finished st then ()
    else (
      let tick = Float.max 0.05 (st.cfg.heartbeat_interval /. 4.) in
      (match Unix.select [ fd ] [] [] tick with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | [], _, _ -> ()
      | _ -> (
        match Unix.read fd buf 0 (Bytes.length buf) with
        | exception
            Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
          -> ()
        | exception Unix.Unix_error _ | 0 ->
          Log.warn (fun m -> m "connection to coordinator lost");
          Mutex.protect st.qlock (fun () ->
              st.dead <- true;
              Condition.broadcast st.qcond)
        | n -> (
          match Framing.feed fr (Bytes.sub_string buf 0 n) with
          | Ok lines -> List.iter (handle_line st) lines
          | Error err ->
            Log.err (fun m -> m "%s" (Framing.error_to_string err));
            Mutex.protect st.qlock (fun () ->
                st.dead <- true;
                Condition.broadcast st.qcond))));
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
            wlock = Mutex.create ();
            elock = Mutex.create ();
            qlock = Mutex.create ();
            qcond = Condition.create ();
            queue = Queue.create ();
            inflight = Hashtbl.create 16;
            envs = Hashtbl.create 4;
            sent = 0;
            draining = false;
            dead = false;
          }
        in
        let fd = Client.fd client in
        let executors =
          List.init cfg.slots (fun slot -> Domain.spawn (executor st slot))
        in
        socket_loop st fd;
        Mutex.protect st.qlock (fun () -> Condition.broadcast st.qcond);
        List.iter Domain.join executors;
        let abrupt = Mutex.protect st.qlock (fun () -> st.dead) in
        Client.close client;
        if abrupt then (
          Log.warn (fun m -> m "worker exiting abruptly (%d results sent)" st.sent);
          1)
        else (
          Log.info (fun m -> m "worker drained (%d results sent)" st.sent);
          0)))
