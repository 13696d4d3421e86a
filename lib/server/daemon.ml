module Json = O4a_telemetry.Json
module Event = O4a_telemetry.Event
module Telemetry = O4a_telemetry.Telemetry
module Sink = O4a_telemetry.Sink
module Faults = O4a_faults.Faults
module Hud = O4a_profile.Hud
module Engine = Solver.Engine
module Shard = Orchestrator.Shard
module Checkpoint = Orchestrator.Checkpoint
module Merge = Orchestrator.Merge
module Stop = Orchestrator.Stop
module Pool = Orchestrator.Pool

let log_src = Logs.Src.create "once4all.server" ~doc:"Campaign server daemon"

module Log = (val Logs.src_log log_src : Logs.LOG)

type config = {
  socket_path : string;
  state_dir : string;
  pool : int;
  tcp : string option;
  handshake_timeout : float;
  idle_timeout : float;
  lease_timeout : float;
}

let default_handshake_timeout = 10.
let default_idle_timeout = 300.
let default_lease_timeout = 30.

(* ------------------------------------------------------------------ *)
(* Connections                                                         *)
(* ------------------------------------------------------------------ *)

(* A connection enrolled as a remote worker pool: [slots] concurrent shard
   slots, [inflight] leases currently charged against them. *)
type worker_state = { w_slots : int; mutable w_inflight : int }

(* Non-blocking buffered writer: stream lines append to [out], the select
   loop flushes when the fd turns writable. A subscriber that stops reading
   grows its buffer until [max_out], then is disconnected — one slow watcher
   must never stall the merge path or the other subscribers. *)
type conn = {
  id : int;
  fd : Unix.file_descr;
  fr : Framing.t;
  created : float;
  mutable last_activity : float;
  mutable hello_ok : bool;  (* completed the handshake: sent a valid request *)
  mutable subscriber : bool;  (* watch subscriber: exempt from idle reaping *)
  mutable worker : worker_state option;
  mutable out : string;
  mutable closed : bool;
}

let max_out = 1 lsl 20

let try_flush c =
  if (not c.closed) && c.out <> "" then (
    match Unix.write_substring c.fd c.out 0 (String.length c.out) with
    | 0 -> ()
    | n -> c.out <- String.sub c.out n (String.length c.out - n)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      -> ()
    | exception Unix.Unix_error _ -> c.closed <- true)

let conn_send c line =
  if not c.closed then
    if String.length c.out + String.length line + 1 > max_out then (
      Log.warn (fun m -> m "dropping slow subscriber (>%d bytes queued)" max_out);
      c.closed <- true)
    else (
      c.out <- c.out ^ line ^ "\n";
      try_flush c)

let conn_send_json c json = conn_send c (Json.to_string json)

(* ------------------------------------------------------------------ *)
(* Jobs                                                                *)
(* ------------------------------------------------------------------ *)

type job = {
  id : string;
  spec : Jobspec.t;
  dir : string;
  chaos : Faults.plan option;
  tel : Telemetry.t;
  header : string;  (* the report's first line, fixed by the campaign *)
  plan_total : int;  (* full plan, including shards resumed from disk *)
  total : int;  (* shards this server process must execute *)
  resumed : int;
  mutable env : Orchestrator.exec_env option;  (* dropped when terminal *)
  mutable merge : Merge.t option;  (* set right after registration, dropped when terminal *)
  mutable state : Protocol.job_state;
  mutable shards_done : int;
  mutable findings : int;
  mutable backlog : out_channel option;  (* the open [backlog_file], while live *)
  mutable backlog_len : int;  (* lines streamed, all of them in [backlog_file] *)
  mutable subscribers : conn list;
}

(* every line a job streamed, in order, one per line *)
let backlog_file dir = Filename.concat dir "watch.jsonl"

(* Everything here belongs to the main domain. The local slots' tasks read
   only [drain], through [stopping]. *)
type t = {
  cfg : config;
  sched : Scheduler.t;
  pool : (job * Shard.t * Orchestrator.shard_outcome) option Pool.t;
  mutable local_busy : int;  (* local slots holding a shard *)
  drain : bool Atomic.t;  (* protocol-level shutdown; SIGTERM uses Stop *)
  jobs : (string, job) Hashtbl.t;
  mutable order : string list;  (* submission order *)
  mutable conns : conn list;
  mutable next_conn : int;
  leases : Lease.t;
}

let stopping t = Stop.requested () || Atomic.get t.drain

(* ------------------------------------------------------------------ *)
(* Event streaming                                                     *)
(* ------------------------------------------------------------------ *)

(* Append one line to the job's backlog and deliver it to every live
   subscriber. The backlog is the catch-up source: a Watch with [from=n]
   replays lines n.. first, so a late subscriber sees exactly the stream an
   early one saw. It lives in the job's directory, not in memory; the rare
   line a terminal job still streams (a late lease event) is appended. *)
let push_line job json =
  let line = Json.to_string json in
  (match job.backlog with
  | Some oc ->
    output_string oc line;
    output_char oc '\n'
  | None ->
    Out_channel.with_open_gen [ Open_append; Open_creat; Open_binary ] 0o644
      (backlog_file job.dir) (fun oc ->
        output_string oc line;
        output_char oc '\n'));
  job.backlog_len <- job.backlog_len + 1;
  List.iter (fun c -> conn_send c line) job.subscribers;
  job.subscribers <- List.filter (fun c -> not c.closed) job.subscribers

let stream job ~kind data = push_line job (Protocol.stream_line ~job:job.id ~kind data)

let write_file path contents =
  Out_channel.with_open_bin path (fun oc -> output_string oc contents)

let set_state job st =
  if job.state <> st then (
    job.state <- st;
    (match st with
    | Protocol.Failed msg ->
      stream job ~kind:"state"
        (Json.Obj
           [
             ("state", Json.String (Protocol.job_state_to_string st));
             ("error", Json.String msg);
           ])
    | _ ->
      stream job ~kind:"state"
        (Json.Obj [ ("state", Json.String (Protocol.job_state_to_string st)) ]));
    write_file
      (Filename.concat job.dir "status")
      (Protocol.job_state_to_string job.state ^ "\n"))

(* every campaign event a Merge forwards (or emits) lands here, on the main
   domain; interesting ones are re-tagged so watchers can filter without
   parsing the full telemetry stream *)
let on_event t id (ev : Event.t) =
  match Hashtbl.find_opt t.jobs id with
  | None -> ()
  | Some job ->
    stream job ~kind:"telemetry" (Event.to_json ev);
    let finding =
      ev.Event.name = "fuzz.test"
      &&
      match Event.field "finding" ev with Some (Json.String _) -> true | _ -> false
    in
    if finding then stream job ~kind:"finding" (Event.to_json ev)
    else if ev.Event.name = "health.breaker" then
      stream job ~kind:"health" (Event.to_json ev)
    else if ev.Event.name = "shard.quarantined" then
      stream job ~kind:"quarantine" (Event.to_json ev)
    else if ev.Event.name = O4a_analytics.Analytics.plateau_event_name then
      stream job ~kind:"plateau" (Event.to_json ev)

(* merge-time progress, minus [elapsed_s]: the streamed progress lines are a
   pure function of merged state, so the backlog two subscribers compare is
   identical no matter when they attached *)
let on_progress t id (p : Hud.progress) =
  match Hashtbl.find_opt t.jobs id with
  | None -> ()
  | Some job ->
    job.shards_done <- p.Hud.shards_done;
    job.findings <- p.Hud.findings;
    stream job ~kind:"progress"
      (Json.Obj
         [
           ("shards_done", Json.Int p.Hud.shards_done);
           ("shards_total", Json.Int p.Hud.shards_total);
           ("ticks_done", Json.Int p.Hud.ticks_done);
           ("budget", Json.Int p.Hud.budget);
           ("findings", Json.Int p.Hud.findings);
           ("coverage_points", Json.Int p.Hud.coverage_points);
           ( "cov_rate",
             match p.Hud.cov_rate with
             | None -> Json.Null
             | Some r -> Json.Float r );
           ("quarantined", Json.Int p.Hud.quarantined);
           ("breaker_trips", Json.Int p.Hud.breaker_trips);
         ])

(* ------------------------------------------------------------------ *)
(* Job lifecycle                                                       *)
(* ------------------------------------------------------------------ *)

let mkdir_p dir =
  let rec go d =
    if d <> "" && d <> "/" && d <> "." && not (Sys.file_exists d) then (
      go (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
  in
  go dir

let fresh_id t name =
  let taken id =
    Hashtbl.mem t.jobs id || Sys.file_exists (Filename.concat t.cfg.state_dir id)
  in
  if not (taken name) then name
  else (
    let rec go n =
      let id = Printf.sprintf "%s-%d" name n in
      if taken id then go (n + 1) else id
    in
    go 2)

(* A terminal job keeps what [jobs], [watch] and [metrics] read: its view
   counters, its backlog file and its checkpoint. Its merge state, its env
   and its backlog channel go, and every remote worker pool is told to drop
   its env of the job too. *)
let retire t job =
  job.merge <- None;
  job.env <- None;
  Option.iter close_out job.backlog;
  job.backlog <- None;
  List.iter
    (fun c ->
      if c.worker <> None && not c.closed then
        conn_send_json c (Protocol.worker_msg_codec.enc (Protocol.Retire job.id)))
    t.conns

let finish_job t job =
  let merge = Option.get job.merge in
  let trace_dir =
    if job.spec.Jobspec.trace then Some (Filename.concat job.dir "trace")
    else None
  in
  (match Merge.finalize ?trace_dir ~interrupted:false ~stopped:false merge with
  | exception Failure msg ->
    Log.err (fun m -> m "job %s failed: %s" job.id msg);
    set_state job (Protocol.Failed msg)
  | report ->
    (* report.txt is the standalone run's stdout, written through the same
       Render module the CLI prints with — byte-identical by construction,
       modulo the path-bearing "wrote …"/"resumed …" lines check.sh strips *)
    write_file
      (Filename.concat job.dir "report.txt")
      (job.header ^ Render.finish ?trace_dir ~chaos:job.chaos report);
    set_state job Protocol.Done);
  Telemetry.flush job.tel;
  retire t job

(* Build and register a job from its spec (and, when resuming, the loaded
   checkpoint), then hand its remaining shards to the shared scheduler. The
   campaign and env come from the spec through Jobspec, the same functions
   `once4all fuzz` and remote workers use, so a shard executed for this job
   is indistinguishable from one executed by `once4all fuzz`. *)
let start_job t ~id ~dir ~spec ~base =
  mkdir_p dir;
  write_file (Filename.concat dir "spec.json")
    (Json.to_string (Jobspec.codec.enc spec) ^ "\n");
  let campaign = Jobspec.prepare spec in
  let env = Jobspec.env spec campaign in
  let callback = Sink.callback (fun ev -> on_event t id ev) in
  let sink =
    if spec.Jobspec.telemetry then
      Sink.fanout
        [ Sink.open_jsonl (Filename.concat dir "telemetry.jsonl"); callback ]
    else callback
  in
  let tel =
    Telemetry.create ~sink ~clock:(Telemetry.monotonic_clock ()) ()
  in
  let plan =
    Shard.plan ~budget:spec.Jobspec.budget ~shard_size:spec.Jobspec.shard_size
  in
  let remaining = Checkpoint.remaining base plan in
  let job =
    {
      id;
      spec;
      dir;
      chaos = Jobspec.chaos spec;
      tel;
      header =
        Render.header
          ~generators:(List.length campaign.Jobspec.generators)
          ~seeds:(List.length campaign.Jobspec.seeds)
          ~budget:spec.Jobspec.budget;
      plan_total = List.length plan;
      total = List.length remaining;
      resumed = List.length plan - List.length remaining;
      env = Some env;
      merge = None;
      state = Protocol.Queued;
      shards_done = 0;
      findings = 0;
      backlog = Some (open_out_bin (backlog_file dir));
      backlog_len = 0;
      subscribers = [];
    }
  in
  (* register before Merge.create so its campaign.start event reaches the
     backlog through the sink callback *)
  Hashtbl.replace t.jobs id job;
  t.order <- t.order @ [ id ];
  let merge =
    Merge.create ~env ~tel
      ~checkpoint_path:(Filename.concat dir "checkpoint.json")
      ?base ~on_progress:(fun p -> on_progress t id p)
      ~jobs:t.cfg.pool ~budget:spec.Jobspec.budget
      ~shard_size:spec.Jobspec.shard_size ~extra:(Jobspec.extra spec) ()
  in
  job.merge <- Some merge;
  if job.total > 0 then (
    (* the orchestrator's before-any-shard-runs save, so even a job killed
       seconds after submission leaves a resumable checkpoint *)
    Merge.checkpoint_now merge;
    Merge.notify_progress merge;
    set_state job Protocol.Running;
    Scheduler.add t.sched ~key:id ~quota:spec.Jobspec.quota remaining)
  else (
    Merge.notify_progress merge;
    finish_job t job);
  job

(* ------------------------------------------------------------------ *)
(* Result merging (main domain = single owner for every job's merge)    *)
(* ------------------------------------------------------------------ *)

let merge_result t job shard outcome =
  (* a cancelled job's in-flight shards complete but merge nowhere *)
  if not (Protocol.job_state_terminal job.state) then (
    let merge = Option.get job.merge in
    match Merge.absorb merge shard outcome with
    | exception Failure msg ->
      (* checkpoint verify-after-save is the only raiser here *)
      set_state job (Protocol.Failed msg);
      Telemetry.flush job.tel;
      retire t job
    | () -> if Merge.processed merge >= job.total then finish_job t job)

(* ------------------------------------------------------------------ *)
(* Remote worker pools: leases, dispatch, reassignment                 *)
(* ------------------------------------------------------------------ *)

(* Lease lifecycle events ride the watch stream under kind "lease" — they
   are observability, not campaign data, so they must never land in the
   job's telemetry (telemetry.jsonl stays byte-identical to a standalone
   run no matter how many leases expired along the way). *)
let lease_event job fields = stream job ~kind:"lease" (Json.Obj fields)

let conn_by_id t id = List.find_opt (fun (c : conn) -> c.id = id) t.conns

let release_slot t worker_id =
  match conn_by_id t worker_id with
  | Some { worker = Some w; _ } -> w.w_inflight <- max 0 (w.w_inflight - 1)
  | Some _ | None -> ()

(* Hand a leased shard back to the scheduler — unless a sibling lease for
   the same shard is still live (chaos-duplicated grant) or the job has
   meanwhile reached a terminal state. Requeued shards go to the front of
   the job's queue, and because a shard outcome is a pure function of
   (env, shard), re-executing it elsewhere cannot change one byte of the
   merged campaign. *)
let requeue_shard t (g : Lease.grant) =
  match Hashtbl.find_opt t.jobs g.Lease.job with
  | None -> ()
  | Some job ->
    if
      (not (Protocol.job_state_terminal job.state))
      && not
           (Lease.has_lease_for t.leases ~job:g.Lease.job
              ~shard_index:g.Lease.shard.Shard.index)
    then (
      Scheduler.requeue t.sched ~key:g.Lease.job g.Lease.shard;
      lease_event job
        [
          ("event", Json.String "lease.reassigned");
          ("lease", Json.Int g.Lease.lease);
          ("shard", Json.Int g.Lease.shard.Shard.index);
        ])

let reassign t ~reason (g : Lease.grant) =
  release_slot t g.Lease.worker;
  (match Hashtbl.find_opt t.jobs g.Lease.job with
  | None -> ()
  | Some job ->
    lease_event job
      [
        ("event", Json.String reason);
        ("lease", Json.Int g.Lease.lease);
        ("shard", Json.Int g.Lease.shard.Shard.index);
        ("worker", Json.Int g.Lease.worker);
      ]);
  requeue_shard t g

let send_grant t job shard c =
  let w = match c.worker with Some w -> w | None -> assert false in
  let g =
    Lease.grant t.leases ~now:(Unix.gettimeofday ()) ~job:job.id ~shard
      ~worker:c.id
  in
  w.w_inflight <- w.w_inflight + 1;
  conn_send_json c
    (Protocol.worker_msg_codec.enc
       (Protocol.Grant
          {
            lease = g.Lease.lease;
            job = job.id;
            grant_attempt = g.Lease.grant_attempt;
            shard;
            spec = job.spec;
          }));
  lease_event job
    [
      ("event", Json.String "lease.granted");
      ("lease", Json.Int g.Lease.lease);
      ("shard", Json.Int shard.Shard.index);
      ("worker", Json.Int c.id);
      ("attempt", Json.Int g.Lease.grant_attempt);
    ];
  g

(* The Lease_dup chaos site fires at grant time, on the coordinator: the
   same shard is granted twice, exercising the revoke-the-sibling path in
   Lease.complete. Whichever result lands first settles the shard; the
   sibling's arrives stale and is dropped, so the duplicate can never
   double-merge. Consulted once per primary grant (never on the duplicate
   itself), keyed by the pure (site, shard, attempt) fault stream. *)
let maybe_duplicate t job shard c (g : Lease.grant) =
  match job.chaos with
  | None -> ()
  | Some plan -> (
    match
      Faults.decide plan ~site:Faults.Lease_dup ~shard:shard.Shard.index
        ~attempt:g.Lease.grant_attempt
    with
    | None -> ()
    | Some _ ->
      let g2 = send_grant t job shard c in
      lease_event job
        [
          ("event", Json.String "lease.duplicated");
          ("lease", Json.Int g2.Lease.lease);
          ("of", Json.Int g.Lease.lease);
          ("shard", Json.Int shard.Shard.index);
        ])

let free_worker t =
  List.fold_left
    (fun best c ->
      if c.closed then best
      else
        match c.worker with
        | Some w when w.w_inflight < w.w_slots -> (
          match best with
          | Some b -> (
            match b.worker with
            | Some bw when bw.w_slots - bw.w_inflight >= w.w_slots - w.w_inflight
              -> best
            | _ -> Some c)
          | None -> Some c)
        | _ -> best)
    None t.conns

(* Fill free slots from the scheduler: the local ones first, then the
   remote pool with the most free slots. The server loop calls this once a
   turn, so a shard is dispatched as soon as a slot frees up anywhere. Main
   domain only, like every scheduler call. *)
let rec dispatch t =
  let local = t.local_busy < t.cfg.pool in
  let remote = if local then None else free_worker t in
  if (local || remote <> None) && not (stopping t) then
    match Scheduler.next t.sched with
    | None -> ()
    | Some (key, shard) ->
      (match (Hashtbl.find_opt t.jobs key, remote) with
      | Some ({ env = Some env; _ } as job), None ->
        t.local_busy <- t.local_busy + 1;
        Pool.submit t.pool (fun ~worker_id ~zeal ~cove ->
            (* a drain finishes only the shards already running *)
            if stopping t then None
            else
              Some
                ( job,
                  shard,
                  Orchestrator.exec_shard ~env ~worker_id ~zeal ~cove shard ))
      | Some ({ env = Some _; _ } as job), Some c ->
        maybe_duplicate t job shard c (send_grant t job shard c)
      | _ -> () (* the job settled after this shard was queued *));
      dispatch t

(* A local slot's result frees the slot, which is refilled before the
   result merges, so the executor does not wait out the merge and its
   checkpoint write. The shard merges unless its task started while
   stopping. *)
let absorb_local t r =
  t.local_busy <- t.local_busy - 1;
  dispatch t;
  Option.iter (fun (job, shard, outcome) -> merge_result t job shard outcome) r

let rec take_local t =
  Option.iter (fun r -> absorb_local t r; take_local t) (Pool.try_take t.pool)

(* Handshake and idle deadlines: a connection that never sends a valid
   request is dropped after [handshake_timeout]; one that goes quiet after
   the handshake is dropped after [idle_timeout]. Watch subscribers are
   exempt (they legitimately only read); worker pools are reaped on a
   heartbeat-scaled deadline instead, so a half-open TCP peer cannot keep
   soaking up grants forever. *)
let reap_conns t now =
  List.iter
    (fun c ->
      if not c.closed then
        if (not c.hello_ok) && now -. c.created > t.cfg.handshake_timeout then (
          conn_send_json c
            (Protocol.error_coded ~code:Protocol.code_handshake_timeout
               "closing: no request within the handshake deadline");
          c.closed <- true)
        else if
          c.worker <> None
          && now -. c.last_activity
             > Float.max t.cfg.idle_timeout (3. *. t.cfg.lease_timeout)
        then (
          Log.warn (fun m -> m "worker pool conn#%d silent; dropping" c.id);
          c.closed <- true)
        else if
          (not c.subscriber) && c.worker = None
          && now -. c.last_activity > t.cfg.idle_timeout
        then (
          conn_send_json c
            (Protocol.error_coded ~code:Protocol.code_idle_timeout
               "closing: idle past the deadline");
          c.closed <- true))
    t.conns

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)
(* ------------------------------------------------------------------ *)

let job_view (job : job) =
  {
    Protocol.v_id = job.id;
    v_name = job.spec.Jobspec.name;
    v_state = job.state;
    v_shards_done = job.shards_done;
    v_shards_total = job.plan_total;
    v_findings = job.findings;
    v_quota = job.spec.Jobspec.quota;
  }

let submit t spec =
  match Jobspec.validate spec with
  | Error msg -> Protocol.error msg
  | Ok () ->
    let id = fresh_id t spec.Jobspec.name in
    let dir = Filename.concat t.cfg.state_dir id in
    let job = start_job t ~id ~dir ~spec ~base:None in
    Log.info (fun m ->
        m "job %s submitted: budget %d, %d shards, quota %d" id
          spec.Jobspec.budget job.total spec.Jobspec.quota);
    Protocol.ok
      [
        ("job", Json.String id);
        ("shards", Json.Int job.total);
        ("state", Json.String (Protocol.job_state_to_string job.state));
      ]

let pause t id =
  match Hashtbl.find_opt t.jobs id with
  | None -> Protocol.error (Printf.sprintf "no such job %S" id)
  | Some job when job.state <> Protocol.Running ->
    Protocol.error
      (Printf.sprintf "job %S is %s, not running" id
         (Protocol.job_state_to_string job.state))
  | Some job ->
    Scheduler.set_runnable t.sched ~key:id false;
    set_state job Protocol.Paused;
    Protocol.ok [ ("job", Json.String id) ]

(* Revive a job from its on-disk spec + checkpoint — the path a restarted
   server (or a SIGTERM-drained one) uses to pick campaigns back up. The
   checkpoint's provenance must match the spec's: the check `resume` runs. *)
let revive t id =
  let dir = Filename.concat t.cfg.state_dir id in
  let spec_path = Filename.concat dir "spec.json" in
  let cp_path = Filename.concat dir "checkpoint.json" in
  if not (Sys.file_exists spec_path) then
    Protocol.error (Printf.sprintf "no such job %S (no %s)" id spec_path)
  else (
    match In_channel.with_open_text spec_path In_channel.input_all with
    | exception Sys_error msg -> Protocol.error msg
    | contents -> (
      match Result.bind (Json.parse contents) Jobspec.codec.dec with
      | Error msg -> Protocol.error (Printf.sprintf "%s: %s" spec_path msg)
      | Ok spec -> (
        match Checkpoint.load ~path:cp_path with
        | Error err ->
          Protocol.error (Checkpoint.load_error_to_string ~path:cp_path err)
        | Ok cp -> (
          match
            Checkpoint.matches ~path:cp_path ~seed:(Jobspec.fuzz_seed spec)
              ~budget:spec.Jobspec.budget ~shard_size:spec.Jobspec.shard_size cp
          with
          | Error msg -> Protocol.error msg
          | Ok () ->
            let job = start_job t ~id ~dir ~spec ~base:(Some cp) in
            Log.info (fun m ->
                m "job %s revived: %d shards left of %d" id job.total
                  job.plan_total);
            Protocol.ok
              [
                ("job", Json.String id);
                ("shards", Json.Int job.total);
                ("resumed", Json.Int job.resumed);
              ]))))

let resume_job t id =
  match Hashtbl.find_opt t.jobs id with
  | Some job when job.state = Protocol.Paused ->
    Scheduler.set_runnable t.sched ~key:id true;
    set_state job Protocol.Running;
    Protocol.ok [ ("job", Json.String id) ]
  | Some job ->
    Protocol.error
      (Printf.sprintf "job %S is %s, not paused" id
         (Protocol.job_state_to_string job.state))
  | None -> revive t id

let cancel t id =
  match Hashtbl.find_opt t.jobs id with
  | None -> Protocol.error (Printf.sprintf "no such job %S" id)
  | Some job when Protocol.job_state_terminal job.state ->
    Protocol.error
      (Printf.sprintf "job %S already %s" id
         (Protocol.job_state_to_string job.state))
  | Some job ->
    Scheduler.remove t.sched ~key:id;
    (* revoke outstanding leases: any result still in flight arrives stale *)
    List.iter
      (fun (g : Lease.grant) -> release_slot t g.Lease.worker)
      (Lease.drop_job t.leases ~job:id);
    set_state job Protocol.Cancelled;
    Telemetry.flush job.tel;
    retire t job;
    Protocol.ok [ ("job", Json.String id) ]

let watch t c id from =
  match Hashtbl.find_opt t.jobs id with
  | None -> conn_send_json c (Protocol.error (Printf.sprintf "no such job %S" id))
  | Some job ->
    conn_send_json c
      (Protocol.ok
         [
           ("job", Json.String id);
           ("backlog", Json.Int job.backlog_len);
           ("state", Json.String (Protocol.job_state_to_string job.state));
         ]);
    (* replay the backlog from [from], oldest first, then subscribe for the
       live tail — catch-up and live delivery use the same lines, so every
       subscriber sees the same stream *)
    if from < job.backlog_len then (
      Option.iter flush job.backlog;
      match
        In_channel.with_open_bin (backlog_file job.dir) (fun ic ->
            let rec go i =
              if i < job.backlog_len then
                match In_channel.input_line ic with
                | Some line ->
                  if i >= from then conn_send c line;
                  go (i + 1)
                | None -> ()
            in
            go 0)
      with
      | () -> ()
      | exception Sys_error msg ->
        Log.err (fun m -> m "job %s: cannot replay its backlog: %s" id msg));
    if not (Protocol.job_state_terminal job.state) then (
      c.subscriber <- true;  (* read-only from here on: exempt from idle *)
      job.subscribers <- c :: job.subscribers)

let handle_request t c = function
  | Protocol.Hello proto ->
    if proto > Protocol.version then (
      conn_send_json c
        (Protocol.error
           (Printf.sprintf "client protocol %d is newer than this server (%d)"
              proto Protocol.version));
      c.closed <- true)
    else conn_send_json c (Protocol.ok [ ("proto", Json.Int Protocol.version) ])
  | Protocol.Submit spec -> conn_send_json c (submit t spec)
  | Protocol.Jobs ->
    let views =
      t.order
      |> List.filter_map (fun id -> Hashtbl.find_opt t.jobs id)
      |> List.map (fun j -> Protocol.job_view_codec.enc (job_view j))
    in
    conn_send_json c (Protocol.ok [ ("jobs", Json.List views) ])
  | Protocol.Watch { job; from } -> watch t c job from
  | Protocol.Pause id -> conn_send_json c (pause t id)
  | Protocol.Resume_job id -> conn_send_json c (resume_job t id)
  | Protocol.Cancel id -> conn_send_json c (cancel t id)
  | Protocol.Metrics id -> (
    let reply a =
      Protocol.ok
        [
          ("job", Json.String id);
          ("analytics", O4a_analytics.Analytics.codec.enc a);
          ("prometheus", Json.String (O4a_analytics.Analytics.to_prometheus a));
        ]
    in
    match Hashtbl.find_opt t.jobs id with
    | None -> conn_send_json c (Protocol.error (Printf.sprintf "no job %S" id))
    | Some job when Protocol.job_state_terminal job.state -> (
      (* the final checkpoint holds the analytics the last shard barrier
         left behind: the file analyze --json reads *)
      let path = Filename.concat job.dir "checkpoint.json" in
      match Checkpoint.load ~path with
      | Ok cp -> conn_send_json c (reply cp.Checkpoint.analytics)
      | Error err ->
        conn_send_json c (Protocol.error (Checkpoint.load_error_to_string ~path err)))
    | Some job -> (
      match job.merge with
      | None ->
        conn_send_json c
          (Protocol.error (Printf.sprintf "job %S has no merged state yet" id))
      | Some merge ->
        (* the snapshot is read on the main domain — the merge owner — so it
           is exactly the state the last shard barrier left behind *)
        conn_send_json c (reply (Merge.analytics_snapshot merge))))
  | Protocol.Worker_register { slots } -> (
    match c.worker with
    | Some _ ->
      conn_send_json c
        (Protocol.error "connection already registered as a worker pool")
    | None ->
      c.worker <- Some { w_slots = slots; w_inflight = 0 };
      Log.info (fun m -> m "worker pool conn#%d joined (%d slots)" c.id slots);
      conn_send_json c
        (Protocol.ok [ ("worker", Json.Int c.id); ("slots", Json.Int slots) ]))
  | Protocol.Worker_heartbeat { leases } -> (
    match c.worker with
    | None -> conn_send_json c (Protocol.error "not a registered worker pool")
    | Some _ ->
      Lease.heartbeat t.leases ~now:(Unix.gettimeofday ()) ~worker:c.id ~leases)
  | Protocol.Worker_result { lease; outcome } -> (
    match c.worker with
    | None -> conn_send_json c (Protocol.error "not a registered worker pool")
    | Some w -> (
      match Lease.complete t.leases ~lease with
      | None ->
        (* Stale: the lease expired, was revoked as a duplicate's sibling,
           or belonged to a previous connection. Its shard is (or will be)
           settled by the replacement lease, and the slot was already
           released when the lease left the table — merging this result
           would double-count, so it is dropped on the floor. *)
        Log.debug (fun m -> m "stale result for lease %d dropped" lease)
      | Some (g, siblings) -> (
        w.w_inflight <- max 0 (w.w_inflight - 1);
        (match Hashtbl.find_opt t.jobs g.Lease.job with
        | None -> ()
        | Some job ->
          List.iter
            (fun (s : Lease.grant) ->
              release_slot t s.Lease.worker;
              lease_event job
                [
                  ("event", Json.String "lease.stale_result");
                  ("lease", Json.Int s.Lease.lease);
                  ("shard", Json.Int s.Lease.shard.Shard.index);
                ])
            siblings);
        match Wire.outcome_of_json outcome with
        | Error msg ->
          (* a worker that ships garbage forfeits the shard like an expiry *)
          Log.warn (fun m -> m "malformed result for lease %d: %s" lease msg);
          requeue_shard t g
        | Ok oc -> (
          (* check this result and absorb it in the same step on the merge
             owner, so the registry the check saw is the one absorb meets *)
          match Hashtbl.find_opt t.jobs g.Lease.job with
          | Some ({ merge = Some merge; _ } as job) -> (
            match Merge.check merge g.Lease.shard oc with
            | Error msg ->
              (* a result that does not fit its lease or its job forfeits
                 the shard too: nothing of it is forwarded, absorbed or
                 written *)
              Log.warn (fun m -> m "rejected result for lease %d: %s" lease msg);
              requeue_shard t g
            | Ok () ->
              lease_event job
                [
                  ("event", Json.String "lease.completed");
                  ("lease", Json.Int g.Lease.lease);
                  ("shard", Json.Int g.Lease.shard.Shard.index);
                  ("worker", Json.Int g.Lease.worker);
                ];
              merge_result t job g.Lease.shard oc)
          | _ -> () (* the job settled while the lease was out: stale *)))))
  | Protocol.Shutdown ->
    Log.info (fun m -> m "shutdown requested; draining");
    conn_send_json c (Protocol.ok [ ("draining", Json.Bool true) ]);
    Atomic.set t.drain true

let process_line t c line =
  if String.trim line <> "" then (
    match Result.bind (Json.parse line) Protocol.request_codec.dec with
    | Error msg -> conn_send_json c (Protocol.error msg)
    | Ok req ->
      (* any well-formed request completes the handshake — the deadline is
         there to shed dead and garbage-spewing peers, not to police the
         order of first requests *)
      c.hello_ok <- true;
      handle_request t c req)

let handle_readable t c =
  let buf = Bytes.create 4096 in
  match Unix.read c.fd buf 0 4096 with
  | exception
      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
    ()
  | exception Unix.Unix_error _ -> c.closed <- true
  | 0 -> c.closed <- true
  | n -> (
    c.last_activity <- Unix.gettimeofday ();
    match Framing.feed c.fr (Bytes.sub_string buf 0 n) with
    | Ok lines ->
      List.iter (fun line -> if not c.closed then process_line t c line) lines
    | Error err ->
      (* the inbound mirror of [max_out]: a peer that streams an unbounded
         line gets a typed error and the boot, not an unbounded buffer *)
      conn_send_json c
        (Protocol.error_coded ~code:Protocol.code_line_too_long
           (Framing.error_to_string err));
      c.closed <- true)

(* ------------------------------------------------------------------ *)
(* The server loop                                                     *)
(* ------------------------------------------------------------------ *)

let accept_conn t listen_fd =
  match Unix.accept listen_fd with
  | exception
      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
    ()
  | fd, _ ->
    Unix.set_nonblock fd;
    let now = Unix.gettimeofday () in
    let c =
      {
        id = t.next_conn;
        fd;
        fr = Framing.create ();
        created = now;
        last_activity = now;
        hello_ok = false;
        subscriber = false;
        worker = None;
        out = "";
        closed = false;
      }
    in
    t.next_conn <- t.next_conn + 1;
    (* versioned hello header, first line on every connection *)
    conn_send_json c Protocol.hello;
    t.conns <- c :: t.conns

let close_conn c =
  c.closed <- true;
  try Unix.close c.fd with Unix.Unix_error _ -> ()

let prune_conns t =
  let closed, live = List.partition (fun c -> c.closed) t.conns in
  t.conns <- live;
  List.iter
    (fun c ->
      (try Unix.close c.fd with Unix.Unix_error _ -> ());
      (* a dropped worker connection forfeits its leases immediately — no
         need to wait out the heartbeat deadline when the transport already
         told us the pool is gone *)
      if c.worker <> None then (
        Log.info (fun m -> m "worker pool conn#%d lost" c.id);
        List.iter
          (reassign t ~reason:"lease.worker_lost")
          (Lease.drop_worker t.leases ~worker:c.id)))
    closed

let create cfg =
  {
    cfg;
    sched = Scheduler.create ();
    pool = Pool.create ~slots:cfg.pool;
    local_busy = 0;
    drain = Atomic.make false;
    jobs = Hashtbl.create 16;
    order = [];
    conns = [];
    next_conn = 1;
    leases = Lease.create ~timeout:cfg.lease_timeout;
  }

(* Bind the optional TCP listener. Port 0 asks the kernel for an ephemeral
   port; whatever was actually bound is written to [state_dir/tcp.port] so
   scripts (and tests) can find it without racing the log output. *)
let bind_tcp cfg =
  match cfg.tcp with
  | None -> Ok None
  | Some spec ->
    Result.bind (Addr.parse_tcp spec) (fun (host, port) ->
        Result.bind (Addr.resolve ~host ~port) (fun sockaddr ->
            let fd =
              Unix.socket (Unix.domain_of_sockaddr sockaddr) Unix.SOCK_STREAM 0
            in
            Unix.setsockopt fd Unix.SO_REUSEADDR true;
            match Unix.bind fd sockaddr with
            | exception Unix.Unix_error (e, _, _) ->
              (try Unix.close fd with Unix.Unix_error _ -> ());
              Error
                (Printf.sprintf "cannot bind %s:%d: %s" host port
                   (Unix.error_message e))
            | () ->
              Unix.listen fd 16;
              Unix.set_nonblock fd;
              let actual =
                match Unix.getsockname fd with
                | Unix.ADDR_INET (_, p) -> p
                | _ -> port
              in
              Ok (Some (fd, host, actual))))

let rec run cfg =
  mkdir_p cfg.state_dir;
  (* a subscriber vanishing mid-write must surface as EPIPE, not kill the
     daemon *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  Engine.prewarm ();
  match bind_tcp cfg with
  | Error msg ->
    Log.err (fun m -> m "%s" msg);
    prerr_endline ("once4all: " ^ msg);
    1
  | Ok tcp ->
    let port_file = Filename.concat cfg.state_dir "tcp.port" in
    (match tcp with
    | Some (_, host, port) ->
      write_file port_file (string_of_int port ^ "\n");
      Log.info (fun m -> m "TCP listener on %s:%d" host port)
    | None -> ());
    let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (if Sys.file_exists cfg.socket_path then
       try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ());
    Unix.bind listen_fd (Unix.ADDR_UNIX cfg.socket_path);
    Unix.listen listen_fd 16;
    Unix.set_nonblock listen_fd;
    Log.info (fun m ->
        m "listening on %s (pool %d, state %s)" cfg.socket_path cfg.pool
          cfg.state_dir);
    let listeners =
      listen_fd :: (match tcp with Some (fd, _, _) -> [ fd ] | None -> [])
    in
    let t = create cfg in
    let ready = Pool.ready_fd t.pool in
    let rec loop () =
      if not (stopping t) then (
        let reads = listeners @ (ready :: List.map (fun c -> c.fd) t.conns) in
        let writes =
          t.conns
          |> List.filter (fun c -> c.out <> "")
          |> List.map (fun c -> c.fd)
        in
        (match Unix.select reads writes [] 0.25 with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | readable, writable, _ ->
          take_local t;
          List.iter
            (fun c -> if List.mem c.fd writable then try_flush c)
            t.conns;
          List.iter
            (fun c -> if List.mem c.fd readable then handle_readable t c)
            t.conns;
          List.iter
            (fun lfd -> if List.mem lfd readable then accept_conn t lfd)
            listeners);
        let now = Unix.gettimeofday () in
        reap_conns t now;
        List.iter (reassign t ~reason:"lease.expired") (Lease.expired t.leases ~now);
        prune_conns t;
        dispatch t;
        loop ())
    in
    loop ();
    finish t ~listeners ~port_file ~tcp

and finish t ~listeners ~port_file ~tcp =
  (* Graceful drain — same contract whether the trigger was SIGTERM
     ({!Orchestrator.Stop}) or a Shutdown request: local slots finish the
     shard they are executing and start no other, every local result merges
     and checkpoints, and every live campaign lands paused with a resumable
     checkpoint on disk. Remote pools are told to drain; their in-flight
     shards are simply forfeited — the checkpoint records them as not done,
     so a revive re-runs them deterministically. *)
  List.iter
    (fun c ->
      if c.worker <> None && not c.closed then
        conn_send_json c (Protocol.worker_msg_codec.enc Protocol.Drain))
    t.conns;
  List.iter (absorb_local t) (Pool.close t.pool);
  List.iter
    (fun id ->
      match Hashtbl.find_opt t.jobs id with
      | Some job when not (Protocol.job_state_terminal job.state) ->
        (match job.merge with
        | Some merge -> Merge.checkpoint_now merge
        | None -> ());
        set_state job Protocol.Paused;
        Telemetry.flush job.tel;
        Log.info (fun m ->
            m "job %s drained at %d/%d shards; resumable from its checkpoint"
              job.id job.shards_done job.plan_total)
      | _ -> ())
    t.order;
  Hashtbl.iter (fun _ job -> Option.iter close_out job.backlog) t.jobs;
  List.iter try_flush t.conns;
  List.iter close_conn t.conns;
  t.conns <- [];
  List.iter
    (fun lfd -> try Unix.close lfd with Unix.Unix_error _ -> ())
    listeners;
  (try Unix.unlink t.cfg.socket_path with Unix.Unix_error _ -> ());
  (match tcp with
  | Some _ -> ( try Sys.remove port_file with Sys_error _ -> ())
  | None -> ());
  Log.info (fun m -> m "server drained; exiting");
  0
