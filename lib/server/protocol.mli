(** The campaign server's wire protocol: newline-delimited JSON over a Unix
    domain socket.

    Framing: every message is one compact JSON object on one line. On
    accept, the server writes a {!hello} header line declaring its protocol
    and telemetry-schema versions — the same versioned-header convention the
    JSONL telemetry logs use — and clients {!check_hello} before sending
    anything, refusing servers newer than they understand. After that the
    client sends one {!request} per line; the server answers each with one
    {!ok}/{!error} reply line, except [Watch], whose reply is followed by an
    unbounded stream of {!stream_line} events (backlog first, then live). *)

val version : int
(** Protocol version this library speaks. *)

val hello : O4a_telemetry.Json.t
(** The header line the server writes on every accepted connection. *)

val check_hello : O4a_telemetry.Json.t -> (int, string) result
(** Validate a server's header; the server's protocol version on success. *)

type request =
  | Hello of int  (** optional client echo of its protocol version *)
  | Submit of Jobspec.t
  | Jobs  (** list all jobs *)
  | Watch of { job : string; from : int }
      (** subscribe to a job's event stream, replaying the backlog from line
          [from] first — a late subscriber catches up to exactly what an
          early one saw *)
  | Pause of string
      (** stop dispatching the job's shards; in-flight shards still merge
          and checkpoint, so pause is always consistent *)
  | Resume_job of string
      (** unpause a live job, or revive one from its on-disk spec +
          checkpoint after a server restart *)
  | Cancel of string
  | Metrics of string
      (** snapshot the job's merged analytics series: the reply carries
          {!O4a_analytics.Analytics.codec} under ["analytics"] (plus the
          Prometheus text rendering under ["prometheus"]), computed at the
          merge barrier — so a snapshot of a finished job is byte-identical
          to what [once4all analyze] reads from its checkpoint *)
  | Shutdown
      (** graceful drain: finish in-flight shards, checkpoint every
          campaign, then exit — the request-level twin of SIGTERM *)
  | Worker_register of { slots : int }
      (** enroll this connection as a remote worker pool with [slots]
          concurrent shard slots; after the [ok] reply the server pushes
          {!worker_msg} lines at it *)
  | Worker_heartbeat of { leases : int list }
      (** extend the named leases' deadlines; an empty list is a pure
          liveness beacon. No reply — the post-registration channel is
          message-oriented *)
  | Worker_result of { lease : int; outcome : O4a_telemetry.Json.t }
      (** a finished shard: [outcome] is a {!Wire}-encoded
          {!Orchestrator.shard_outcome}. No reply; a stale lease (expired,
          reassigned, or from a previous connection) is silently dropped *)

val request_codec : request O4a_telemetry.Json.Codec.t
(** Tagged by ["req"]. Absent optional members default: [watch]'s ["from"]
    to 0, [worker]'s ["slots"] to 1, [heartbeat]'s ["leases"] to []. *)

type job_state = Queued | Running | Paused | Done | Failed of string | Cancelled

val job_state_to_string : job_state -> string

val job_state_terminal : job_state -> bool
(** [Done]/[Failed]/[Cancelled]: no further stream events will follow. *)

type job_view = {
  v_id : string;
  v_name : string;
  v_state : job_state;
  v_shards_done : int;  (** merged or quarantined by this server process *)
  v_shards_total : int;
  v_findings : int;
  v_quota : int;
}

val job_view_codec : job_view O4a_telemetry.Json.Codec.t

val ok : (string * O4a_telemetry.Json.t) list -> O4a_telemetry.Json.t
val error : string -> O4a_telemetry.Json.t

val error_coded : code:string -> string -> O4a_telemetry.Json.t
(** An [ok:false] reply carrying a machine-readable ["code"] next to the
    prose, for failures a client may want to branch on. *)

val code_line_too_long : string
(** The typed code sent (with a disconnect) when a request line exceeds the
    daemon's inbound frame cap. *)

val code_handshake_timeout : string
val code_idle_timeout : string

val error_code : O4a_telemetry.Json.t -> string option

val reply_error : O4a_telemetry.Json.t -> string option
(** [None] when the reply is [ok:true]; the error message otherwise. *)

val stream_line :
  job:string -> kind:string -> O4a_telemetry.Json.t -> O4a_telemetry.Json.t
(** One subscriber event: [{"job";"kind";"data"}]. Kinds: ["telemetry"] (a
    forwarded campaign event), ["finding"], ["health"], ["quarantine"],
    ["progress"], ["plateau"], ["lease"], ["state"]. *)

(** {1 Coordinator → worker push messages}

    Replies carry an ["ok"] field and pushes a ["msg"] field, so both can
    share a registered worker's connection without ambiguity. *)

type worker_msg =
  | Grant of {
      lease : int;
      job : string;
      grant_attempt : int;
          (** 0 for the first grant of the shard, +1 per reassignment (or
              chaos-injected duplicate) — coordinator bookkeeping, echoed
              for observability *)
      shard : Orchestrator.Shard.t;
      spec : Jobspec.t;
          (** the full job spec rides along so a worker can rebuild the
              campaign environment from scratch — same
              generators/seeds/fault plan as the coordinator's own pool *)
    }
  | Drain  (** finish in-flight shards, send their results, disconnect *)
  | Retire of string
      (** the job reached a terminal state: drop its campaign env. A worker
          that never ran the job ignores it *)

val worker_msg_codec : worker_msg O4a_telemetry.Json.Codec.t
(** Tagged by ["msg"]; a grant's absent ["attempt"] decodes as 0. *)
