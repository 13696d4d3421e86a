(** A remote worker pool: the executing half of the distributed campaign
    fabric ([once4all worker --connect HOST:PORT]).

    Connects to a coordinator, registers [slots], and runs granted shards on
    an {!Orchestrator.Pool} with the pipeline the coordinator's local slots
    use — {!Jobspec.prepare} and {!Jobspec.env} from the granted spec, then
    {!Orchestrator.exec_shard} — so a shard executed remotely is bit-for-bit
    the shard the coordinator would have executed itself. The socket thread
    alone reads and writes the connection: results stream back as they
    finish, and heartbeats carry the held lease ids on its timer, so a shard
    may take longer than the lease timeout without forfeiting it. A job's
    env is built once, at its first shard, and dropped when the coordinator
    sends [Retire] for the job, so the worker holds the envs of live jobs
    only. *)

type config = {
  addr : Addr.t;  (** coordinator endpoint *)
  slots : int;  (** executors (>= 1) *)
  connect_timeout : float;
      (** total retry budget for the initial connect, seconds *)
  heartbeat_interval : float;
      (** seconds between heartbeats; keep well under the coordinator's
          lease timeout (default: a third of it) *)
  quit_after : int option;
      (** test hook: after sending N results, die abruptly with the next
          lease unsettled — the coordinator sees the connection drop and
          reassigns the shard. [None] in production. *)
}

val default_heartbeat_interval : float

val result_line :
  lease:int -> Orchestrator.Shard.t -> Orchestrator.shard_outcome -> string
(** The one-line [result] request reporting [outcome] for [lease]. An
    outcome whose line would exceed {!Framing.default_max_line} is replaced
    by a [Failed] outcome naming its size, the cap, and the remedy (a
    smaller [--shard-size]), so the job fails instead of hanging. *)

val run : config -> int
(** Run until the coordinator sends [Drain] (exit 0, once every in-flight
    result is delivered or the coordinator hangs up) or the connection is
    lost before it / [quit_after] trips (exit 1). Exit 2 on bad
    configuration. *)
