(** Fair round-robin shard scheduling across concurrent campaigns.

    Plain mutable data with no internal locking: only the daemon's main
    domain touches its instance; tests drive one directly.

    A {e round} gives every runnable job up to its [quota] shard dispatches.
    Within a round, picks rotate job-to-job, so jobs with equal quotas
    interleave shard-for-shard rather than running quota-sized bursts. When
    no job is pickable under the current round's spends but runnable work
    remains, a new round begins. Consequences: every runnable job with
    pending work dispatches at least one shard per round (no starvation),
    and jobs with equal quotas and equal shard counts finish within one
    round of each other. *)

type t

val create : unit -> t

val add : t -> key:string -> quota:int -> Orchestrator.Shard.t list -> unit
(** Register a job with its pending shards in dispatch order. Raises
    [Invalid_argument] on a duplicate key or a quota < 1. *)

val set_runnable : t -> key:string -> bool -> unit
(** Pause/unpause: a non-runnable job is never picked, its pending shards
    stay queued. Unknown keys are ignored. *)

val remove : t -> key:string -> unit
(** Drop a job and its pending shards (cancel). *)

val pending : t -> key:string -> int

val requeue : t -> key:string -> Orchestrator.Shard.t -> unit
(** Hand a shard back after its lease expired: it goes to the front of the
    job's pending queue, so the reassignment is the job's next dispatch.
    Unknown keys are ignored (the job was cancelled meanwhile). *)

val next : t -> (string * Orchestrator.Shard.t) option
(** The next [(job, shard)] to dispatch under the fairness discipline, or
    [None] when no runnable job has pending work. *)

val idle : t -> bool
(** No runnable job has pending shards. *)

val stats : t -> key:string -> (int * int) option
(** [(pending, dispatched)] for a job, if registered. *)
