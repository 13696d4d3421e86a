(** The unit of parallel work: a contiguous range of campaign ticks.

    The shard plan is a pure function of [budget] and [shard_size] — never of
    the worker count — and each shard's RNG derives from the campaign seed
    and the shard {e index} alone, so the formula stream inside every shard
    is identical however many workers execute the plan. That invariant is
    what makes [--jobs N] reproduce the [--jobs 1] campaign exactly. *)

type t = {
  index : int;  (** position in the plan, 0-based *)
  first_tick : int;  (** campaign tick of the shard's first test *)
  ticks : int;  (** how many tests this shard runs *)
}

val plan : budget:int -> shard_size:int -> t list
(** Cover [0 .. budget-1] with consecutive shards of [shard_size] ticks (the
    final shard may be shorter). Empty when [budget = 0]; raises
    [Invalid_argument] on a negative budget or non-positive shard size. *)

val rng : seed:int -> t -> O4a_util.Rng.t
(** The shard's deterministic RNG: {!O4a_util.Rng.split_indexed} of the
    campaign seed at the shard index. *)

val codec : t O4a_telemetry.Json.Codec.t
(** [{"index","first_tick","ticks"}] — how a lease grant names its shard. *)
