(** A process-local metrics registry: monotonic counters and fixed-bucket
    histograms, keyed by name + labels.

    Hot-path updates are O(1): either pre-register a cell once and update it
    through its handle ({!counter} / {!histogram}), or use the
    [*_named] conveniences, which cost one hashtable lookup. Registering the
    same name + labels twice returns the same cell; re-registering under a
    different metric kind raises [Invalid_argument].

    {b Thread safety.} The registry itself (registration, the [*_named]
    conveniences, {!snapshot}, {!get_counter}, {!absorb}) is mutex-guarded and
    safe to share between domains. Updates through a cell {e handle} are not
    synchronized: a handle is meant to have a single owning domain. Parallel
    workers therefore keep a private registry each and the merge stage folds
    worker snapshots into the campaign registry with {!absorb}. *)

type t

type counter
type histogram

val create : unit -> t

(** {1 Cell registration and updates} *)

val counter : t -> ?labels:(string * string) list -> string -> counter
val inc : counter -> unit
val add : counter -> int -> unit
(** Negative increments raise [Invalid_argument]: counters are monotonic. *)

val counter_value : counter -> int

val default_latency_bounds : float array
(** Log-spaced 1–2.5–5 bucket upper bounds from 1 µs to 10 s, in seconds. *)

val histogram :
  t -> ?labels:(string * string) list -> ?bounds:float array -> string -> histogram
(** [bounds] are inclusive upper bounds of the finite buckets, strictly
    increasing; one implicit overflow bucket catches the rest. Defaults to
    {!default_latency_bounds}. *)

val observe : histogram -> float -> unit

(** {1 Name-based conveniences (one lookup per call)} *)

val incr_named : t -> ?labels:(string * string) list -> ?by:int -> string -> unit
val observe_named : t -> ?labels:(string * string) list -> string -> float -> unit

(** {1 Snapshots} *)

type hist_snapshot = {
  bounds : float array;
  counts : int array;  (** one longer than [bounds]: the overflow bucket *)
  sum : float;
  count : int;
}

type value =
  | Counter of int
  | Histogram of hist_snapshot

type entry = { name : string; labels : (string * string) list; value : value }

val snapshot : t -> entry list
(** A consistent copy, sorted by name then labels. *)

val get_counter : t -> ?labels:(string * string) list -> string -> int
(** 0 when the counter was never registered. *)

val absorb : t -> entry list -> unit
(** Fold a snapshot of another registry into this one: counters add,
    histograms add bucket-wise (absorbing a histogram whose bounds differ
    from the resident cell's raises [Invalid_argument]). Both commute, so
    merging worker snapshots in completion order yields a deterministic
    result. *)

val fits : t -> entry list -> (unit, string) result
(** Whether {!absorb} would take these entries without raising — each keeps
    the kind, and a histogram the bounds, that the registry or an earlier
    entry gave its name and labels — and the message it would raise if not.
    Changes nothing. *)

val hist_quantile : hist_snapshot -> float -> float
(** [hist_quantile h q] with [q] in [[0,1]]: the upper bound of the bucket
    holding the q-th observation (the usual bucketed-histogram estimate);
    0. on an empty histogram. *)

val entry_to_json : entry -> Json.t
(** [{"name":…,"labels":{…},"counter":…}] /
    [… "histogram":{"sum":…,"count":…}] — the wire form used by the final
    ["metrics"] event of a JSONL log. *)

val entry_codec : entry Json.Codec.t
(** Lossless, full histogram bounds and bucket counts included — the form a
    remote shard's metrics cross the wire in. An entry with neither a
    ["counter"] nor a ["histogram"] member does not decode. *)
