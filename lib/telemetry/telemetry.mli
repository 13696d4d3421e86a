(** The campaign telemetry handle: a metrics registry, an event sink, and a
    clock, behind one [enabled] switch.

    Every instrumentation hook in the pipeline goes through a [t]. The
    {!disabled} handle (also the initial {!global}) short-circuits each hook
    to a single branch, so an uninstrumented run pays no measurable cost;
    {!create} builds a live handle whose hooks update the registry and stream
    events to the sink.

    Instrumented entry points ([Orchestrator.run], [Oracle.test],
    [Runner.run], …) take [?telemetry] defaulting to {!global}; deep hooks
    (solver engine, generator synthesis) always read {!global}. Install a live handle with
    {!set_global} (or scoped, with {!using}) to capture those too. *)

type t

val disabled : t
(** Never records anything. [enabled disabled = false]. *)

val create :
  ?sink:Sink.t -> ?clock:(unit -> float) -> ?labels:(string * string) list ->
  unit -> t
(** A live handle. [sink] defaults to {!Sink.null} (metrics only); [clock]
    defaults to [Unix.gettimeofday] and supplies event timestamps and span
    durations. [labels] are {e base labels} stamped onto every emitted event
    (as string fields) and every span with its ["stage.duration"] histogram
    cell — but {e not} onto counters, so absorbing several workers'
    registries sums counters into campaign totals while latency cells stay
    per-worker. A parallel worker's handle carries [("worker", id)] here. *)

val monotonic_clock : unit -> unit -> float
(** [monotonic_clock ()] builds a fresh wall-clock that never returns the
    same or an earlier value twice (ties are nudged forward by 1 µs), so a
    worker's event stream is totally ordered by timestamp. Each worker should
    build its own. *)

val enabled : t -> bool
val metrics : t -> Metrics.t
val sink : t -> Sink.t
val now : t -> float

(** {1 Recording} *)

val emit : t -> string -> (string * Json.t) list -> unit
(** Send one event to the sink, timestamped with the handle's clock. *)

val forward : t -> Event.t -> unit
(** Send an already-stamped event to the sink verbatim (no re-timestamping,
    no base labels) — how the merge stage replays a worker's buffered events
    into the campaign log. *)

val incr : t -> ?labels:(string * string) list -> ?by:int -> string -> unit

val with_span : t -> ?labels:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [with_span t stage f] times [f], records the duration into the
    ["stage.duration"] histogram (label [stage]), and emits a ["span"] event
    [{stage; dur_us}]. Spans nest: an inner span's event carries
    ["parent"] and ["depth"] fields. The duration is recorded even when [f]
    raises. *)

(** {1 Span hooks}

    A profiling layer (e.g. [O4a_profile.Profile]) can observe every span
    boundary on its domain without the telemetry pipeline being live: the
    ambient hook is domain-local, independent of any handle, and fires even
    for spans taken through {!disabled}. The leave callback runs even when
    the spanned function raises. *)

type span_hook = { on_enter : string -> unit; on_leave : string -> unit }

val with_span_hook : span_hook -> (unit -> 'a) -> 'a
(** Install [hook] as the calling domain's ambient span hook for the call,
    restoring the previous hook afterwards (also on exception). *)

(** {1 Snapshots} *)

val snapshot : t -> Metrics.entry list
val counter_value : t -> ?labels:(string * string) list -> string -> int

val absorb_metrics : t -> Metrics.entry list -> unit
(** Fold a worker handle's {!snapshot} into this handle's registry (see
    {!Metrics.absorb}). No-op on a disabled handle. *)

val flush : t -> unit
(** Flush/close the sink (see {!Sink.close}). *)

(** {1 The ambient handle} *)

val global : unit -> t
(** Initially {!disabled}. The ambient handle is {e domain-local}: each
    domain starts at {!disabled} and {!set_global}/{!using} only affect the
    calling domain, so a worker installing its private handle never disturbs
    the main domain's. *)

val set_global : t -> unit

val using : t -> (unit -> 'a) -> 'a
(** Install [t] as the calling domain's ambient handle for the call,
    restoring the previous handle afterwards (even on exceptions). *)
