(** Coverage instrumentation for the solver substrate.

    The paper measures gcov line and function coverage of Z3 and cvc5 while
    fuzzing (Figures 6 and 8). Our solvers are OCaml libraries, so instead of
    gcov we instrument them directly: every solver module registers named
    coverage {e points} at load time, tagged with the solver they belong to,
    a file name, a function name, and a kind ([`Line] or [`Function]). During
    solving, the code calls {!hit} on the points it passes through.

    {b Parallelism model.} Point {e metadata} (the registry) is global,
    immutable once registered, and mutex-guarded, so engines may be
    constructed from any domain. Hit {e counts} live in {!ledger} buffers.
    Every domain has an ambient ledger (initially the shared global one);
    a parallel worker installs a private ledger with {!with_ledger}, runs its
    shard in isolation, and hands its {!export} to the merge owner, which
    sums exports by identity string outside this module
    ([Orchestrator.Checkpoint.add]). Because the sum is keyed by stable
    point identities, the merged result is independent of worker count and
    completion order, and merging registers no point. *)

type solver_tag = Zeal | Cove

val tag_to_string : solver_tag -> string
(** ["zeal"] / ["cove"] — the wire form used by checkpoints and telemetry. *)

val tag_of_string : string -> solver_tag option

type kind = Line | Function

type point
(** An opaque registered coverage point. [hit] on a point is O(1). *)

val register :
  solver:solver_tag -> file:string -> func:string -> kind:kind -> string -> point
(** [register ~solver ~file ~func ~kind label] creates (or retrieves, if the
    same identity was registered before) a coverage point. Call once at module
    load time and keep the [point] value. Thread-safe. *)

val register_lines :
  solver:solver_tag -> file:string -> func:string -> int -> point array
(** [register_lines ~solver ~file ~func n] registers a [Function] point plus
    [n] [Line] points for a function body, returning the line points. The
    function point is hit automatically whenever line 0 is hit. *)

val hit : point -> unit
(** Increment the point's count in the {e ambient} ledger of the calling
    domain. *)

val hit_n : point -> int -> unit
(** [hit_n p n] counts [n] hits at once: the same counts as [n] calls of
    [hit p]. *)

(** {1 Ledgers} *)

type ledger
(** An isolated buffer of hit counts over the shared point registry. Each
    ledger has a single owner: do not share one ledger between concurrently
    running domains. *)

val hit_count : ?ledger:ledger -> point -> int

val make_ledger : unit -> ledger

val global_ledger : ledger
(** The process-wide default every domain starts with. Sequential code that
    never calls {!with_ledger} behaves exactly as before the ledger split. *)

val with_ledger : ledger -> (unit -> 'a) -> 'a
(** [with_ledger l f] makes [l] the calling domain's ambient ledger for the
    duration of [f] (restored afterwards, even on exceptions). *)

val export : ledger -> (string * int) list
(** Non-zero counts keyed by stable point identity, canonically sorted — the
    serializable form used by checkpoints and the cross-shard merge. The
    identity strings are the ones the registry built when each point was
    registered, shared by every export rather than formatted afresh. *)

val unregistered : (string * int) list -> string option
(** The first identity of an export that the registry does not hold, if
    any — how a merge owner vets coverage from outside the process. Takes
    the registry lock once for the whole export. *)

(** {1 Snapshots and reporting} *)

type snapshot = {
  lines_total : int;
  lines_hit : int;
  funcs_total : int;
  funcs_hit : int;
}

val snapshot : ?ledger:ledger -> solver_tag -> snapshot
(** Current totals for one solver; [ledger] defaults to the ambient one. *)

val snapshot_of_export : (string * int) list -> solver_tag -> snapshot
(** Totals for one solver over an export: the registered points of that
    solver, hit when the export gives their identity a positive count.
    Identities the registry does not hold count nowhere. *)

val line_pct : snapshot -> float
val func_pct : snapshot -> float

val reset : ?ledger:ledger -> unit -> unit
(** Zero all hit counters in the ledger (registrations are kept). *)

val total_points : solver_tag -> int

val hit_point_labels : ?ledger:ledger -> solver_tag -> string list
(** Labels ["file:func:label"] of every point hit at least once — used to
    compare which regions different fuzzers reach. *)
