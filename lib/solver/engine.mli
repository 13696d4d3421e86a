(** Solver front ends: {b Zeal} (the Z3 analog) and {b Cove} (the cvc5
    analog, which additionally implements the Sets/Relations, Bags,
    FiniteFields extensions).

    A front end is instantiated at a commit; the injected bugs active at that
    commit (see {!Bug_db.active}) shape its behavior. Solving proceeds
    through a realistic pipeline — command processing, unsupported-symbol
    detection, sort checking, rewriting, bounded model search — each stage
    hitting this solver's coverage points.

    {b Re-entrancy.} {!zeal}, {!cove} and {!make} may be called from any
    domain: the shared state they touch (the lazily built coverage-point
    tables here, the point registry in {!O4a_coverage.Coverage}) is
    mutex-guarded, and bug specs and rewrite rules are immutable. A
    constructed engine, however, carries unsynchronized mutable accounting
    (activity tallies, search fuel) that feeds verdicts — so each parallel
    worker must build {e its own} engines; never share one engine value
    between concurrently running domains. Coverage hits land in the calling
    domain's ambient ledger (see {!O4a_coverage.Coverage.with_ledger}). *)

open Smtlib

type t

type outcome =
  | Sat of Model.t
  | Unsat
  | Resource_limit  (** fuel exhausted — the analog of a timeout *)
  | Unknown of string  (** gave up for a reason other than fuel *)
  | Error of string  (** parse / sort / unsupported-symbol error *)

exception Crash of { signature : string; bug_id : string; solver_name : string }
(** The analog of a segfault or assertion violation; carries the synthetic
    stack signature used for crash clustering. *)

val zeal : ?commit:int -> unit -> t
(** Defaults to trunk. *)

val cove : ?commit:int -> unit -> t

val make : ?pure:bool -> O4a_coverage.Coverage.solver_tag -> commit:int -> t
(** [pure] installs no injected bugs — the reference semantics used by the
    correcting-commit experiments. *)

val pure : O4a_coverage.Coverage.solver_tag -> t

val prewarm : unit -> unit
(** Build both solvers' coverage-point tables now (normally built lazily on
    first engine construction). The orchestrator calls this once before
    spawning workers so the point id space is fully populated up front. *)

val name : t -> string
(** e.g. ["zeal-trunk"], ["cove-1.2.0"]. *)

val tag : t -> O4a_coverage.Coverage.solver_tag

val commit : t -> int

val is_pure : t -> bool
(** Whether the engine was built with [~pure:true]. *)

val supports_script : t -> Script.t -> bool
(** Whether every theory used by the script is implemented by this solver. *)

val solve_script : ?max_steps:int -> t -> Formula.t -> outcome
(** Run the pipeline on a formula. Its sort check and trigger index come
    from the {!Formula} value, so engines handed the same value (the
    oracle's pair) compute them once between them; each run still hits
    this engine's own [typecheck.ok]/[typecheck.error] coverage point.
    One-shot callers wrap their script with {!Formula.of_script}. May raise
    {!Crash}. *)

(** {1 Per-query activity}

    Lightweight always-on accounting the telemetry layer reads after each
    query: evaluator fuel consumed, decision count (domain enumerations
    started), and propagation count. *)

type query_stats = { steps : int; decisions : int; propagations : int }

val last_query_stats : t -> query_stats
(** Activity of the most recent {!solve_script} / {!solve_source} call on
    this engine (zeros before the first call, or for a query that crashed
    before reaching the search). *)

val solve_source : ?max_steps:int -> t -> string -> outcome
(** Parse, check and solve SMT-LIB source text. Parse failures are reported
    as [Error] (never raised). May raise {!Crash}. *)

val parse_check : t -> string -> (Script.t, string) result
(** Front-end only: parse and sort-check without solving — what the
    self-correction loop of Algorithm 1 uses to validate generated terms.
    Each call parses and sort-checks its text itself. *)

(** {1 Incremental solving and unsat cores} *)

type incremental_step = {
  step_index : int;  (** which [check-sat], 0-based *)
  step_outcome : outcome;
}

val solve_incremental :
  ?max_steps:int -> t -> Script.t -> incremental_step list
(** Replay the script with a [push]/[pop] assertion stack, solving at each
    [check-sat] over the assertions visible at that point. May raise
    {!Crash}. *)

val unsat_core : ?max_steps:int -> t -> Script.t -> Term.t list option
(** Greedy destructive minimization of the assertion set: [Some core] when
    the script is unsat ([core]'s conjunction is still unsat and dropping any
    single member was observed sat/unknown during minimization); [None] when
    the script is not unsat to begin with. *)
