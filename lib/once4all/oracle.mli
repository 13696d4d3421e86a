(** Differential + model-validation oracle (Algorithm 2, lines 10–12 and the
    discrepancy-attribution protocol of §3.3):

    - a crash in any solver is a {e crash bug};
    - on a sat/unsat split, the sat-side model is re-evaluated with the
      reference evaluator: if it definitely satisfies the formula the unsat
      solver has a {e soundness bug}, otherwise the sat solver returned an
      {e invalid model};
    - even without a split, every model is validated (the analog of running
      with [model_validate=true] / [--check-models]).

    Formulas using solver-specific theories are compared {e across versions
    of the supporting solver} (trunk vs the previous release), as the paper
    does for solver-specific features. *)

open Smtlib

(** Which oracle produced a finding. [Degraded] names the solver(s) whose
    open circuit breaker ({!O4a_health.Health}) suppressed them for this
    query, leaving single-solver + model-validation: degraded-mode findings
    are tagged so triage can discount soundness claims made without a full
    differential comparison (structurally, a degraded query cannot even
    produce one — a soundness finding needs a sat/unsat split across two
    solvers). *)
type mode = Differential | Degraded of string

val mode_to_string : mode -> string
(** ["differential"], or ["degraded:" ^ suppressed_solvers]. *)

val mode_of_string : string -> mode option

type finding = {
  kind : Solver.Bug_db.kind;
  solver : O4a_coverage.Coverage.solver_tag;
  solver_name : string;
  signature : string;  (** crash site, or a synthesized signature for others *)
  bug_id : string option;  (** ground-truth specimen id when attributable *)
  theory : string;  (** primary theory tag for triage grouping *)
  mode : mode;  (** oracle mode the finding was produced under *)
}

type outcome = {
  finding : finding option;
  results : (string * string) list;  (** solver name -> printable result *)
  solved : bool;  (** at least one solver produced sat/unsat *)
  consults : int;
      (** solver runs in this test: 0 on a parse error, and an engine an
          open breaker suppressed is not one *)
  fuel : int;
      (** the sum of each run engine's {!Solver.Engine.last_query_stats}
          steps, read right after its run *)
}

val test :
  ?max_steps:int ->
  ?telemetry:O4a_telemetry.Telemetry.t ->
  ?parsed:Script.t ->
  zeal:Solver.Engine.t ->
  cove:Solver.Engine.t ->
  source:string ->
  unit ->
  outcome
(** Run the differential test on SMT-LIB source text. [telemetry] defaults
    to the ambient global handle; when enabled the test is wrapped in an
    ["oracle.compare"] span with nested ["parse"] and per-solver
    ["solver.run"] spans, and each solver run emits an ["oracle.verdict"]
    event (see {!Solver.Runner.run}).

    [parsed], when given, must be the script [Parser.parse_script source]
    returns: the oracle then uses it instead of parsing [source] again (the
    fuzz loop passes the parse {!Synthesize} already made). Without it the
    oracle parses [source] itself, so a source that does not parse still
    reads [[("parser", message)]] and counts in ["oracle.parse_errors"].
    Either way the test builds one {!Solver.Formula} from the script and
    hands it to every engine it runs and to {!attribute}, so the formula is
    sort-checked and indexed once.

    When the ambient {!O4a_health.Health} ledger is live, every query first
    consults the per-(solver, theory) circuit breaker: suppressed solvers
    are skipped (degrading the oracle to single-solver + model-validation,
    with findings tagged [Degraded]), Half_open probes run normally, and
    each admitted run's outcome and fuel are recorded back into the ledger.
    Breaker transitions emit ["health.breaker"] events. *)

val attribute :
  Solver.Engine.t -> Solver.Formula.t -> kind:Solver.Bug_db.kind -> string option
(** Ground-truth attribution: the first active bug of [kind] in the engine
    that fires on the formula ({!Solver.Bug_db.fires_index} on its
    index). *)
