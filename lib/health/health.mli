(** Per-(solver, theory) health ledgers and circuit breakers.

    A long campaign against a solver that has gone sick in one theory burns
    fuel on queries that will never answer and risks bogus soundness
    findings. The ledger counts each solver's outcomes per theory over a
    sliding window of queries; when the bad-outcome count inside the window
    reaches a threshold the breaker for that (solver, theory) trips Open and
    the oracle degrades to single-solver + model-validation for that theory.
    After a cooldown of one window's worth of suppressed queries the
    breaker moves to Half_open and admits one probe query: a good probe
    re-closes the breaker, a bad one re-opens it.

    Every transition is keyed to deterministic counters — the per-key query
    index and cumulative evaluator fuel — never wall-clock time, so breaker
    trips are byte-identical at any [--jobs N]. Ledgers follow the coverage
    ledger pattern: one fresh instance per shard attempt (ambient on the
    worker domain), exported as plain counter entries and merged
    commutatively by the single merge owner, so the campaign-level health
    report does not depend on completion order. *)

type state = Closed | Open | Half_open

val state_name : state -> string
(** ["closed"], ["open"], ["half_open"] — used in telemetry events. *)

type config = {
  window : int;
      (** sliding window length, in recorded queries per key; also the
          suppressed queries while Open before a probe is admitted *)
  threshold : int;  (** bad outcomes within the window that trip the breaker *)
}
(** Timeouts and crashes count as bad outcomes; solver errors never do:
    ill-typed or unsupported inputs produce symmetric errors on {e healthy}
    solvers, and tripping on them would open both breakers at once. *)

val default_config : config

type outcome_class = Good | Timeout | Error | Crash

(** What the breaker says about a query before it runs. *)
type decision =
  | Admit  (** breaker Closed: run the solver normally *)
  | Probe  (** breaker Half_open: run it, and let the outcome decide the state *)
  | Suppress  (** breaker Open: skip this solver for this query *)

type ledger

val make_ledger : config -> ledger

val disabled : ledger
(** Admits everything and records nothing; the ambient default. *)

val enabled : ledger -> bool

val admit : ledger -> solver:string -> theory:string -> decision * state option
(** Consult the breaker before a query. The returned state is the new
    breaker state when this consult itself caused a transition
    (Open → Half_open once [window] suppressed queries have elapsed). *)

val record :
  ledger ->
  solver:string ->
  theory:string ->
  probe:bool ->
  fuel:int ->
  outcome_class ->
  state option
(** Record one admitted query's outcome and the fuel it consumed. [probe]
    must be [true] iff {!admit} answered [Probe]. Returns the new state when
    the outcome caused a transition: Closed → Open on the threshold,
    Half_open → Closed on a good probe, Half_open → Open on a bad one. *)

val state : ledger -> solver:string -> theory:string -> state

(** Campaign-level health: pure merged counters per (solver, theory). The
    window/breaker state itself is deliberately not exported — it is
    per-shard-attempt, which is what keeps trips jobs-invariant. *)
type entry = {
  e_solver : string;
  e_theory : string;
  queries : int;
  timeouts : int;
  errors : int;
  crashes : int;
  fuel : int;  (** cumulative evaluator steps across recorded queries *)
  suppressed : int;  (** queries skipped while the breaker was Open *)
  probes : int;  (** Half_open probe queries admitted *)
  opened : int;  (** transitions into Open (trips and re-opens) *)
  reclosed : int;  (** Half_open → Closed transitions *)
}

val export : ledger -> entry list
(** Canonical: sorted by (solver, theory). *)

val merge : entry list -> entry list -> entry list
(** Pointwise sum by (solver, theory); commutative and associative, output
    sorted — merging shard exports in any completion order gives the same
    campaign totals. *)

val entry_codec : entry O4a_telemetry.Json.Codec.t

val entry_to_string : entry -> string
(** One-line human rendering ([solver/theory] followed by the counters) —
    shared by [checkpoint info] and diagnostic dumps. *)

val ambient : unit -> ledger
(** The calling domain's ledger; {!disabled} unless inside {!using}. *)

val using : ledger -> (unit -> 'a) -> 'a
(** Run [f] with [ledger] ambient on this domain, restoring the previous
    ledger afterwards (also on exception). *)
