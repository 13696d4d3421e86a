(** The parallel campaign orchestrator: shard a fuzzing campaign across
    OCaml 5 domains and merge the results deterministically.

    The campaign's tick range is cut into {!Shard} units whose plan and RNGs
    depend only on [(seed, budget, shard_size)]. Shards run as tasks on one
    {!Pool}; each executor owns its solver engines, each shard runs inside
    a private coverage ledger and a private telemetry handle (memory sink,
    monotonic clock, a [worker] base label). A single merge owner — the
    calling domain — folds finished shards back together: findings are
    re-ordered by shard index before {!Once4all.Dedup.cluster}, coverage
    merges commutatively by point identity, counters sum, worker events are
    forwarded to the campaign sink tagged with their shard. Consequently
    [run ~jobs:n] returns the same report for every [n].

    After every merged shard the campaign can be checkpointed
    ({!Checkpoint}); [run ~base], given the loaded checkpoint, skips the
    shards it already covers and lands on the same final report as an
    uninterrupted run.

    With a chaos [plan] ({!O4a_faults.Faults.plan}) the orchestrator also
    supervises deterministic fault injection: each shard attempt runs under a
    per-(shard, attempt) injector, any attempt during which a fault fired is
    discarded wholesale and retried after a fuel-based backoff, and a shard
    that exhausts {!O4a_faults.Faults.max_retries} retries is quarantined —
    its tick range is reported (and persisted in the checkpoint) instead of
    aborting the campaign. Because only zero-fault attempts merge, a chaos
    run whose retries all eventually succeed produces a report, trace tree,
    and bundle set byte-identical to the fault-free run. *)

module Shard = Shard
module Checkpoint = Checkpoint

module Stop = Stop
(** The process-wide stop flag and the shared two-signal handler contract
    ({!Stop.install_handlers}). *)

module Pool = Pool

type report = {
  stats : Once4all.Fuzz.stats;
      (** merged totals; findings in shard (= campaign tick) order *)
  clusters : Once4all.Dedup.cluster list;
  found_bug_ids : string list;  (** distinct ground-truth ids, sorted *)
  coverage : (string * int) list;
      (** merged {!O4a_coverage.Coverage.export} of the whole campaign *)
  coverage_zeal : O4a_coverage.Coverage.snapshot;
  coverage_cove : O4a_coverage.Coverage.snapshot;
  shards_total : int;
  shards_run : int;  (** executed by this process *)
  shards_resumed : int;  (** taken from the checkpoint *)
  interrupted : bool;  (** [stop_after] left shards unexecuted *)
  promoted : O4a_trace.Trace.promoted list;
      (** oracle-promoted traces in shard (= campaign tick) order; empty
          unless [trace_dir] was given *)
  bundles_written : int;  (** repro bundles written under [trace_dir] *)
  quarantined : Checkpoint.quarantine list;
      (** shards that exhausted their chaos retries, in shard order; their
          ticks are excluded from [stats] (degraded-mode merge) *)
  shard_retries : int;  (** tainted attempts that were retried *)
  faults_injected : int;  (** faults fired across all attempts *)
  health : O4a_health.Health.entry list;
      (** merged per-(solver, theory) health counters from every merged
          shard, sorted; empty when [health] was not given *)
  profile : O4a_profile.Profile.t;
      (** merged per-stage profile from the shards this process executed
          (resumed shards contribute nothing — checkpoints carry no
          profile); {!O4a_profile.Profile.empty} unless [profiling] was set.
          Its {!O4a_profile.Profile.strip_timing} projection is identical at
          any [jobs] *)
  analytics : O4a_analytics.Analytics.t;
      (** merged campaign time series — one sample per merged shard plus the
          yield-attribution table; always recorded (the ledger is cheap) and
          byte-identical at any [jobs]. Resumed shards contribute through
          the checkpoint, so an interrupted-and-resumed campaign's series
          equals the uninterrupted one's *)
  plateaus : O4a_analytics.Analytics.plateau list;
      (** saturation verdicts over the final series
          ({!O4a_analytics.Analytics.plateaus} at the default window) *)
  stopped : bool;
      (** a graceful stop ({!Stop.request}) drained the campaign before all
          planned shards ran; everything merged so far is checkpointed *)
}

val default_shard_size : int

(** {1 The pluggable shard pipeline}

    {!run} below is one assembly of these pieces: a shard source (the
    campaign's own plan), {!exec_shard} on a private {!Pool}, and a
    {!Merge.t} sink on the calling domain. The campaign server assembles the
    same pieces differently — one {!exec_env}/{!Merge.t} pair per submitted
    job, shards from many jobs interleaved on one shared pool. Because a
    shard outcome is a pure function of [(env, shard)] and merging is
    order-independent, both assemblies land every campaign on the same
    report. *)

type exec_env
(** Everything needed to execute one shard of a campaign — and nothing about
    which worker pool runs it or where the results merge. *)

val make_env :
  ?config:Once4all.Fuzz.config ->
  ?tel_enabled:bool ->
  ?tracing:bool ->
  ?chaos:O4a_faults.Faults.plan ->
  ?health:O4a_health.Health.config ->
  ?profiling:bool ->
  ?gen_profile:string ->
  seed:int ->
  generators:Gensynth.Generator.t list ->
  seeds:Smtlib.Script.t list ->
  unit ->
  exec_env
(** The optional arguments mirror {!run}'s (same defaults); [tel_enabled]
    decides whether workers buffer events for forwarding, [tracing] whether
    they record traces. A [chaos] plan whose profile is [Off] is normalized
    to no plan. [gen_profile] (default [""]) labels the analytics yield
    table with the LLM generator profile; {!run} derives it from the
    ["profile"] provenance extra. The env is all {!exec_shard} reads. *)

(** Everything one clean shard execution hands the merge owner. Concrete so
    the campaign server's wire layer can ship it between hosts — a remote
    worker's payload must absorb exactly like a local one. [merged] is the
    journal entry {!Merge.absorb} folds into the state and appends;
    [events] is the shard's whole telemetry record. *)
type shard_payload = {
  merged : Checkpoint.merged_shard;
  events : O4a_telemetry.Event.t list;
  promoted : O4a_trace.Trace.promoted list;
  profile_export : O4a_profile.Profile.t;
}

type attempt_log = { attempt : int; fired : O4a_faults.Faults.site list }
(** One failed attempt at a shard: which faults fired before it was
    discarded. *)

(** Result of one supervised shard execution — produced by {!exec_shard},
    consumed by {!Merge.absorb} (possibly after a round trip through
    {!O4a_server}'s wire codecs). *)
type shard_outcome =
  | Merged of shard_payload * attempt_log list * O4a_faults.Faults.site list
      (** clean result, after the listed tainted attempts were retried; the
          final site list is the non-tainting faults (sick-solver hangs)
          that fired during the merged attempt itself *)
  | Quarantined of attempt_log list
      (** every attempt was tainted; results discarded, ticks reported *)
  | Failed of string  (** a genuine (non-injected) worker exception *)

val exec_shard :
  env:exec_env ->
  worker_id:int ->
  zeal:Solver.Engine.t ->
  cove:Solver.Engine.t ->
  Shard.t ->
  shard_outcome
(** Execute one shard under the env's chaos supervision. Safe to call from
    any domain; [zeal]/[cove] are the calling worker's private engines, used
    by every attempt, profiled or not. The outcome is a pure function of
    [(env, shard)] — independent of [worker_id] (a telemetry label), of
    which domain runs it, and of whatever else that domain ran before. *)

(** The per-campaign merge accumulator: single-owner, order-independent.
    Whichever domain creates a [Merge.t] is the only one that may touch it;
    worker outcomes arrive in completion order, and its persisted state, a
    {!Checkpoint.state}, folds them commutatively or re-canonicalizes by
    shard index, so the report never depends on interleaving. *)
module Merge : sig
  type t

  val create :
    env:exec_env ->
    tel:O4a_telemetry.Telemetry.t ->
    ?checkpoint_path:string ->
    ?base:Checkpoint.t ->
    ?on_progress:(O4a_profile.Hud.progress -> unit) ->
    jobs:int ->
    budget:int ->
    shard_size:int ->
    extra:(string * string) list ->
    unit ->
    t
  (** Emits the [campaign.start] event (call {!Solver.Engine.prewarm}
      first). The state starts from [base], a resumed checkpoint
      ([Invalid_argument] if {!Checkpoint.start} refuses it); [jobs] is
      provenance for the start event only. *)

  val absorb : t -> Shard.t -> shard_outcome -> unit
  (** Merge one outcome: {!Checkpoint.add} its entry, forward its worker
      events (tagged with the shard), fold its profile, run
      plateau detection over the contiguous settled shard prefix (emitting
      ["analytics.plateau"] at most once per series, at a point independent
      of completion order), then append the same entry to the checkpoint
      journal (chaos may tear the append — it is verified and retried) and
      fire the progress callback. Its cost is the shard's, not the
      campaign's. Raises [Failure] when the state already lists the shard
      (before anything is forwarded or appended) or the append cannot be
      verified. Owner domain only. *)

  val check : t -> Shard.t -> shard_outcome -> (unit, string) result
  (** Vet an outcome from outside the process (a remote worker's result)
      before absorbing it for [shard]: a [Merged] payload's shard result
      and analytics buckets must name [shard], and its coverage must hold
      positive counts of registered points; a [Quarantined] one needs a
      chaos plan. Changes nothing. Owner domain only. *)

  val analytics_snapshot : t -> O4a_analytics.Analytics.t
  (** The series merged so far — the live [metrics] exposition reads this
      between shards; a pure snapshot, observing it perturbs nothing. Owner
      domain only. *)

  val processed : t -> int
  (** Outcomes absorbed so far (excluding shards resumed from [base]). *)

  val failed : t -> bool
  (** A genuine (non-injected) worker failure was absorbed;
      {!finalize} will raise. *)

  val notify_progress : t -> unit
  (** Fire the progress callback with current merged state — {!run} calls
      it once before any shard executes so HUDs render an initial frame. *)

  val checkpoint_now : t -> unit
  (** Write the full state as a one-line checkpoint, bypassing chaos
      supervision — for the before-any-shard-runs save and for server-side
      pause. It compacts the journal, including one loaded for [base]. *)

  val finalize :
    ?trace_dir:string -> interrupted:bool -> stopped:bool -> t -> report
  (** Compact the checkpoint journal if entries were appended since the
      last full write, canonicalize (findings, promoted traces, and
      quarantines re-sorted by shard index), write repro bundles under
      [trace_dir], emit [campaign.end], and build the report. Raises
      [Failure] describing the first failed shard if any worker failure was
      absorbed. *)
end

val run :
  ?jobs:int ->
  ?shard_size:int ->
  ?config:Once4all.Fuzz.config ->
  ?telemetry:O4a_telemetry.Telemetry.t ->
  ?checkpoint_path:string ->
  ?base:Checkpoint.t ->
  ?stop_after:int ->
  ?extra:(string * string) list ->
  ?trace_dir:string ->
  ?chaos:O4a_faults.Faults.plan ->
  ?health:O4a_health.Health.config ->
  ?profiling:bool ->
  ?on_progress:(O4a_profile.Hud.progress -> unit) ->
  seed:int ->
  budget:int ->
  generators:Gensynth.Generator.t list ->
  seeds:Smtlib.Script.t list ->
  unit ->
  report
(** Run a sharded campaign of [budget] tests.

    - [jobs] (default 1): executor domains (none at 1: shards run inline).
      The report is identical for every value; only wall-clock changes.
    - [shard_size] (default {!default_shard_size}): ticks per shard. Part of
      the campaign's provenance — changing it changes the shard RNG streams,
      so it must match across resumes (and between runs being compared).
    - [checkpoint_path]: serialize progress here after every merged shard.
    - [base]: a checkpoint the caller loaded ({!Checkpoint.load}), usually
      from [checkpoint_path]: the campaign starts from its state and skips
      its completed and quarantined shards. Fails with
      {!Checkpoint.matches}'s message (naming [checkpoint_path] when given)
      if its [(seed, budget, shard_size)] differ. With nothing left to run
      and no entry appended, [checkpoint_path] is not rewritten.
    - [stop_after]: execute at most this many shards, then return (with
      [interrupted = true] if work remains) — the hook used to exercise the
      kill/resume path deterministically.
    - [extra]: opaque provenance stored in the checkpoint (defaults to
      [base]'s own [extra]).
    - [generators] are shared across workers: they are immutable after
      construction.
    - [trace_dir]: enable provenance tracing ({!O4a_trace.Trace}) and write a
      repro bundle per promoted trace under this directory at the merge
      barrier, in shard order. Trace ids derive from [(seed, tick)] and
      traces record no wall-clock, so the bundle set is byte-identical for
      every [jobs]. Checkpoints do not carry promoted traces: a resumed
      campaign only writes bundles for the shards it actually executes.
    - [chaos]: deterministic fault-injection plan. [None] (and a plan whose
      profile is [Off]) injects nothing and skips supervision entirely. The
      plan is pure, so the same plan gives the same injections, retries, and
      quarantines at any [jobs] and across resume.
    - [health]: per-(solver, theory) circuit-breaker configuration
      ({!O4a_health.Health.config}). Each shard attempt runs under a fresh
      health ledger (the coverage-ledger pattern), so breaker trips depend
      only on (seed, shard, attempt) and the campaign report — including
      which findings are tagged degraded — is identical at any [jobs].
      [None] disables breakers entirely and changes nothing about existing
      campaigns.
    - [profiling]: run each shard under a fresh {!O4a_profile.Profile}
      ledger (the coverage-ledger pattern) and merge the exports into the
      report's [profile]. Profiling only samples counters at span
      boundaries — it never changes what the campaign computes.
    - [on_progress]: called by the merge owner once before any shard runs
      and again after every merged (or quarantined) shard, with a snapshot
      of already-merged state — the live-HUD hook. The callback runs on the
      calling domain, must not raise, and observes the campaign without
      perturbing it: a run with a callback produces byte-identical reports
      and telemetry to one without.

    Raises [Failure] if any shard raises a non-injected exception (after
    merging and checkpointing the shards that did finish). *)

val parallel_map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** Order-preserving map over a {!Pool} ([jobs] <= 1 degrades to
    [List.map]); the first element in list order whose [f] raised raises.
    [f] must be safe to call from any domain. Used by the experiment
    harnesses to fan out independent campaign runs. *)
