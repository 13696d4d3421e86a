(** The main fuzzing loop of Algorithm 2: select a seed, then repeatedly
    skeletonize → generate → adapt → synthesize → differential-test, carrying
    the synthesized formula into the next mutation round (ten rounds per
    seed, as in the paper's configuration). *)

open Smtlib

type schedule =
  | Uniform  (** the paper's configuration: generators chosen at random *)
  | Coverage_guided
      (** 5.3 extension: an epsilon-greedy bandit over generators, rewarded
          by the new coverage points each formula reaches *)

type config = {
  mutations_per_seed : int;  (** 10, per §3.4 *)
  keep_prob : float;  (** per-atom skeletonization probability *)
  adapt_prob : float;  (** variable-adaptation probability (0. disables) *)
  use_skeletons : bool;  (** [false] = the Once4All_w/oS ablation variant *)
  mixed_sorts : bool;  (** typed (non-Boolean) holes — the 5.3 extension *)
  schedule : schedule;
  direct_terms_max : int;  (** terms per formula in the w/oS variant *)
  max_steps : int;  (** solver fuel per query (the 10 s timeout analog) *)
  max_seed_growth : int;  (** reset to the seed when formulas exceed this size *)
}

val default_config : config

type stats = {
  tests : int;
  parse_ok : int;  (** synthesized formulas that fully parse *)
  solved : int;  (** tests where at least one solver answered sat/unsat *)
  bytes_total : int;
  findings : Dedup.found list;  (** bug-triggering formulas, oldest first *)
}

val stats_fields : stats -> (string * O4a_telemetry.Json.t) list
(** The event-field rendering of a stats record — the payload of each
    ["shard.end"] event, shared with the orchestrator, whose merged
    ["campaign.end"] event carries the same fields. *)

val run_shard :
  rng:O4a_util.Rng.t ->
  config:config ->
  telemetry:O4a_telemetry.Telemetry.t ->
  analytics:O4a_analytics.Analytics.ledger ->
  shard_index:int ->
  first_tick:int ->
  generators:Gensynth.Generator.t list ->
  seeds:Script.t list ->
  zeal:Solver.Engine.t ->
  cove:Solver.Engine.t ->
  budget:int ->
  stats
(** Run one shard of a campaign: [budget] tests, bracketed by
    ["shard.start"]/["shard.end"] events (carrying [shard_index] and
    [first_tick]); the orchestrator runs the shards and emits the single
    campaign pair itself. [telemetry] receives stage
    spans ([seed.select], [skeletonize], [generate], [synthesize], and the
    oracle's nested spans), the [fuzz.*] counters — whose snapshot mirrors
    the returned {!stats} — and one ["fuzz.test"] event per test. Callers
    supply an [rng] split for this shard (see {!O4a_util.Rng.split_indexed})
    so the shard's tick stream is a deterministic function of the campaign
    seed and the shard index alone. After each test the loop records into
    [analytics] the test's yield row (keyed by the digest of the seed it
    descends from) and the solver consults and fuel from its
    {!Oracle.outcome}. The coverage-guided schedule's bandit lives for one
    shard and reads the calling domain's ambient coverage ledger, so one
    shard is one feedback stream. Raises [Invalid_argument] on an empty
    [generators] or [seeds]. *)
