(** Deterministic campaign time series, sampled at shard boundaries.

    Every per-tick observable the runtime already tracks in aggregate
    (coverage, findings, validity, solver consults and fuel) is bucketed
    here per shard — one {!sample} per shard index — following the
    coverage-ledger pattern: a fresh {!ledger} per shard attempt, filled by
    the shard's fuzz loop, exported at the shard boundary, and merged with a
    commutative {!merge} by the single merge owner. Because a sample is a
    pure function of (campaign seed, shard index), the merged series — and
    everything derived from it: CSV, JSON, sparklines, plateau events — is
    byte-identical at any [--jobs N].

    Cumulative curves (coverage points, dedup clusters) are *derived* at
    analysis time by walking buckets in index order ({!series}), so they
    need no cross-shard state during the campaign and commute under
    merge. *)

(** One shard-sized bucket of the campaign time line. [cov_points] and
    [clusters] are the sorted distinct coverage-point and dedup-cluster
    identities observed inside the bucket; cumulative counts come from
    {!series}. *)
type sample = {
  bucket : int;  (** shard index *)
  first_tick : int;
  ticks : int;  (** planned ticks in this bucket *)
  tests : int;
  parse_ok : int;
  solved : int;
  findings : int;
  consults : int;  (** solver queries issued in this bucket *)
  fuel : int;  (** solver fuel burned in this bucket *)
  cov_points : string list;
  clusters : string list;
}

(** One row of the yield-attribution table: tests, valid parses, and
    findings credited to a (theory, generator profile, seed cluster)
    combination — the reward signal ROADMAP item 4's bandit will consume. *)
type yield_row = {
  y_theory : string;
  y_profile : string;  (** LLM generator profile the campaign ran with *)
  y_seed_cluster : string;  (** digest prefix of the originating seed *)
  y_tests : int;
  y_parse_ok : int;
  y_findings : int;
}

type t = {
  samples : sample list;  (** sorted by bucket *)
  yield : yield_row list;  (** sorted by (theory, profile, seed cluster) *)
}

val empty : t

val merge : t -> t -> t
(** Commutative, associative, [empty]-identity. Samples unify by bucket
    (counters sum, point/cluster sets union); yield rows unify by key
    (counters sum). Output is canonical: sorted, deduplicated. *)

(** {1 Incremental merge}

    What a long-lived merge owner keeps instead of a merged {!t}: samples
    keyed by bucket and yield rows by key, so that {!add} costs the size
    of what it adds, not of what was merged before. [merge a b] is
    [of_acc (add (add acc_empty a) b)]. *)

type acc

val acc_empty : acc

val add : acc -> t -> acc
(** Merge [t] in, canonicalising each of its samples once. *)

val of_acc : acc -> t
(** The canonical merged series, in time linear in its size. *)

val sample : acc -> int -> sample option
(** The merged sample of one bucket. *)

val total_tests : t -> int
val total_findings : t -> int

val codec : t O4a_telemetry.Json.Codec.t
(** Canonical rendering — checkpoints, [analyze --json], and the server
    [metrics] reply all encode with this, so their bytes compare equal.
    Decoding re-canonicalises (via {!merge}). *)

(** {1 Derived series} *)

(** A sample joined with the cumulative curves at its bucket. *)
type point = {
  p_bucket : int;
  p_first_tick : int;
  p_ticks : int;
  p_tests : int;
  p_parse_ok : int;
  p_solved : int;
  p_findings : int;
  p_consults : int;
  p_fuel : int;
  p_new_cov : int;  (** coverage points first seen in this bucket *)
  p_cum_cov : int;
  p_new_clusters : int;
  p_cum_clusters : int;
}

val series : t -> point list
(** Walk samples in bucket order, accumulating first-seen coverage points
    and dedup clusters. *)

(** {1 Saturation detection} *)

type plateau = {
  pl_series : string;  (** ["coverage"] or ["clusters"] *)
  pl_bucket : int;  (** bucket at which saturation was declared *)
  pl_tick : int;  (** end tick of that bucket *)
  pl_window : int;
  pl_value : int;  (** the cumulative value the curve flattened at *)
}

val default_window : int
(** 4 buckets. *)

val plateaus : ?window:int -> t -> plateau list
(** The first window of zero cumulative growth per series, if any: the
    earliest sample position [i >= window] whose cumulative value equals
    the value [window] samples earlier. Detection is positional over the
    sorted samples and monotone — once a prefix exhibits a plateau, every
    extension reports the same one — so the orchestrator can emit the
    event incrementally as the contiguous merged prefix grows, in an order
    independent of shard completion order. At most one plateau per
    series. *)

type tracker
(** {!plateaus}, incrementally: a mutable detector fed the samples of a
    growing series in bucket order. It hashes each sample's points once. *)

val tracker : window:int -> tracker

val advance : tracker -> sample list -> plateau list
(** Feed the next samples of the series, in bucket order. Returns the
    plateaus they complete, in {!plateaus}' order (coverage, then
    clusters). However a series is split into successive [advance] calls,
    each plateau {!plateaus} reports for it is returned once, by the first
    call whose samples exhibit it. *)

val plateau_event_name : string
(** ["analytics.plateau"] — the typed telemetry event the orchestrator
    emits (fields: [series], [bucket], [tick], [window], [value]). *)

(** {1 Rendering} *)

val sparkline : float list -> string
(** ASCII sparkline (levels [" .:-=+*#@"]), scaled to the list maximum. *)

val to_csv : t -> string
(** One row per bucket with every raw and cumulative column; byte-stable
    across [--jobs N]. *)

val to_prometheus : t -> string
(** Prometheus text-exposition snapshot of the campaign totals, plateau
    gauges, and the yield table. *)

(** {1 Recording ledger}

    The orchestrator makes a fresh ledger per shard attempt and hands it to
    {!Once4all.Fuzz.run_shard}, whose loop records each test's yield row
    and the solver consults and fuel the oracle reports for it; {!export}
    turns the ledger plus the shard's aggregate stats into a single-sample
    {!t} merged at the barrier. *)

type ledger

val make_ledger : profile:string -> unit -> ledger

val consult : ledger -> consults:int -> fuel:int -> unit
(** Count [consults] solver queries and the [fuel] they burned. *)

val record_test :
  ledger -> theories:string list -> seed_cluster:string -> parse_ok:bool ->
  found:bool -> unit
(** Credit one test to the yield table under each distinct theory in
    [theories] (["none"] when empty). *)

val export :
  ledger ->
  bucket:int -> first_tick:int -> ticks:int ->
  tests:int -> parse_ok:int -> solved:int -> findings:int ->
  cov_points:string list -> clusters:string list ->
  t
(** The ledger's bucket as a mergeable single-sample series. *)
