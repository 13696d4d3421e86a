(** Campaign checkpoints: everything needed to resume an interrupted sharded
    campaign and land on the exact same final report.

    A checkpoint records the campaign's RNG provenance (seed, budget, shard
    size — together these determine the shard plan and every shard's RNG),
    the results of every completed shard, and the coverage merged from those
    shards. {!Orchestrator.run} refuses to resume from a checkpoint whose
    provenance differs from the requested campaign, because the remaining
    shards would then not line up with the completed ones. *)

type shard_result = {
  shard : int;
  tests : int;
  parse_ok : int;
  solved : int;
  bytes_total : int;
  findings : Once4all.Dedup.found list;  (** oldest first, as the shard found them *)
}

(** A shard that exhausted its chaos retries: its results were discarded and
    its tick range is reported instead of merged. Site names are
    {!Faults.site_name} strings, distinct, sorted. *)
type quarantine = {
  q_shard : int;
  q_first_tick : int;
  q_ticks : int;
  q_attempts : int;  (** attempts made before giving up *)
  q_sites : string list;  (** fault sites that fired across those attempts *)
}

(** Which observability artifacts the campaign that wrote the checkpoint
    was recording — what a resume re-arms (given the matching flags) versus
    what it would start cold. [checkpoint info] prints these. *)
type artifacts = {
  a_telemetry : bool;  (** a JSONL telemetry sink was attached *)
  a_trace : bool;  (** provenance tracing / repro bundles were on *)
  a_analytics : bool;  (** the analytics series below is being extended *)
}

val no_artifacts : artifacts

type t = {
  seed : int;
  budget : int;
  shard_size : int;
  extra : (string * string) list;
      (** opaque caller provenance (the CLI stores its seed/profile flags
          here so [resume] can rebuild the same generator pool) *)
  completed : shard_result list;
  quarantined : quarantine list;
      (** shards the supervision layer gave up on; resume skips them too *)
  coverage : (string * int) list;
      (** merged {!O4a_coverage.Coverage.export} of the completed shards *)
  health : O4a_health.Health.entry list;
      (** merged {!O4a_health.Health.export} of the completed shards; empty
          when loaded from a pre-v3 checkpoint *)
  analytics : O4a_analytics.Analytics.t;
      (** merged campaign time series of the completed shards; empty when
          loaded from a pre-v4 checkpoint *)
  artifacts : artifacts;  (** all-false when loaded from a pre-v4 file *)
}

val codec : t O4a_telemetry.Json.Codec.t
(** Writes format version 4 and reads versions 1-4: members a later version
    added decode to the defaults documented on {!t} when absent. Decoding
    also checks the shard lists against the checkpoint's own plan: [budget]
    and [shard_size] must be positive, and every completed or quarantined
    index must lie in the plan and appear once across both lists. *)

val matches :
  path:string -> seed:int -> budget:int -> shard_size:int -> t ->
  (unit, string) result
(** [Ok] when the checkpoint at [path] was written for this
    [(seed, budget, shard_size)]; otherwise the message naming both triples
    that [resume], [resume-job] and a restarted server print. *)

val remaining : t option -> Shard.t list -> Shard.t list
(** The shards of a plan that the checkpoint (if any) leaves to run: those
    neither completed nor quarantined, in plan order. *)

val shard_result_codec : shard_result O4a_telemetry.Json.Codec.t
(** The per-shard codec on its own: the distributed campaign fabric ships a
    remote worker's shard result over the wire in exactly the encoding the
    checkpoint persists, so the two can never drift. *)

val save : path:string -> t -> unit
(** Atomic: writes [path ^ ".tmp"] then renames over [path], so an interrupt
    mid-write never corrupts the previous checkpoint. *)

(** Why a checkpoint file could not be loaded. [Corrupt] means the bytes are
    not one well-formed JSON document — the classic torn/truncated write —
    and names the byte offset where parsing gave up; [Invalid] means the JSON
    is well-formed but not a checkpoint this version understands. *)
type load_error =
  | Io of string
  | Corrupt of { offset : int; reason : string }
  | Invalid of string

val load_error_to_string : path:string -> load_error -> string
(** One clean printable diagnostic (may span two lines for [Corrupt], where
    it also suggests a remedy). *)

val load : path:string -> (t, load_error) result

type info = {
  i_version : int;
      (** the version the file was written at — {!load} upgrades older
          versions transparently, [inspect] preserves the original *)
  i_checkpoint : t;
}

val inspect : path:string -> (info, load_error) result
(** Like {!load} but also reports the on-disk format version — the
    [checkpoint info] subcommand's entry point. Shares {!load}'s typed
    diagnostics, so a torn or invalid file gets the same printable
    explanation instead of an exception. *)
