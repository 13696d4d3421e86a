(** The wire codec for complete shard outcomes — what a remote worker
    streams back to the coordinator over a lease.

    Everything a {!Orchestrator.Merge.t} absorbs must round-trip losslessly:
    the merged report, repro bundles, telemetry, and analytics are
    byte-compared against the standalone run, so a codec that dropped so
    much as a histogram bucket would break the identity. The outcome only
    composes the codecs that live next to their types (checkpoint shard
    results, telemetry events, lossless metric entries, traces, health,
    profile, and analytics exports); it defines no encoding of its own
    beyond the outcome's tag and the attempt logs. *)

val outcome_codec : Orchestrator.shard_outcome O4a_telemetry.Json.Codec.t

val outcome_to_json : Orchestrator.shard_outcome -> O4a_telemetry.Json.t
val outcome_of_json :
  O4a_telemetry.Json.t -> (Orchestrator.shard_outcome, string) result
(** [outcome_codec]'s two halves. *)
