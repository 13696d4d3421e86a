(** Per-formula provenance tracing: the campaign's flight recorder.

    Every synthesized formula owns a {e trace} — the ordered list of typed
    stage records the mutation pipeline appended while producing and judging
    it: which seed was picked (and its hash), where the skeleton holes were
    cut, which generator filled each hole, which variable adaptations were
    applied, and what every solver answered. Trace identity is a pure
    function of the campaign seed and the formula's campaign tick ({!id_of}),
    so a [--jobs N] campaign produces byte-identical traces to [--jobs 1].

    Traces deliberately contain {e no wall-clock time}: the per-solver
    "timing" is the engine's deterministic fuel accounting (steps, decisions,
    propagations — the repository's 10-second-timeout analog), which is what
    keeps traces reproducible across runs and worker counts. Wall-clock stage
    latency stays in the telemetry layer.

    A per-shard {!Recorder} holds only the trace in progress; finishing a
    trace drops it. An oracle violation {e promotes} the current trace —
    captures it in full, together with the formula text and the finding —
    so the orchestrator can write a self-contained repro bundle ({!Bundle})
    at the merge barrier. *)

(** One pipeline stage's provenance, in chronological order within a trace.
    [Adapted] records precede the [Hole_filled] record of the hole they were
    applied to (adaptation happens while the hole's term is built). *)
type record =
  | Seed_selected of { hash : string; bytes : int; size : int }
      (** the mutation base: MD5 of its printed SMT-LIB text, its byte
          length, and its node count ({!Smtlib.Script.size}) *)
  | Skeletonized of { mode : string; holes : int }
      (** ["boolean"] or ["typed"]; holes cut across the whole script *)
  | Skeleton_hole of { hole : int; path : string; sort : string option }
      (** one placeholder: its number, its dotted term path within the
          assertion, and (typed mode) the sort the hole expects *)
  | Hole_filled of { hole : int; theory : string; sort : string option; raw : bool }
      (** which generator theory filled the hole; [raw] when the generator
          output failed to parse and was spliced textually *)
  | Adapted of { substitutions : (string * string) list }
      (** sort-aware variable adaptation: generated name -> seed name *)
  | Direct_generated of { terms : int; theories : string list }
      (** skeleton-free generation (the w/oS ablation path) *)
  | Synthesized of { bytes : int; parse_ok : bool; theories : string list }
      (** the assembled formula *)
  | Parse_rejected of { error : string }
      (** the oracle could not parse the formula at all *)
  | Solver_run of {
      solver : string;
      commit : int;
      verdict : string;
      steps : int;
      decisions : int;
      propagations : int;
    }  (** one engine's verdict plus its deterministic fuel accounting *)
  | Oracle_verdict of {
      kind : string option;
      solver : string option;
      signature : string option;
      bug_id : string option;
      theory : string option;
      mode : string option;
          (** oracle mode ({!Once4all.Oracle.mode_to_string}); [None] in
              traces recorded before oracle modes existed *)
    }  (** the differential oracle's conclusion ([kind = None]: no finding) *)
  | Fault_injected of { site : string }
      (** a chaos-testing fault fired at the named site while this formula was
          in flight ({!Faults.site_name}); marks the trace as tainted so repro
          bundles can never pass injected chaos off as a real finding *)

type t = {
  id : string;
  campaign_seed : int;
  tick : int;  (** global campaign tick (shard [first_tick] + local test) *)
  records : record list;  (** chronological *)
}

(** The finding that promoted a trace, flattened to strings so bundles do not
    depend on the solver or oracle layers. *)
type finding_info = {
  kind : string;
  solver : string;  (** solver tag, ["zeal"] / ["cove"] *)
  solver_name : string;  (** versioned name, e.g. ["cove-trunk"] *)
  signature : string;  (** the oracle's finding signature *)
  bug_id : string option;  (** ground-truth bug-registry tag, if attributed *)
  theory : string;
  dedup_key : string;  (** {!Once4all.Dedup.signature_to_string} cluster key *)
  mode : string;
      (** oracle mode the finding was produced under (["differential"] or
          ["degraded:..."]); bundles written before oracle modes existed
          decode as ["differential"] *)
}

type promoted = {
  trace : t;
  source : string;  (** the exact SMT-LIB text that triggered the finding *)
  finding : finding_info;
}

val id_of : seed:int -> tick:int -> string
(** Deterministic trace id, e.g. ["t000123-9f3a2b1c"]: the zero-padded tick
    plus a 32-bit hash of [(seed, tick)]. Lexicographic order of ids from one
    campaign is campaign tick order. *)

val solvers_run : t -> (string * int) list
(** The [(solver name, commit)] pairs of the trace's [Solver_run] records,
    in run order. *)

(** {1 JSON codecs} (bundle files and the wire) *)

val record_codec : record O4a_telemetry.Json.Codec.t
(** Tagged by a ["stage"] member. Nullable members ([sort], the verdict's
    fields) decode an absent member as [None]. *)

val codec : t O4a_telemetry.Json.Codec.t
val finding_codec : finding_info O4a_telemetry.Json.Codec.t
val promoted_codec : promoted O4a_telemetry.Json.Codec.t

val render : t -> string
(** Human-readable stage tree: one line per record, holes and adaptations
    grouped under their fill, solver runs with their fuel accounting. What
    [once4all trace show] prints. *)

(** {1 The flight recorder} *)

module Recorder : sig
  type t
  (** A per-shard recorder: the in-flight trace and the promoted traces
      awaiting bundle writing. Not thread-safe — each shard attempt uses its
      own, on one domain. *)

  val disabled : t
  (** Records nothing; every hook short-circuits on one branch. *)

  val create : seed:int -> t
  (** A live recorder for the campaign identified by [seed] (trace ids derive
      from it). *)

  val enabled : t -> bool

  val start : t -> tick:int -> unit
  (** Open the trace for the formula at campaign [tick], discarding any
      unfinished trace. *)

  val active : t -> bool
  (** A trace is open — use to guard costly payload construction. *)

  val record : t -> record -> unit
  (** Append to the open trace; no-op when disabled or no trace is open. *)

  val promote : t -> source:string -> finding:finding_info -> unit
  (** Capture the open trace in full (it stays open; {!finish} it as usual). *)

  val finish : t -> unit
  (** Close the open trace; unless it was promoted, it is gone. *)

  val promoted : t -> promoted list
  (** Promoted traces in promotion (= campaign tick) order. *)

  (** {2 The ambient recorder}

      Domain-local, initially {!disabled} — mirrors
      {!O4a_telemetry.Telemetry.global}. Deep pipeline stages append through
      it (see {!note}) so their signatures stay trace-free. *)

  val ambient : unit -> t

  val using : t -> (unit -> 'a) -> 'a
  (** Install [t] as the calling domain's ambient recorder for the call,
      restoring the previous recorder afterwards (even on exceptions). *)
end

val note : record -> unit
(** [record] on the ambient recorder. *)

val noting : unit -> bool
(** The ambient recorder has an open trace — guard for callers whose record
    payload is expensive to build (hashing, printing). *)
