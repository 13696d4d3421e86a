(** A campaign submission: everything that determines a campaign's identity
    and outputs, as one JSON-serializable record.

    Every venue builds its campaign from a spec through the functions here —
    [fuzz] and [resume] through {!prepare}, the server's jobs and remote
    workers through {!prepare} and {!env} — so a spec names {e one}
    campaign: same generators, same seeds, same shard plan, same fault plan,
    same breaker config, same checkpoint provenance ({!extra}). That sharing
    is what makes a server-run campaign byte-identical to the standalone
    run, and their checkpoints interchangeable: a served job's checkpoint
    resumes with [once4all resume]. *)

type t = {
  name : string;  (** job identifier: 1-64 chars of [a-zA-Z0-9._-] *)
  seed : int;  (** the CLI-facing seed; fuzzing itself uses {!fuzz_seed} *)
  budget : int;
  shard_size : int;
  quota : int;
      (** fair-share weight: shards this job may run per scheduling round
          when the server pool is contended (>= 1) *)
  profile : string;  (** LLM profile name, e.g. ["gpt-4"] *)
  use_skeletons : bool;  (** [false] is the w/oS ablation *)
  trace : bool;  (** record provenance traces and write repro bundles *)
  telemetry : bool;  (** write a JSONL event log next to the job *)
  chaos_profile : string;  (** fault-injection profile name, ["off"] = none *)
  chaos_seed : int;
  chaos_rate : float;
  breakers : bool;
  breaker_window : int;
  breaker_threshold : int;
}

val default : name:string -> t
(** The CLI [fuzz] defaults (seed 42, budget 2000, breakers on, chaos off). *)

val validate : t -> (unit, string) result
(** Reject malformed specs with a message fit for the wire: bad name, non-
    positive numbers, unknown LLM or chaos profile. *)

val llm_profile : t -> Llm_sim.Profile.t
(** Resolve [profile]. Raises [Invalid_argument] on unknown names — call
    {!validate} first. *)

val chaos : t -> O4a_faults.Faults.plan option
(** The fault plan, [None] when the profile is ["off"] (or unknown). *)

val health : t -> O4a_health.Health.config option
(** The breaker config, [None] when [breakers] is false. *)

val config : t -> Once4all.Fuzz.config

val fuzz_seed : t -> int
(** [seed + 1] — the orchestrator seed, matching the CLI's convention (the
    construction phase consumes [seed] itself). *)

(** {1 Building the campaign} *)

type campaign = {
  generators : Gensynth.Generator.t list;
  seeds : Smtlib.Script.t list;
      (** the seed corpus minus the formulas either trunk solver still trips
          on — the paper's data-leakage guard *)
}

val prepare : t -> campaign
(** Run Algorithm 1 (generator construction) for [seed] and [profile], then
    keep the seeds both trunk solvers accept. Deterministic: every venue
    that prepares the same spec fuzzes with the same campaign.
    Call {!validate} first. *)

val env : t -> campaign -> Orchestrator.exec_env
(** The shard executor for the spec: its fuzz config, chaos plan, breaker
    config, {!fuzz_seed} and LLM profile label. It always records telemetry,
    because served jobs stream it to subscribers; tracing follows [trace].
    A shard it executes merges exactly like one [fuzz] executes. *)

val extra : t -> (string * string) list
(** The checkpoint provenance record. One definition for both entry points,
    so checkpoints written by either can be resumed by either. *)

val of_checkpoint : name:string -> Orchestrator.Checkpoint.t -> t
(** Rebuild the spec a checkpoint was written under from its {!extra}
    record — the resume path's inverse of {!extra}. [quota], [trace], and
    [telemetry] take defaults: they are runtime choices, not campaign
    identity. *)

val codec : t O4a_telemetry.Json.Codec.t
(** Only ["name"] is required: every other absent member takes its
    {!default}. A member that is present must have the right type
    (["budget":"500"] fails with [job spec: field "budget": expected an
    int]). Decoded specs are {!validate}d. *)
