(** Algorithm 1 of a Once4All campaign: the one-time construction of the
    generator library, with the trunk solvers that validate it. Every
    campaign — the CLI's [fuzz] and [report], the server, the paper's
    tables and ablations, the examples — builds its generators here and
    runs Algorithm 2 on them through the sharded orchestrator
    ([Orchestrator.run]). *)

type t = {
  generators : Gensynth.Generator.t list;
  generator_reports : Gensynth.Synthesis.report list;
  client : Llm_sim.Client.t;  (** its call and token counts are the LLM cost *)
  zeal : Solver.Engine.t;
  cove : Solver.Engine.t;
}

val prepare :
  ?seed:int ->
  ?profile:Llm_sim.Profile.t ->
  ?theories:Theories.Theory.info list ->
  unit ->
  t
(** Build the generator library (the one-time LLM investment). Defaults:
    seed 42, gpt-4 profile, all theories; generators are validated against
    fresh trunk solvers. When the ambient telemetry handle is enabled, each
    theory's construction runs under a ["construct"] span and emits a
    ["gen.construct"] event with its validity trajectory and its LLM calls
    and tokens. *)
