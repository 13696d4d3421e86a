(** Algorithm 1: LLM-assisted generator construction with self-correction.

    For each theory: (1) prompt the model to summarize a CFG from the
    documentation — simulated as the ground-truth grammar perturbed by the
    profile's omission/hallucination noise; (2) prompt it to implement a
    generator — simulated as runtime-flaw injection scaled by the theory's
    difficulty; (3) iterate the sample-validate-distill-refine loop
    (sample_num = 20, max_iter = 10) until all samples parse or the budget is
    exhausted, keeping the best version seen. *)

open Theories

type report = {
  theory_key : string;
  iterations : int;  (** refinement rounds performed (0 if initially clean) *)
  sample_num : int;
  initial_valid : int;  (** valid samples out of [sample_num] at iteration 0 *)
  final_valid : int;
  history : (int * int) list;  (** (iteration, valid count) including iter 0 *)
  llm_calls : int;  (** queries attributable to this theory's construction *)
  llm_tokens : int;  (** the tokens those queries cost *)
}

val sample_num : int
val max_iter : int

val initial_generator :
  client:Llm_sim.Client.t -> Theory.info -> Generator.t
(** Phase 1+2: noisy summarization and synthesis (two LLM queries). *)

val validate_samples :
  solvers:Solver.Engine.t list ->
  rng:O4a_util.Rng.t ->
  Generator.t ->
  int * string list
(** Generate [sample_num] samples; return (valid count, error messages of
    the invalid ones). A sample is valid if {e at least one} solver parses
    and sort-checks it (paper, Algorithm 1 line 20). *)

val self_correct :
  ?max_iter:int ->
  client:Llm_sim.Client.t ->
  solvers:Solver.Engine.t list ->
  Generator.t ->
  Generator.t * report
(** The correction loop; returns the best generator and its report. *)

val construct :
  ?max_iter:int ->
  client:Llm_sim.Client.t ->
  solvers:Solver.Engine.t list ->
  Theory.info ->
  Generator.t * report
