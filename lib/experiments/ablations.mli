(** Ablation benches for the design choices DESIGN.md calls out (beyond the
    paper's own w/oS variant):

    - {b A1}: sort-aware variable adaptation on/off/always — does replacing
      generated variables with seed variables matter for bug finding?
    - {b A2}: self-correction budget sweep (max_iter 0/1/3/10) — how much of
      the validity lift needs how many refinement rounds? *)

type adapt_row = {
  adapt_prob : float;
  findings : int;
  distinct_bugs : int;
  solved_pct : float;
}

type adapt_result = {
  rows : adapt_row list;
  text : string;
}

val adaptation : ?seed:int -> ?budget:int -> unit -> adapt_result

type iter_row = {
  max_iter : int;
  mean_initial_pct : float;
  mean_final_pct : float;
  llm_calls : int;
}

type iter_result = {
  rows : iter_row list;
  text : string;
}

val iterations : ?seed:int -> unit -> iter_result

(** {1 5.3-extension benches} *)

type mode_row = {
  mode : string;
  findings : int;
  distinct_bugs : int;
  cove_line_pct : float;
}

type mode_result = {
  rows : mode_row list;
  text : string;
}

val mixed_sorts : ?seed:int -> ?budget:int -> unit -> mode_result
(** Boolean-only holes (the paper's configuration) vs typed holes. *)

val scheduling : ?seed:int -> ?budget:int -> unit -> mode_result
(** Uniform generator choice vs the coverage-guided bandit. Both arms run as
    one shard of [budget] ticks, so the bandit learns from one feedback
    stream over the whole campaign. *)
