(** Term simplification.

    Zeal and Cove run {e different} rewrite pipelines — this is one of the
    places where the two solvers genuinely diverge in code paths (and hence
    coverage profiles), like Z3's and cvc5's rewriters do. Soundness bugs are
    injected at this layer by the bug database. *)

open Smtlib

type rule = {
  rule_name : string;
  apply : Term.t -> Term.t option;  (** [Some t'] when the rule fires *)
}

val shared_rules : rule list
(** Rules both pipelines include. *)

val zeal_rules : rule list
(** Aggressive constant folding and flattening (Z3-style). *)

val cove_rules : rule list
(** Normalization-oriented pipeline with extension-theory rules (cvc5-style). *)

val simplify : rules:rule list -> fired:(string -> unit) -> Term.t -> Term.t
(** Bottom-up rewriting to a fixpoint (or 4 passes, whichever first). [fired]
    is called with the rule name each time a rule rewrites a node — the
    solver front ends use it for coverage accounting. *)

val rule_names : rule list -> string list
