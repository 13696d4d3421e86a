(** Solver models: assignments to declared constants plus constant
    interpretations for non-nullary uninterpreted functions. *)

open Smtlib

type t = {
  consts : (string * Value.t) list;
  fun_defaults : (string * Value.t) list;
      (** default result per n-ary uninterpreted function (constant
          interpretation — the bounded search strategy of DESIGN.md) *)
}

val empty : t

val lookup : t -> string -> Value.t option

val to_string : Script.t -> t -> string
(** get-model style output: a parenthesized list of define-fun bindings. *)

type check_result =
  | Holds
  | Fails of Term.t  (** the first assertion the model falsifies *)
  | Check_unknown of string  (** evaluation failed or ran out of fuel *)

val check :
  ?config:Domain.config -> ?max_steps:int -> Script.t -> t -> check_result
(** Evaluate every assertion of the script under the model with the
    {e reference} evaluator (no injected bugs) — the oracle's ground truth
    for classifying soundness vs invalid-model discrepancies. Each assertion
    is compiled once ({!Eval.eval_bool}), and all of them share one fuel
    budget. *)

val eval_terms :
  ?config:Domain.config ->
  ?max_steps:int ->
  Script.t ->
  t ->
  Term.t list ->
  (Term.t * string) list
(** get-value support: evaluate each term under the model (compiled once,
    {!Eval.eval}), rendering the result in SMT-LIB syntax (or an error
    marker). *)
