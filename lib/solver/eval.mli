(** Total, bounded evaluation of terms to {!Value.t}, by compiled code.

    The evaluator implements SMT-LIB semantics with the bounded-domain
    conventions of DESIGN.md: quantifiers expand over {!Domain.enumerate};
    underspecified-but-total operators (division by zero, selector
    misapplication, out-of-range accesses) return fixed defaults so both
    solvers agree in the absence of injected bugs.

    A term is compiled once per context into a closure over the context's
    slot array ({!state.vals}). Names, operators and coverage points are
    resolved at compile time; running the code ticks fuel, counts coverage
    and fails exactly where a tree walk of the term would (DESIGN.md,
    "Compiled evaluator"). Coverage is counted per context, by (operator,
    line), and reported in one batch by {!flush}. *)

open Smtlib

type state = {
  mutable steps : int;  (** fuel spent so far *)
  max_steps : int;
  mutable vals : Value.t array;
      (** the slots compiled code reads; may be replaced by a larger copy
          while code runs, so read it through the record *)
  mutable counts : int array;  (** hits per coverage counter (see {!point}) *)
}

type ctx
(** One script's evaluation context: its declarations, one fuel budget, its
    slots and its coverage counters. *)

exception Out_of_fuel
(** Raised when [steps] exceeds [max_steps]; the caller reports
    [Resource_limit] (our analog of a solver timeout). *)

exception Eval_failure of string
(** Raised on genuinely ill-sorted input that slipped past checking; the
    front end converts it into an error result. *)

val make_ctx :
  ?config:Domain.config ->
  ?max_steps:int ->
  ?fun_defaults:(string * Value.t) list ->
  Script.t ->
  ctx
(** [fun_defaults] are the constant interpretations of non-nullary
    uninterpreted functions; the first binding of a name wins. *)

val state : ctx -> state

(** {1 Compiled code} *)

val bind : ctx -> string -> unit
(** The next slot, named [name] and in scope (innermost) for terms compiled
    after. A context made without [fun_defaults] numbers its slots 0, 1, ...
    in {!state.vals}, in the order they are bound. *)

val bind_fun : ctx -> string -> unit
(** The next slot, holding the constant interpretation of the n-ary
    uninterpreted function [name] for terms compiled after. *)

val compile_bool : ctx -> Term.t -> unit -> bool
(** [compile_bool ctx term] resolves [term] against the names bound so far
    and returns code that evaluates it, as a boolean, under the slots'
    current values. Compiling never raises; failures happen when the code
    runs. *)

val point : ctx -> string -> int -> int
(** The counter of coverage point [(key, line)] in {!state.counts}. *)

val recount : ctx -> steps:int -> (unit -> unit) -> (int * int) list
(** [recount ctx ~steps f] runs [f] from step count [steps] on fresh
    counters and returns the [(counter, hits)] it counted; the context's own
    step count and counters are restored afterwards. *)

val flush : ctx -> (string -> int -> int -> unit) -> unit
(** [flush ctx cov] reports every counter with hits as [cov key line n]. *)

(** {1 One-shot evaluation} *)

val eval : ctx -> (string * Value.t) list -> Term.t -> Value.t
(** [eval ctx env term] compiles [term] with [env] as its whole scope (the
    first binding of a name wins) and runs it once. *)

val eval_bool : ctx -> (string * Value.t) list -> Term.t -> bool
(** Like {!eval} but insists on a boolean result. *)

(** {1 Arithmetic helpers exposed for tests} *)

val ediv : int -> int -> int
(** Euclidean division with [ediv x 0 = 0]. *)

val emod : int -> int -> int
(** Euclidean remainder with [emod x 0 = x]. *)

val to_signed : int -> int -> int
(** [to_signed width v] reads an unsigned bit-pattern as two's complement. *)
