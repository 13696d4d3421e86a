(** Bounded model search: enumerate assignments to declared constants (and
    constant interpretations for n-ary uninterpreted functions) over the
    bounded domains, evaluating the assertions under each candidate.

    Both solvers use this engine but with different enumeration orders and
    rewrite pipelines, so they find different models and traverse different
    code paths. *)

open Smtlib

type outcome =
  | Sat of Model.t
  | Unsat
  | Resource_limit  (** fuel exhausted — the analog of a solver timeout *)
  | Unknown of string  (** the evaluator gave up for a reason other than fuel *)

type order = Ascending | Descending

val solve :
  ?config:Domain.config ->
  ?max_steps:int ->
  ?order:order ->
  ?cov:(string -> int -> int -> unit) ->
  ?bounds:(string * Propagate.interval) list ->
  ?steps_used:int ref ->
  Script.t ->
  outcome
(** [Unsat] means "no model within the bounded domains" — the shared bounded
    semantics of DESIGN.md. [Resource_limit] is returned on fuel exhaustion
    (the analog of a 10-second solver timeout). When given, [steps_used] receives
    the evaluator fuel this query consumed — the telemetry layer's
    "fuel per query" signal. [cov key line n] records [n] hits of a coverage
    point at once: the query counts its hits per point and reports them in
    one batch when it ends, however it ends.

    The assertions are compiled once per query ({!Eval.compile_bool}).
    Fuel and coverage are accounted as if every leaf of the search tree were
    evaluated, in order: the outcome, the model, [steps_used], the tick at
    which fuel runs out, and every coverage count are those of the plain
    depth-first walk. Leaves whose failure the assertions read before it
    already decide are charged (count × cost) instead of evaluated; see
    DESIGN.md, "Fuel-exact search". A slot whose domain is empty after its
    bound answers [Unsat] at once, spending no fuel. *)
