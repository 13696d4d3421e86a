(** Small combinator language for the structural predicates that decide
    whether a formula triggers an injected bug. Triggers deliberately mirror
    the flavor of real bug conditions — specific operator combinations under
    specific structure (cf. Figure 1 of the paper: [seq.rev] + [seq.nth] of
    an empty sequence under an [exists]).

    A trigger is data, evaluated by {!holds} against a per-formula {!index}
    built in one walk of the assertions, so every engine that runs a formula
    shares one walk (see {!Formula}). *)

open Smtlib

type t =
  | Always
  | Never
  | All_of of t list
  | Any_of of t list
  | Not of t
  | Has_op of string
  | Op_count_at_least of string * int
  | Has_exists
  | Has_forall
  | Has_let
  | Has_sort of (Sort.t -> bool)
  | Has_int_lit of (int -> bool)
  | Has_string_lit of (string -> bool)
  | Min_asserts of int
  | Min_term_depth of int
  | Has_div_by_zero
  | Has_datatypes

val always : t
val never : t
val all_of : t list -> t
val any_of : t list -> t
val not_ : t -> t

val has_op : string -> t
(** Operator name appears anywhere in an assertion: plain, indexed or
    qualified, or as a variable (nullary theory constants parse as
    variables). *)

val has_any_op : string list -> t

val has_exists : t
val has_forall : t
val has_quantifier : t
val has_let : t

val has_sort : (Sort.t -> bool) -> t
(** Some declared symbol or quantified binder uses a matching sort. *)

val has_int_lit : (int -> bool) -> t

val has_string_lit : (string -> bool) -> t

val min_asserts : int -> t

val min_term_depth : int -> t

val op_count_at_least : string -> int -> t
(** The name occurs at least [n] times across assertions, counted as
    {!has_op} matches. *)

val has_div_by_zero : t
(** A [div], [mod] or [/] whose divisor is the literal 0. *)

val has_datatypes : t

(** {1 Evaluation} *)

type index
(** What one walk of a script's assertions learns: the occurrences of every
    name {!has_op} matches, the rarity op set, the quantifier and [let]
    flags and the assertion count. Leaves that test literals, sorts or
    depth ({!has_sort}, {!has_int_lit}, {!has_string_lit},
    {!min_term_depth}, {!has_div_by_zero}) read the script it holds. *)

val index : Script.t -> index

val holds : t -> index -> bool

val op_set : index -> string list
(** The names applied in the assertions ([App], [Indexed_app], [Qual],
    [Qual_app]; no [Var]), deduplicated and sorted: what
    {!Bug_db.fires}'s rarity gate hashes. *)
