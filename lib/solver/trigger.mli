(** Small combinator language for the structural predicates that decide
    whether a formula triggers an injected bug. Triggers deliberately mirror
    the flavor of real bug conditions — specific operator combinations under
    specific structure (cf. Figure 1 of the paper: [seq.rev] + [seq.nth] of
    an empty sequence under an [exists]). *)

open Smtlib

type t = Script.t -> bool

val always : t
val never : t
val all_of : t list -> t
val any_of : t list -> t
val not_ : t -> t

val has_op : string -> t
(** Operator name appears anywhere (plain, indexed or qualified). *)

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
(** The operator occurs at least [n] times across assertions. *)

val has_div_by_zero : t
(** A [div], [mod] or [/] whose divisor is the literal 0. *)

val has_datatypes : t
