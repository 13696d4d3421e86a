(** Concrete values computed by the solvers' evaluators and reported in
    models. Values carry enough sort information to be re-printed as
    SMT-LIB terms (for get-model output) and re-parsed by the oracle. *)

open Smtlib

type t =
  | Bool of bool
  | Int of int
  | Real of int * int  (** normalized rational p/q, q > 0 *)
  | Bv of { width : int; value : int }
  | Str of string
  | Ff of { order : int; value : int }  (** 0 <= value < order *)
  | Seq of Sort.t * t list  (** element sort + elements *)
  | Set of Sort.t * t list  (** element sort + sorted distinct elements *)
  | Bag of Sort.t * (t * int) list  (** sorted elements with multiplicity > 0 *)
  | Arr of { idx : Sort.t; elt : Sort.t; default : t; entries : (t * t) list }
      (** finite exceptions over a constant default; entries sorted by index *)
  | Tuple of t list
  | Dt of string * string * t list  (** datatype name, constructor, fields *)
  | Un of string * int  (** k-th element of an uninterpreted sort *)
  | Re of Regex.t  (** intermediate RegLan value *)

(** {1 The normal form}

    Every collection value the solvers build is in normal form, under
    {!compare}:
    - a [Set]'s elements are strictly increasing;
    - a [Bag]'s keys are strictly increasing and every count is positive;
    - an [Arr]'s entries are strictly increasing by index, and no entry's
      value equals the default.

    {!mk_set}, {!mk_bag}, {!Domain.enumerate} and the evaluator's operators
    all produce it, and the operators rely on it: they merge and filter
    their normal operands instead of sorting them again.

    [compare] equates values that differ structurally (a [Re] compares by
    size), so which of two equal values a collection keeps is visible only
    to [=]. The rule is the one a stable
    sort of the operands' concatenation followed by keeping the first of
    each run of equal elements gives: the left operand's element, and for a
    bag the left operand's key. [store] keeps an index that is already
    stored: the first write wins. SMT-LIB's [store] overwrites, so that is
    a known defect of the shared semantics, kept because fixing it moves
    verdicts (ROADMAP item 10). *)

val compare : t -> t -> int
(** Total order used to normalize sets/bags; [Re] values compare by size. *)

val equal : t -> t -> bool

val sort_of : t -> Sort.t

val to_term_string : t -> string
(** SMT-LIB surface syntax for the value (what get-model prints). *)

(** {1 Rational helpers} *)

val mk_real : int -> int -> t
(** Normalized rational; raises [Invalid_argument] on zero denominator. *)

val mk_ff : order:int -> int -> t
(** Canonical residue. *)

val mk_bv : width:int -> int -> t
(** Truncated to width. *)

val of_int : int -> t
(** [Int n]. Values in [-256, 255] come from one table built at start-up,
    so computing them allocates nothing; the table is immutable and shared
    by every domain. *)

val normal_elems : t list -> t list
(** The elements sorted and without repeats: the first of equal elements
    stays. A list that is already strictly increasing is returned as is. *)

val mk_set : Sort.t -> t list -> t
(** [Set] of {!normal_elems}. *)

val mk_bag : Sort.t -> (t * int) list -> t
(** Drops non-positive multiplicities, sorts by key, and merges equal keys
    into the last of them with the total count. Entries already in normal
    form are returned as is. *)
