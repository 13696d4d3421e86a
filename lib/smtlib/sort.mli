(** SMT-LIB sorts, covering the standard theories plus the solver-specific
    extensions targeted by the paper (cvc5's Seq, Set/Relation, Bag, and
    FiniteField sorts). *)

type t =
  | Bool
  | Int
  | Real
  | String_sort
  | Reglan  (** regular-language sort [RegLan] from the Strings theory *)
  | Bitvec of int  (** [(_ BitVec n)], n >= 1 *)
  | Finite_field of int  (** cvc5 [(_ FiniteField p)], p prime *)
  | Seq of t  (** cvc5 [(Seq s)] *)
  | Set of t  (** cvc5 [(Set s)] *)
  | Bag of t  (** cvc5 [(Bag s)] *)
  | Array of t * t  (** [(Array index element)] *)
  | Tuple of t list  (** cvc5 [(Tuple s1 ... sn)]; [Tuple []] is [UnitTuple] *)
  | Datatype of string  (** named user datatype *)
  | Uninterpreted of string  (** user-declared sort of arity 0 *)

val equal : t -> t -> bool

val compare : t -> t -> int

val to_string : t -> string
(** Concrete SMT-LIB syntax, e.g. ["(_ BitVec 8)"], ["(Seq Int)"]. *)

val is_numeric : t -> bool
(** Int or Real. *)

val is_container : t -> bool
(** Seq, Set, Bag or Array. *)

val element_sort : t -> t option
(** Element sort of a container ([Array] gives its element sort). *)

val size_estimate : t -> int
(** Rough structural size, used to bound recursive sort generation. *)
