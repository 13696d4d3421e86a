(** Rank (sort-signature) checking for every theory operator the system
    supports: the SMT-LIB standard theories (Core, Ints, Reals, Reals_Ints,
    FixedSizeBitVectors, Strings, ArraysEx) and the solver-specific
    extensions the paper targets (Seq, Sets/Relations, Bags, FiniteFields).

    Error messages mimic real solver diagnostics — they are surfaced to the
    self-correction loop. *)

open Smtlib

val app : string -> Sort.t list -> (Sort.t, string) result
(** Result sort of a plain application, or [Error message]. Unknown operator
    names yield an error mentioning the symbol. The name picks one family by
    a [match] on the core and arithmetic names, then by prefix, in this
    order: core; arithmetic; [bv*], [concat] and [ubv_to_int]; [str.*] and
    [re.*]; [select] and [store]; [seq.*]; [set.*], [rel.*] and [tuple];
    [bag*] ([bag] is the constructor); [ff.*]. *)

val indexed : string -> Term.index list -> Sort.t list -> (Sort.t, string) result
(** Indexed applications: [(_ extract i j)], [(_ divisible n)],
    [(_ int2bv w)], [(_ re.loop i j)], [(_ bvN w)], [(_ tuple.select i)],
    [(_ is ctor)] is handled by the type checker (needs the datatype env). *)

val qual : string -> Sort.t -> Sort.t list -> (Sort.t, string) result
(** Qualified (["as"]) identifiers: [seq.empty], [set.empty], [set.universe],
    [bag.empty], [const] (arrays), and tuple projections. *)

val nullary : string -> Sort.t option
(** Theory constants usable bare: [re.none], [re.all], [re.allchar],
    [tuple.unit]. *)

val is_known_op : string -> bool
(** Whether the symbol is any theory operator (plain, indexed or qualified
    base name). Used to distinguish "undeclared variable" from "wrong rank"
    diagnostics and by the mutation baselines. *)
