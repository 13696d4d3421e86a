(** List helpers shared across the code base. *)

val take : int -> 'a list -> 'a list
(** First [n] elements (all of them if the list is shorter). *)

val drop : int -> 'a list -> 'a list

val last : 'a list -> 'a
(** Raises [Invalid_argument] on the empty list. *)

val init_segment : 'a list -> 'a list
(** All but the last element. Raises [Invalid_argument] on the empty list. *)

val dedup : ?eq:('a -> 'a -> bool) -> 'a list -> 'a list
(** Stable deduplication, keeping the first occurrence. *)

val group_by : ('a -> 'k) -> 'a list -> ('k * 'a list) list
(** Groups by key; group order follows first appearance, members keep order.
    Linear in the list: groups are indexed by a [Hashtbl], so keys compare
    structurally. *)

val count_by : ('a -> 'k) -> 'a list -> ('k * int) list

val find_index : ('a -> bool) -> 'a list -> int option

val replace_nth : int -> 'a -> 'a list -> 'a list
(** [replace_nth i x xs] substitutes position [i]; out-of-range is identity. *)

val remove_nth : int -> 'a list -> 'a list

val intersperse : 'a -> 'a list -> 'a list

val sum : int list -> int

val max_by : ('a -> int) -> 'a list -> 'a option

val cartesian : 'a list -> 'b list -> ('a * 'b) list

val range : int -> int -> int list
(** [range lo hi] is [\[lo; ...; hi\]] inclusive; empty if [hi < lo]. *)
