(** String helpers. *)

val starts_with : prefix:string -> string -> bool
(** Compares in place, without a substring; true for the empty prefix. *)

val contains_sub : sub:string -> string -> bool
val split_lines : string -> string list
val split_on : char -> string -> string list
val join : string -> string list -> string

val indent : int -> string -> string
(** Prefix every line with [n] spaces. *)

val truncate_mid : int -> string -> string
(** Shorten to at most [n] chars, eliding the middle with ["..."]. *)

val escape_smt_string : string -> string
(** Escape for an SMT-LIB string literal body (double every quote char). *)
