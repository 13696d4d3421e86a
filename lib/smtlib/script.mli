(** Whole SMT-LIB scripts and the symbol information they declare. *)

type t = Command.t list

type fun_decl = {
  name : string;
  arg_sorts : Sort.t list;
  result_sort : Sort.t;
}

val declared_funs : t -> fun_decl list
(** All [declare-fun]/[declare-const]/[define-fun] symbols, plus datatype
    constructors, selectors and testers, in declaration order. *)

val declared_consts : t -> (string * Sort.t) list
(** Zero-arity declared symbols (the fuzzer's variable pool). *)

val declared_datatypes : t -> Command.datatype_decl list

val assertions : t -> Term.t list

val map_assertions : (Term.t -> Term.t) -> t -> t

val replace_assertions : t -> Term.t list -> t
(** Keep every non-assert command in place, substituting the assert bodies in
    order; extra new assertions are inserted before the first [check-sat]. *)

val add_declarations : t -> Command.t list -> t
(** Insert declarations after the existing declaration prefix (before the
    first [assert]/[check-sat]). Duplicate symbol names are skipped. *)

val symbol_names : t -> string list
(** Every symbol name the script declares or defines. *)

val fresh_name : t -> string -> string
(** [fresh_name script base] finds a name not declared in [script], by
    suffixing [base] with an integer if needed. *)

val has_check_sat : t -> bool

val theories_used : t -> string list
(** Heuristic theory tags appearing in the script (by operator and sort
    usage): e.g. ["ints"; "strings"; "sets"], in first-seen order
    (declarations, then assertions). Used for bug triage grouping and, by
    the oracle, for a finding's theory. *)

val size : t -> int
(** Total number of term nodes across assertions. *)
