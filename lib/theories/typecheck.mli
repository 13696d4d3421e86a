(** Sort checking of terms and scripts against declared symbols and the
    theory signatures in {!Signature}. *)

open Smtlib

type env

val env_of_script : Script.t -> env
(** Collect declarations (functions, constants, datatypes, sorts) in order,
    with a table from each name to its first declaration: a name declared
    twice (a declared fun and a datatype tester [is-C] may share one)
    resolves to its first declaration. *)

val env_vars : env -> (string * Sort.t) list
(** Zero-arity symbols visible in the environment. *)

val add_var : string -> Sort.t -> env -> env
(** Extend with a local binding (used when checking open terms). *)

val infer :
  ?allow_placeholders:bool -> env -> Term.t -> (Sort.t, string) result
(** Sort of a term. Placeholder holes are an error unless
    [allow_placeholders] is set, in which case they check as [Bool] (the
    paper's generators only produce Boolean terms for holes). *)

val check_bool : ?allow_placeholders:bool -> env -> Term.t -> (unit, string) result

val check_script : ?allow_placeholders:bool -> Script.t -> (unit, string) result
(** Check each command in sequence: assertion bodies must be [Bool],
    [define-fun] bodies must match their declared result sort, duplicate
    declarations are rejected. Each command sees the declarations up to and
    including its own, looked up by name in a table, the first declaration
    of a name winning; a duplicate is found in a table of the names earlier
    commands declared, and the message names the command's first clashing
    name. Datatype testers are not in the duplicate check. *)
