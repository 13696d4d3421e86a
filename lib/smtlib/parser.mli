(** Elaboration of S-expressions into SMT-LIB scripts, terms and sorts.

    Error messages are deliberately phrased like a real solver's parser
    output, because the self-correction loop of Algorithm 1 feeds them back
    to the (simulated) LLM. *)

type error = { message : string }

val error_message : error -> string

val parse_script : string -> (Script.t, error) result

val parse_term :
  ?datatypes:string list -> ?ctors:string list -> string -> (Term.t, error) result
(** Parse a single term. [datatypes] lists sort names to resolve as
    [Sort.Datatype] rather than [Sort.Uninterpreted]; [ctors] lists
    constructor names, used to tell a nullary-constructor pattern from a
    catch-all variable pattern in [match]. *)

val parse_sort : ?datatypes:string list -> string -> (Sort.t, error) result

val sort_of_sexp : datatypes:string list -> Lexer.sexp -> Sort.t
(** Raises [Failure] with a parser-style message on malformed input. *)

val term_of_sexp :
  ?ctors:string list -> datatypes:string list -> Lexer.sexp -> Term.t
(** Raises [Failure]. Placeholder symbols [<placeholder>] become numbered
    {!Term.Placeholder} nodes in left-to-right order, from 0 in each call;
    {!parse_script} numbers them across the whole script. The parser keeps
    no global state, so domains may parse concurrently. *)
