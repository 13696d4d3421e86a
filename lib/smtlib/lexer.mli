(** SMT-LIB tokenizer and generic S-expression reader. *)

type atom =
  | Sym of string  (** symbol, including quoted [|sym|] (quotes stripped) *)
  | Kw of string  (** keyword [:kw] (colon stripped) *)
  | Num of string  (** numeral *)
  | Dec of string  (** decimal *)
  | Hex of string  (** [#xDEAD] (prefix stripped) *)
  | Bin of string  (** [#b0101] (prefix stripped) *)
  | Str of string  (** string literal (unescaped body) *)

type sexp = Atom of atom | List of sexp list

exception Lex_error of string
(** Raised on malformed input, with a human-readable message that mimics a
    solver's parser error (used by the self-correction loop). *)

val read_sexps : string -> sexp list
(** Parse a whole input into top-level S-expressions, in one pass over its
    characters. Raises {!Lex_error} on malformed input (unbalanced parens,
    bad string literal, stray characters). A lexical error anywhere in the
    input wins over an unbalanced parenthesis: a stray [')'] is reported
    only once the rest of the input lexes. *)

val atom_to_string : atom -> string
