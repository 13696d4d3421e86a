(** Random sentence generation from a {!Cfg.t}.

    Derivation is depth-budgeted: once the remaining budget cannot cover an
    alternative's minimal derivation depth, that alternative is excluded, so
    generation always terminates on a validated grammar. Hooks are rendered
    through a caller-supplied function that owns all context-sensitive state
    (variable pools, bit-widths, field orders).

    A grammar is {!compile}d once into immutable tables: its productions by
    index, every reference resolved, and per production and depth budget the
    array of alternatives that fit the budget, in grammar order. {!run} then
    derives by indexing those tables; it draws with [Rng.choose_arr], which
    consumes the generator exactly as [Rng.choose] on the same list, so a
    compiled derivation makes the same draws and hook calls, in the same
    order, as the list walk it replaced (kept in [test/reference]). A
    compiled grammar holds no mutable state and can be shared read-only
    between domains. *)

type hook_fn = string -> string
(** Maps a hook name to the text to substitute. May raise. *)

type compiled
(** A grammar's derivation tables. The first production of a name wins, as
    in {!Cfg.find}. *)

val compile : Cfg.t -> compiled

val start : compiled -> string
(** The grammar's start symbol. *)

val defines : compiled -> string -> bool
(** Whether the grammar has a production for the nonterminal. *)

val run :
  ?max_depth:int ->
  compiled ->
  hook:hook_fn ->
  rng:O4a_util.Rng.t ->
  string ->
  (string, string) result
(** [run c ~hook ~rng start] derives one sentence from [start] (default
    depth budget 8). [Error] on unknown start symbols or grammars where no
    alternative fits the budget. Exceptions raised by [hook] propagate. *)
