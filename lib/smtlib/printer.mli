(** Concrete SMT-LIB syntax output, each call writing into one buffer.

    [Parser.parse_script (Printer.script s)] gives back [s] for the scripts
    the campaign parses and splices (the corpus seeds and synthesized
    formulas; test_props pins it), with two exceptions: an application with
    no arguments, parsed from [(f)], prints as [f] and parses back as a
    variable, and a quoted symbol prints without its bars, so [|a b|] parses
    back as two symbols. *)

val index : Term.index -> string

val term : Term.t -> string
(** Placeholder nodes print as the paper's [<placeholder>] marker. *)

val command : Command.t -> string

val script : Script.t -> string
(** One command per line. *)

val model_binding : string -> Sort.t list -> Sort.t -> string -> string
(** [(define-fun name ((x0 s)...) result body)] rendering used by the solvers'
    get-model output. *)
