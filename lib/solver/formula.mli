(** One formula's engine-independent front-end work, done once and shared
    by every engine that runs it: the parsed script, its sort check and its
    trigger index ({!Trigger.index}). The oracle builds one value per
    formula and hands the same value to both engine runs and to
    attribution.

    The sort check and the index are computed on first use and kept. A
    value is unsynchronized mutable state: use it on one domain only (the
    shard's executor that built it), like an engine. *)

open Smtlib

type t

val of_script : Script.t -> t

val script : t -> Script.t

val check : t -> (unit, string) result
(** [Theories.Typecheck.check_script] of the script, run once. *)

val index : t -> Trigger.index
(** [Trigger.index] of the script, built once. *)
