(** The injected-bug registry: the reproduction's ground truth.

    Two populations:

    - {b Campaign bugs} — 45 specimens (27 Zeal, 18 Cove) whose kind and
      triage-status distributions mirror the paper's Tables 1 and 2 exactly.
      They are active at trunk (the fuzzing campaigns of RQ1 target them) and
      their [introduced] commits drive the lifespan analysis of Figure 5
      (three Zeal bugs predate the oldest release, most are trunk-only).
    - {b Historical bugs} — already-fixed bugs present in the latest release
      but repaired before trunk; the unique-known-bug comparison of
      Figures 7 and 9 counts how many each fuzzer rediscovers, attributing
      formulas to bugs via correcting-commit bisection.

    A bug's [trigger] is a structural predicate on the input script
    ({!Trigger.t}, data evaluated against a per-formula index); when an
    active bug matches, the solver front end applies the bug's behavioral
    effect (crash with a stack signature, flipped verdict, or corrupted
    model). *)

type kind = Crash | Soundness | Invalid_model

type status =
  | Fixed  (** confirmed and patched by developers *)
  | Confirmed  (** confirmed, fix pending *)
  | Reported  (** awaiting triage *)
  | Duplicate_of of string  (** closed as duplicate of another specimen *)

type spec = {
  id : string;
  solver : O4a_coverage.Coverage.solver_tag;
  kind : kind;
  theory : string;  (** theory key; see {!Theories.Theory} *)
  summary : string;
  introduced : int;  (** commit that introduced the defect *)
  fixed_commit : int option;  (** in-history fix (historical bugs only) *)
  status : status;
  crash_site : string option;  (** synthetic stack signature for crashes *)
  pre_check : bool;  (** effect fires before sort checking (type-check escape) *)
  historical : bool;
  rarity : int;  (** deep-condition gate: the bug fires on roughly 1/rarity of
                     structurally matching formulas (deterministic) *)
  trigger : Trigger.t;
}

val campaign_bugs : spec list
val historical_bugs : spec list
val all : spec list

val find : string -> spec option

val active : solver:O4a_coverage.Coverage.solver_tag -> commit:int -> spec list
(** Bugs present at a commit: [introduced <= commit < fixed] (unfixed bugs are
    present from [introduced] onwards). *)

val fires : spec -> Smtlib.Script.t -> bool
(** Structural trigger AND the deterministic rarity gate — use this, not
    [trigger], to decide whether a formula actually reaches the defect.
    [fires spec script] is [fires_index spec (Trigger.index script)]. *)

val fires_index : spec -> Trigger.index -> bool
(** {!fires} against an index already built, e.g. a {!Formula}'s: the
    rarity gate hashes [(spec.id, Trigger.op_set index)]. *)

val is_extension_theory_bug : spec -> bool
(** Involves a newly added or solver-specific theory (the class of bugs the
    paper says prior fuzzers cannot reach). *)

val kind_to_string : kind -> string

val kind_of_string : string -> kind option
(** Inverse of {!kind_to_string} (used by the campaign checkpoint codec). *)

val status_to_string : status -> string
