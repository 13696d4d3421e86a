(** The canonical text rendering of a campaign — one definition shared by the
    CLI's stdout and the server's per-job [report.txt].

    Every function here is a pure function of the merged
    {!Orchestrator.report} (plus static campaign facts), never of timing,
    worker count, or scheduling. That is what makes "a campaign run through
    the server is byte-identical to the same spec run standalone" checkable
    with [diff]: both sides print through this module, so they cannot
    drift apart. *)

val header : generators:int -> seeds:int -> budget:int -> string
(** The "Generators ready …" line the CLI prints before fuzzing begins. *)

val campaign :
  ?show_formulas:bool ->
  chaos:O4a_faults.Faults.plan option ->
  Orchestrator.report ->
  string
(** The full campaign summary block: totals, de-duplicated issues, distinct
    bugs, coverage, then the chaos and breaker sections when applicable.
    [chaos] is the plan the campaign ran under — it prints the profile
    banner; quarantine and breaker lines come from the report itself. *)

val resumed_line : int -> string
(** ["resumed N completed shards from checkpoint"], or [""] for [0]. *)

val finish :
  ?show_formulas:bool ->
  ?checkpoint:string ->
  ?trace_dir:string ->
  chaos:O4a_faults.Faults.plan option ->
  Orchestrator.report ->
  string
(** Everything printed after a run: the {!resumed_line}; then the
    {!campaign} summary, or, when the run stopped or was interrupted before
    its last shard, a banner with the [once4all resume --checkpoint]
    command; then ["wrote N repro bundles to DIR"] when [trace_dir] is
    given. *)
