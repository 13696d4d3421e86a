(** RQ1 — Tables 1 and 2, plus the campaign statistics of §4.2.

    A trunk campaign is run with the full Once4All pipeline; clusters are
    mapped back to ground-truth specimens, and the tables are rendered from
    the triage metadata (status, kind) of the bugs the campaign hit. Paper
    values are printed alongside for comparison. *)

type result = {
  report : Orchestrator.report;
  found : Solver.Bug_db.spec list;  (** distinct campaign specimens hit *)
  table1 : string;
  table2 : string;
  stats_text : string;
}

val render : llm_calls:int -> llm_tokens:int -> Orchestrator.report -> result
(** The tables, the statistics and [found] as a function of a merged
    campaign and the LLM cost of its generator library
    ({!Once4all.Campaign.t}'s client). A report merged at any [jobs], or
    from a resumed checkpoint, renders the same text. *)

val run : ?seed:int -> ?budget:int -> unit -> result
(** Default budget 6000 test cases: generators from
    [Campaign.prepare ~seed], seeds that both trunk solvers accept, and
    [Orchestrator.run ~seed:(seed + 1)] in its defaults (default config and
    shards, no breakers, no chaos) — the campaign of
    [once4all fuzz --seed SEED --budget BUDGET --no-breakers]. *)
