(** RQ1 — Tables 1 and 2, plus the campaign statistics of §4.2.

    A trunk campaign is run with the full Once4All pipeline; clusters are
    mapped back to ground-truth specimens, and the tables are rendered from
    the triage metadata (status, kind) of the bugs the campaign hit. Paper
    values are printed alongside for comparison. *)

type result = {
  report : Once4all.Campaign.report;
  found : Solver.Bug_db.spec list;  (** distinct campaign specimens hit *)
  table1 : string;
  table2 : string;
  stats_text : string;
}

val run : ?seed:int -> ?budget:int -> unit -> result
(** Default budget 6000 test cases, run as one single-stream campaign
    ({!Once4all.Campaign.fuzz}). *)
