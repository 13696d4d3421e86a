(** Bug de-duplication (§4.2, "Bug Inspection and Reduction"): crashes are
    clustered by stack signature (all crashes reaching the same code location
    are one issue); soundness and invalid-model findings are grouped by the
    solver and the theory involved, with one representative kept per group. *)

type found = {
  finding : Oracle.finding;
  source : string;  (** the triggering formula *)
}

(** A finding's cluster identity: crashes by stack signature, verdict
    disagreements by (kind, solver, theory). *)
type signature =
  | Crash_site of string
  | Verdict_group of {
      kind : Solver.Bug_db.kind;
      solver_name : string;
      theory : string;
    }

type cluster = {
  key : string;  (** [signature_to_string signature] *)
  signature : signature;
  kind : Solver.Bug_db.kind;
  solver : O4a_coverage.Coverage.solver_tag;
  theory : string;
  bug_id : string option;  (** ground-truth attribution (majority vote) *)
  representative : found;  (** smallest triggering formula *)
  count : int;
}

val signature : Oracle.finding -> signature

val signature_to_string : signature -> string
(** Canonical cluster-key rendering — ["crash:<site>"] or
    ["<kind>:<solver>:<theory>"]. Every surface that names a cluster (the
    campaign report, checkpoints, [triage], repro-bundle metadata) uses this
    string, so keys compare equal across all of them. *)

val cluster : found list -> cluster list
(** Stable order: first-seen clusters first. *)
