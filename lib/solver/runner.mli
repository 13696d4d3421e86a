(** Process-style execution of a solver on a script: crashes become data
    (with their stack signature) instead of exceptions, and the fuel limit
    plays the role of the paper's 10-second per-query timeout. *)



type result =
  | R_sat of Model.t
  | R_unsat
  | R_unknown of string
  | R_error of string
  | R_crash of { signature : string; bug_id : string }
  | R_timeout

val run :
  ?max_steps:int -> ?telemetry:O4a_telemetry.Telemetry.t -> Engine.t ->
  Formula.t -> result
(** Run {!Engine.solve_script} on the formula. Pass the same {!Formula}
    value to every engine that runs one formula: they then share its sort
    check and trigger index. [telemetry] defaults to the ambient
    {!O4a_telemetry.Telemetry.global} handle. When enabled, each run is
    wrapped in a ["solver.run"] span and emits an ["oracle.verdict"] event
    carrying the verdict and the engine's per-query
    fuel/decision/propagation counts. *)

val run_source :
  ?max_steps:int -> ?telemetry:O4a_telemetry.Telemetry.t -> Engine.t ->
  string -> result

val result_to_string : result -> string

val verdict_label : result -> string
(** Short label: ["sat"], ["unsat"], ["unknown"], ["error"], ["crash"],
    ["timeout"] — the [verdict] field of telemetry events. *)

val same_verdict : result -> result -> bool
(** sat=sat, unsat=unsat; everything else compares by constructor. *)
