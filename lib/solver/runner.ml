module Telemetry = O4a_telemetry.Telemetry
module Json = O4a_telemetry.Json

type result =
  | R_sat of Model.t
  | R_unsat
  | R_unknown of string
  | R_error of string
  | R_crash of { signature : string; bug_id : string }
  | R_timeout

let of_outcome = function
  | Engine.Sat model -> R_sat model
  | Engine.Unsat -> R_unsat
  | Engine.Resource_limit -> R_timeout
  | Engine.Unknown reason -> R_unknown reason
  | Engine.Error msg -> R_error msg

let verdict_label = function
  | R_sat _ -> "sat"
  | R_unsat -> "unsat"
  | R_unknown _ -> "unknown"
  | R_error _ -> "error"
  | R_crash _ -> "crash"
  | R_timeout -> "timeout"

(* Record one solver query: the span covers the whole engine run; the
   oracle.verdict event carries the verdict plus the engine's per-query
   activity (fuel, decisions, propagations). When a profile ledger is
   recording, the query (and its fuel) is charged to the "solver.run" stage
   from inside the span — even on a disabled telemetry handle, whose spans
   still fire the ambient span hook. *)
let observed tel engine f =
  let module Profile = O4a_profile.Profile in
  let live = Telemetry.enabled tel in
  let profiling = Profile.recording () in
  if not (live || profiling) then f ()
  else (
    let solver = Engine.name engine in
    let result =
      Telemetry.with_span tel ~labels:[ ("solver", solver) ] "solver.run"
        (fun () ->
          let r = f () in
          let steps = (Engine.last_query_stats engine).Engine.steps in
          if profiling then Profile.consult ~fuel:steps ();
          r)
    in
    if not live then result
    else (
      let q = Engine.last_query_stats engine in
      Telemetry.incr tel ~labels:[ ("solver", solver) ] "solver.queries";
      Telemetry.incr tel
        ~labels:[ ("solver", solver); ("verdict", verdict_label result) ]
        "solver.verdicts";
      Telemetry.incr tel ~labels:[ ("solver", solver) ] ~by:q.Engine.steps
        "solver.fuel";
      Telemetry.incr tel ~labels:[ ("solver", solver) ] ~by:q.Engine.decisions
        "solver.decisions";
      Telemetry.incr tel ~labels:[ ("solver", solver) ]
        ~by:q.Engine.propagations "solver.propagations";
      Telemetry.emit tel "oracle.verdict"
        [
          ("solver", Json.String solver);
          ("verdict", Json.String (verdict_label result));
          ("steps", Json.Int q.Engine.steps);
          ("decisions", Json.Int q.Engine.decisions);
          ("propagations", Json.Int q.Engine.propagations);
        ];
      result))

(* Chaos hook: consult the ambient fault injector before running the engine.
   A fired Solver_crash short-circuits into a spurious crash result whose
   signature lives in the reserved "chaos:" namespace; a fired Solver_hang
   clamps the fuel budget to a single step, producing a genuine
   resource-limit exhaustion (and hence R_timeout) through the normal path. *)
let injected_run ?max_steps solve =
  let module Faults = O4a_faults.Faults in
  if Faults.triggered Faults.Solver_crash then (
    if O4a_trace.Trace.noting () then
      O4a_trace.Trace.note
        (O4a_trace.Trace.Fault_injected
           { site = Faults.site_name Faults.Solver_crash });
    R_crash
      { signature = Faults.crash_signature; bug_id = Faults.crash_bug_id })
  else (
    let max_steps =
      if Faults.triggered Faults.Solver_hang then (
        if O4a_trace.Trace.noting () then
          O4a_trace.Trace.note
            (O4a_trace.Trace.Fault_injected
               { site = Faults.site_name Faults.Solver_hang });
        Some 1)
      else max_steps
    in
    match solve max_steps with
    | outcome -> of_outcome outcome
    | exception Engine.Crash { signature; bug_id; _ } ->
      R_crash { signature; bug_id })

let run ?max_steps ?telemetry engine formula =
  let tel = match telemetry with Some t -> t | None -> Telemetry.global () in
  observed tel engine (fun () ->
      injected_run ?max_steps (fun max_steps ->
          Engine.solve_script ?max_steps engine formula))

let run_source ?max_steps ?telemetry engine source =
  let tel = match telemetry with Some t -> t | None -> Telemetry.global () in
  observed tel engine (fun () ->
      injected_run ?max_steps (fun max_steps ->
          Engine.solve_source ?max_steps engine source))

let result_to_string = function
  | R_sat _ -> "sat"
  | R_unsat -> "unsat"
  | R_unknown reason -> Printf.sprintf "unknown (%s)" reason
  | R_error msg -> Printf.sprintf "error (%s)" msg
  | R_crash { signature; _ } -> Printf.sprintf "crash (%s)" signature
  | R_timeout -> "timeout"

let same_verdict a b =
  match (a, b) with
  | R_sat _, R_sat _ -> true
  | R_unsat, R_unsat -> true
  | R_unknown _, R_unknown _ -> true
  | R_error _, R_error _ -> true
  | R_crash _, R_crash _ -> true
  | R_timeout, R_timeout -> true
  | _ -> false
