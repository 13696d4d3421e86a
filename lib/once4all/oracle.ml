open Smtlib
module Coverage = O4a_coverage.Coverage
module Engine = Solver.Engine
module Runner = Solver.Runner
module Bug_db = Solver.Bug_db
module Formula = Solver.Formula
module Telemetry = O4a_telemetry.Telemetry
module Trace = O4a_trace.Trace
module Health = O4a_health.Health

type mode = Differential | Degraded of string

let mode_to_string = function
  | Differential -> "differential"
  | Degraded solvers -> "degraded:" ^ solvers

let mode_of_string s =
  if s = "differential" then Some Differential
  else (
    let prefix = "degraded:" in
    if String.starts_with ~prefix s then
      Some
        (Degraded (String.sub s (String.length prefix)
                     (String.length s - String.length prefix)))
    else None)

type finding = {
  kind : Bug_db.kind;
  solver : Coverage.solver_tag;
  solver_name : string;
  signature : string;
  bug_id : string option;
  theory : string;
  mode : mode;
}

type outcome = {
  finding : finding option;
  results : (string * string) list;
  solved : bool;
  consults : int;
  fuel : int;
}

let primary_theory script =
  let tags = Script.theories_used script in
  let extension_first =
    List.filter (fun t -> List.mem t [ "finite_fields"; "sets"; "bags"; "seq" ]) tags
  in
  match (extension_first, tags) with
  | t :: _, _ -> t
  | [], t :: _ -> t
  | [], [] -> "core"

let attribute engine formula ~kind =
  Bug_db.active ~solver:(Engine.tag engine) ~commit:(Engine.commit engine)
  |> List.find_opt (fun (b : Bug_db.spec) ->
         b.Bug_db.kind = kind && Bug_db.fires_index b (Formula.index formula))
  |> Option.map (fun (b : Bug_db.spec) -> b.Bug_db.id)

(* the last release, built pure when [engine] is: a bug-free trunk paired
   with a buggy release would report the release's bugs as findings *)
let previous_release_engine engine =
  let tag = Engine.tag engine in
  let history = Solver.Version.history_of tag in
  match List.rev history.Solver.Version.releases with
  | last :: _ ->
    Some (Engine.make ~pure:(Engine.is_pure engine) tag ~commit:last.Solver.Version.commit)
  | [] -> None

let crash_finding engine script signature bug_id ~mode =
  (* a crash whose signature lives in the reserved "chaos:" namespace was
     injected by the fault layer, not produced by the solver: it must never
     be attributed to a ground-truth bug-registry entry *)
  let injected = O4a_faults.Faults.is_injected_signature signature in
  let theory =
    match (if injected then None else Bug_db.find bug_id) with
    | Some spec -> spec.Bug_db.theory
    | None -> ( match script with Some s -> primary_theory s | None -> "core")
  in
  {
    kind = Bug_db.Crash;
    solver = Engine.tag engine;
    solver_name = Engine.name engine;
    signature;
    bug_id = (if injected then None else Some bug_id);
    theory;
    mode;
  }

(* validate a model against the parsed script with the reference evaluator *)
let model_verdict script model =
  match Solver.Model.check script model with
  | Solver.Model.Holds -> `Holds
  | Solver.Model.Fails _ -> `Fails
  | Solver.Model.Check_unknown _ -> `Unknown

let test ?(max_steps = 200_000) ?telemetry ?parsed ~zeal ~cove ~source () =
  let tel = match telemetry with Some t -> t | None -> Telemetry.global () in
  Telemetry.with_span tel "oracle.compare" @@ fun () ->
  let parse () =
    match parsed with Some script -> Ok script | None -> Parser.parse_script source
  in
  match Telemetry.with_span tel "parse" parse with
  | Error e ->
    Telemetry.incr tel "oracle.parse_errors";
    if Trace.noting () then
      Trace.note (Trace.Parse_rejected { error = Parser.error_message e });
    {
      finding = None;
      results = [ ("parser", Parser.error_message e) ];
      solved = false;
      consults = 0;
      fuel = 0;
    }
  | Ok script ->
    (* the one front end both engine runs and attribution share *)
    let formula = Formula.of_script script in
    let theory = primary_theory script in
    let zeal_supports = Engine.supports_script zeal script in
    let engines =
      if zeal_supports then [ zeal; cove ]
      else (
        match previous_release_engine cove with
        | Some prev -> [ cove; prev ]
        | None ->
          (* no release history: the cross-version comparison would pit the
             engine against itself, so skip the bisection pairing and fall
             back to single-solver + model-validation *)
          Telemetry.incr tel "oracle.no_history";
          Telemetry.emit tel "oracle.no_history"
            [ ("solver", O4a_telemetry.Json.String (Engine.name cove)) ];
          [ cove ])
    in
    let ledger = Health.ambient () in
    let emit_transition solver = function
      | None -> ()
      | Some st ->
        let st_name = Health.state_name st in
        Telemetry.incr tel
          ~labels:[ ("solver", solver); ("theory", theory); ("to", st_name) ]
          "health.transitions";
        Telemetry.emit tel "health.breaker"
          [
            ("solver", O4a_telemetry.Json.String solver);
            ("theory", O4a_telemetry.Json.String theory);
            ("to", O4a_telemetry.Json.String st_name);
          ]
    in
    let decisions =
      List.map
        (fun e ->
          let d, transition = Health.admit ledger ~solver:(Engine.name e) ~theory in
          emit_transition (Engine.name e) transition;
          (e, d))
        engines
    in
    let admitted, suppressed =
      List.partition (fun (_, d) -> d <> Health.Suppress) decisions
    in
    let mode =
      match suppressed with
      | [] -> Differential
      | es ->
        Degraded (String.concat "+" (List.map (fun (e, _) -> Engine.name e) es))
    in
    if mode <> Differential then
      Telemetry.incr tel ~labels:[ ("theory", theory) ] "oracle.degraded";
    let classify = function
      | Runner.R_timeout -> Health.Timeout
      | Runner.R_crash _ -> Health.Crash
      | Runner.R_error _ -> Health.Error
      | Runner.R_sat _ | Runner.R_unsat | Runner.R_unknown _ -> Health.Good
    in
    let fuel = ref 0 in
    let runs =
      List.map
        (fun (e, d) ->
          let r = Runner.run ~max_steps ~telemetry:tel e formula in
          let steps = (Engine.last_query_stats e).Engine.steps in
          fuel := !fuel + steps;
          if Health.enabled ledger then (
            let transition =
              Health.record ledger ~solver:(Engine.name e) ~theory
                ~probe:(d = Health.Probe) ~fuel:steps (classify r)
            in
            emit_transition (Engine.name e) transition);
          (e, r))
        admitted
    in
    if Trace.noting () then
      List.iter
        (fun (e, r) ->
          let q = Engine.last_query_stats e in
          Trace.note
            (Trace.Solver_run
               {
                 solver = Engine.name e;
                 commit = Engine.commit e;
                 verdict = Runner.verdict_label r;
                 steps = q.Engine.steps;
                 decisions = q.Engine.decisions;
                 propagations = q.Engine.propagations;
               }))
        runs;
    let results =
      List.map (fun (e, r) -> (Engine.name e, Runner.result_to_string r)) runs
      @ List.map
          (fun (e, _) -> (Engine.name e, "suppressed (breaker open)"))
          suppressed
    in
    let solved =
      List.exists
        (fun (_, r) -> match r with Runner.R_sat _ | Runner.R_unsat -> true | _ -> false)
        runs
    in
    (* 1. crashes *)
    let crash =
      List.find_map
        (fun (e, r) ->
          match r with
          | Runner.R_crash { signature; bug_id } ->
            Some (crash_finding e (Some script) signature bug_id ~mode)
          | _ -> None)
        runs
    in
    let mk_finding kind engine signature =
      {
        kind;
        solver = Engine.tag engine;
        solver_name = Engine.name engine;
        signature;
        bug_id = attribute engine formula ~kind;
        theory;
        mode;
      }
    in
    (* 2. sat/unsat discrepancy *)
    let discrepancy =
      let sat_side =
        List.find_opt (fun (_, r) -> match r with Runner.R_sat _ -> true | _ -> false) runs
      in
      let unsat_side = List.find_opt (fun (_, r) -> r = Runner.R_unsat) runs in
      match (sat_side, unsat_side) with
      | Some (sat_engine, Runner.R_sat model), Some (unsat_engine, _) -> (
        match model_verdict script model with
        | `Holds ->
          Some
            (mk_finding Bug_db.Soundness unsat_engine
               (Printf.sprintf "soundness:%s:%s" (Engine.name unsat_engine) theory))
        | `Fails ->
          Some
            (mk_finding Bug_db.Invalid_model sat_engine
               (Printf.sprintf "invalid-model:%s:%s" (Engine.name sat_engine) theory))
        | `Unknown -> None)
      | _ -> None
    in
    (* 3. model validation on agreement (model_validate / --check-models) *)
    let invalid_model =
      List.find_map
        (fun (e, r) ->
          match r with
          | Runner.R_sat model when model_verdict script model = `Fails ->
            Some
              (mk_finding Bug_db.Invalid_model e
                 (Printf.sprintf "invalid-model:%s:%s" (Engine.name e) theory))
          | _ -> None)
        runs
    in
    let finding =
      match (crash, discrepancy, invalid_model) with
      | Some f, _, _ -> Some f
      | None, Some f, _ -> Some f
      | None, None, f -> f
    in
    if Trace.noting () then (
      let kind, solver, signature, bug_id, theory =
        match finding with
        | Some f ->
          ( Some (Bug_db.kind_to_string f.kind),
            Some f.solver_name,
            Some f.signature,
            f.bug_id,
            Some f.theory )
        | None -> (None, None, None, None, None)
      in
      Trace.note
        (Trace.Oracle_verdict
           {
             kind;
             solver;
             signature;
             bug_id;
             theory;
             mode = Some (mode_to_string mode);
           }));
    (match finding with
    | Some f ->
      let kind = Bug_db.kind_to_string f.kind in
      Telemetry.incr tel
        ~labels:[ ("kind", kind); ("solver", f.solver_name) ]
        "oracle.findings";
      Telemetry.emit tel "oracle.finding"
        [
          ("kind", O4a_telemetry.Json.String kind);
          ("solver", O4a_telemetry.Json.String f.solver_name);
          ("signature", O4a_telemetry.Json.String f.signature);
          ("theory", O4a_telemetry.Json.String f.theory);
          ( "bug_id",
            match f.bug_id with
            | Some id -> O4a_telemetry.Json.String id
            | None -> O4a_telemetry.Json.Null );
          ("mode", O4a_telemetry.Json.String (mode_to_string f.mode));
        ]
    | None -> ());
    { finding; results; solved; consults = List.length runs; fuel = !fuel }
