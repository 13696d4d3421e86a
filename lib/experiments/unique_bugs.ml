open Smtlib
module Coverage = O4a_coverage.Coverage
module Engine = Solver.Engine
module Runner = Solver.Runner
module Version = Solver.Version
module Fuzzer = Baselines.Fuzzer

type row = {
  fuzzer : string;
  unique_bugs : int;
  correcting_commits : (string * int) list;
  candidates : int;
}

type result = {
  rows : row list;
  text : string;
}

let solver_label = function Coverage.Zeal -> "zeal" | Coverage.Cove -> "cove"

(* the bug-free reference verdict, memoized per script *)
let reference_verdict ~max_steps pure_engine formula =
  match Runner.run ~max_steps pure_engine formula with
  | Runner.R_sat _ -> Some `Sat
  | Runner.R_unsat -> Some `Unsat
  | _ -> None

(* does this solver misbehave on the script at the given commit? *)
let misbehaves ~max_steps tag formula reference commit =
  let engine = Engine.make tag ~commit in
  let script = Solver.Formula.script formula in
  if not (Engine.supports_script engine script) then false
  else (
    match Runner.run ~max_steps engine formula with
    | Runner.R_crash _ -> true
    | Runner.R_sat model -> (
      match Solver.Model.check script model with
      | Solver.Model.Fails _ -> true
      | _ -> reference = Some `Unsat)
    | Runner.R_unsat -> reference = Some `Sat
    | Runner.R_unknown _ | Runner.R_error _ | Runner.R_timeout -> false)

let run ?(seed = 77) ?(budget = 1200) ?(max_bisects = 40) ?(max_steps = 40_000)
    ~title ~fuzzers ~seeds () =
  let zeal_release =
    Option.get (Version.release_commit Version.zeal_history "4.13.0")
  in
  let cove_release = Option.get (Version.release_commit Version.cove_history "1.2.0") in
  let release_commit = function
    | Coverage.Zeal -> zeal_release
    | Coverage.Cove -> cove_release
  in
  let pure_zeal = Engine.pure Coverage.Zeal in
  let pure_cove = Engine.pure Coverage.Cove in
  let pure_for = function Coverage.Zeal -> pure_zeal | Coverage.Cove -> pure_cove in
  let run_fuzzer (fuzzer : Fuzzer.t) =
    let rng = O4a_util.Rng.create (seed + Hashtbl.hash fuzzer.Fuzzer.name) in
    let cases = budget * fuzzer.Fuzzer.tests_per_tick / 100 in
    let candidates = ref [] in
    for _ = 1 to cases do
      let source = fuzzer.Fuzzer.generate ~rng ~seeds in
      match Parser.parse_script source with
      | Error _ -> ()
      | Ok script ->
        let formula = Solver.Formula.of_script script in
        List.iter
          (fun tag ->
            if List.length !candidates < max_bisects then (
              let reference = reference_verdict ~max_steps (pure_for tag) formula in
              if misbehaves ~max_steps tag formula reference (release_commit tag) then
                candidates := (tag, formula, reference) :: !candidates))
          [ Coverage.Zeal; Coverage.Cove ]
    done;
    let commits =
      List.filter_map
        (fun (tag, formula, reference) ->
          let history = Version.history_of tag in
          Version.bisect_fix ~known:(release_commit tag)
            ~triggers:(fun c -> misbehaves ~max_steps tag formula reference c)
            history
          |> Option.map (fun c -> (solver_label tag, c)))
        !candidates
      |> O4a_util.Listx.dedup
    in
    {
      fuzzer = fuzzer.Fuzzer.name;
      unique_bugs = List.length commits;
      correcting_commits = commits;
      candidates = List.length !candidates;
    }
  in
  let rows = List.map run_fuzzer fuzzers in
  let text =
    Render.heading title ^ "\n"
    ^ Render.table
        ~header:[ "fuzzer"; "unique known bugs"; "candidates"; "correcting commits" ]
        (List.map
           (fun r ->
             [
               r.fuzzer;
               string_of_int r.unique_bugs;
               string_of_int r.candidates;
               String.concat ", "
                 (List.map (fun (s, c) -> Printf.sprintf "%s@%d" s c) r.correcting_commits);
             ])
           rows)
  in
  { rows; text }
