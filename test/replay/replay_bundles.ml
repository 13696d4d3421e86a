(* Replay every repro bundle under a directory through both evaluators,
   both trigger evaluations, both oracle front ends and both SMT-LIB front
   ends.

     dune exec test/replay/replay_bundles.exe -- DIR

   For each formula.smt2 under DIR:
   - for each solver whose front end would search it, runs
     [Solver.Search.solve] and the reference walk over the tree-walking
     evaluator (test/reference) with that solver's rewrite rules,
     enumeration order and propagated bounds, at the campaign's fuel
     budget, and compares the outcome, the model, the fuel and every (key,
     line) coverage count;
   - for every spec in [Bug_db.all], compares the indexed trigger and
     [Bug_db.fires] with the reference's per-predicate walks
     (test/reference/trigger_walk.ml): bundles are the formulas where
     triggers fire and rarity gates pass;
   - runs [Oracle.test] on the text and again given its parse
     ([?parsed]), on trunk engines at the campaign's fuel budget, and
     compares the outcomes;
   - compares the front end with the one it replaced
     (test/reference/frontend.ml): the S-expressions [Lexer.read_sexps]
     reads (or its error), [Printer.script] of the parse,
     [Typecheck.check_script], and both trunk engines' [parse_check].
   Exits 1 naming the first bundle that differs, or when DIR holds no
   bundle. *)

open Smtlib
module Coverage = O4a_coverage.Coverage
module Domain = Solver.Domain
module Propagate = Solver.Propagate
module Rewrite = Solver.Rewrite
module Search = Solver.Search
module Bug_db = Solver.Bug_db
module Oracle = Once4all.Oracle
module Ref = Reference.Frontend

(* the campaign's budget per query (Fuzz.default_config) *)
let max_steps = 60_000

let rec formulas dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun name ->
         let path = Filename.concat dir name in
         if Sys.is_directory path then formulas path
         else if name = "formula.smt2" then [ path ]
         else [])

(* the query [tag]'s engine would search, as Engine.solve_script builds it,
   or [None] when its front end answers without searching *)
let query tag script =
  let window = Domain.default_config in
  if
    (not (Solver.Engine.supports_script (Solver.Engine.pure tag) script))
    || Theories.Typecheck.check_script script <> Ok ()
  then None
  else (
    let rules, order =
      match tag with
      | Coverage.Zeal -> (Rewrite.zeal_rules, Search.Ascending)
      | Coverage.Cove -> (Rewrite.cove_rules, Search.Descending)
    in
    let simplified =
      Script.map_assertions (fun a -> Rewrite.simplify ~rules ~fired:ignore a) script
    in
    let bounds =
      match tag with Coverage.Zeal -> Propagate.analyze simplified | Coverage.Cove -> []
    in
    if
      List.exists
        (fun (_, iv) ->
          Propagate.is_empty_within iv ~window_lo:window.Domain.int_lo
            ~window_hi:window.Domain.int_hi)
        bounds
    then None
    else Some (simplified, order, bounds))

let () =
  let dir = if Array.length Sys.argv = 2 then Sys.argv.(1) else "" in
  if dir = "" || not (Sys.file_exists dir && Sys.is_directory dir) then (
    prerr_endline "usage: replay_bundles DIR";
    exit 2);
  let t0 = Unix.gettimeofday () in
  let bundles = formulas dir in
  if bundles = [] then (
    Printf.eprintf "FAIL: no formula.smt2 under %s\n" dir;
    exit 1);
  let searches = ref 0 and fired = ref 0 in
  let zeal = Solver.Engine.zeal () and cove = Solver.Engine.cove () in
  let fail path fmt =
    Printf.ksprintf
      (fun why ->
        Printf.eprintf "FAIL: %s: %s\n" path why;
        exit 1)
      fmt
  in
  let lexed read source =
    match read source with sexps -> Ok sexps | exception Lexer.Lex_error m -> Error m
  in
  List.iter
    (fun path ->
      let source = In_channel.with_open_bin path In_channel.input_all in
      if lexed Lexer.read_sexps source <> lexed Ref.read_sexps source then
        fail path "Lexer.read_sexps differs from the reference lexer";
      List.iter
        (fun engine ->
          if Solver.Engine.parse_check engine source <> Ref.parse_check engine source then
            fail path "%s's parse_check differs from the reference front end"
              (Solver.Engine.name engine))
        [ zeal; cove ];
      match Parser.parse_script source with
      | Error _ -> ()
      | Ok script ->
        if Printer.script script <> Ref.script script then
          fail path "Printer.script differs from the reference printer";
        if Theories.Typecheck.check_script script <> Ref.check_script script then
          fail path "check_script differs from the reference sort checker";
        List.iter
          (fun (spec : Bug_db.spec) ->
            let walked = Reference.Trigger_walk.fires spec script in
            if Bug_db.fires spec script <> walked then
              fail path "%s fires %b on the index but %b on the reference walk"
                spec.Bug_db.id (not walked) walked;
            if walked then incr fired)
          Bug_db.all;
        let oracle ?parsed () =
          Oracle.test ~max_steps ?parsed ~zeal ~cove ~source ()
        in
        if oracle () <> oracle ~parsed:script () then
          fail path "the oracle given the parse differs from the oracle given the text";
        List.iter
          (fun tag ->
            match query tag script with
            | None -> ()
            | Some (simplified, order, bounds) -> (
              incr searches;
              match Reference.Walk.mismatch ~max_steps ~order ~bounds simplified with
              | None -> ()
              | Some why ->
                fail path "%s search differs from the reference walk (%s)"
                  (Coverage.tag_to_string tag) why))
          [ Coverage.Zeal; Coverage.Cove ])
    bundles;
  Printf.printf
    "replayed %d bundles (%d searches) through both evaluators, %d firing specs through \
     both trigger evaluations and every formula through both oracle front ends and \
     both SMT-LIB front ends: identical (%.1f s)\n"
    (List.length bundles) !searches !fired (Unix.gettimeofday () -. t0)
