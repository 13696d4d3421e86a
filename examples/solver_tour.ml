(* A tour of the bundled solver substrate as a standalone product:
   solving, models, get-value, incremental push/pop, unsat cores, versioned
   engines, and the coverage instrumentation.

   Run with:  dune exec examples/solver_tour.exe *)

let parse src = Result.get_ok (Smtlib.Parser.parse_script src)

let () =
  let cove = Solver.Engine.pure O4a_coverage.Coverage.Cove in

  (* --- basic solving with a model --- *)
  let script =
    parse
      {|(declare-fun x () Int)
(declare-fun s () (Set Int))
(assert (set.member x s))
(assert (= (set.card s) 2))
(assert (>= x 0))
(check-sat)|}
  in
  print_endline "-- solve with model --";
  (match Solver.Runner.run cove (Solver.Formula.of_script script) with
  | Solver.Runner.R_sat model ->
    print_endline "sat";
    print_endline (Solver.Model.to_string script model);
    (* get-value over arbitrary terms *)
    let terms =
      List.map
        (fun s -> Result.get_ok (Smtlib.Parser.parse_term s))
        [ "(set.card s)"; "(+ x 1)"; "(set.member 0 s)" ]
    in
    List.iter
      (fun (t, v) -> Printf.printf "  value of %s = %s\n" (Smtlib.Printer.term t) v)
      (Solver.Model.eval_terms script model terms)
  | r -> print_endline (Solver.Runner.result_to_string r));

  (* --- incremental solving --- *)
  print_endline "\n-- incremental push/pop --";
  let inc =
    parse
      {|(declare-fun n () Int)
(assert (> n 0))
(check-sat)
(push 1)
(assert (< n 0))
(check-sat)
(pop 1)
(push 1)
(assert (= n 2))
(check-sat)
(pop 1)|}
  in
  List.iter
    (fun (step : Solver.Engine.incremental_step) ->
      Printf.printf "  check-sat #%d: %s\n" step.Solver.Engine.step_index
        (match step.Solver.Engine.step_outcome with
        | Solver.Engine.Sat _ -> "sat"
        | Solver.Engine.Unsat -> "unsat"
        | Solver.Engine.Resource_limit -> "unknown (resource limit)"
        | Solver.Engine.Unknown r -> "unknown (" ^ r ^ ")"
        | Solver.Engine.Error e -> "error (" ^ e ^ ")"))
    (Solver.Engine.solve_incremental cove inc);

  (* --- unsat cores --- *)
  print_endline "\n-- unsat core --";
  let unsat =
    parse
      {|(declare-fun a () Int)
(declare-fun b () Int)
(assert (= a 1))
(assert (< a b))
(assert (< b a))
(assert (>= b (- 2)))
(check-sat)|}
  in
  (match Solver.Engine.unsat_core cove unsat with
  | Some core ->
    Printf.printf "  core of %d assertions:\n" (List.length core);
    List.iter (fun t -> Printf.printf "    %s\n" (Smtlib.Printer.term t)) core
  | None -> print_endline "  (not unsat)");

  (* --- versioned engines and a historical bug --- *)
  print_endline "\n-- versioned engines --";
  (* probe variants until one reaches the historical seq defect at 1.1.0
     (the deep trigger condition depends on the formula's operator mix) *)
  let extras =
    [ ""; "(declare-fun k () Int)(assert (= (seq.len s) k))\n";
      "(assert (seq.contains s t))\n"; "(assert (not (seq.suffixof t s)))\n";
      "(assert (= (seq.nth s 0) 1))\n"; "(assert (= (seq.++ s t) t))\n";
      "(assert (distinct (seq.unit 0) t))\n";
      "(declare-fun k () Int)(assert (= (seq.indexof s t 0) k))\n";
      "(declare-fun k () Int)(assert (= (abs k) 1))\n";
      "(declare-fun k () Int)(assert (= (mod k 2) 0))\n" ]
  in
  let variants =
    List.concat_map
      (fun a -> List.map (fun b -> a ^ b) extras)
      extras
    |> List.map (fun extra ->
           Printf.sprintf
             {|(declare-fun s () (Seq Int))
(declare-fun t () (Seq Int))
%s(assert (seq.prefixof t (seq.rev s)))
(assert (distinct s t))
(check-sat)|}
             extra)
  in
  let old_engine = Solver.Engine.make O4a_coverage.Coverage.Cove ~commit:58 in
  let bug =
    match
      List.find_opt
        (fun src ->
          match Solver.Runner.run_source old_engine src with
          | Solver.Runner.R_crash _ -> true
          | _ -> false)
        variants
    with
    | Some src -> src
    | None -> List.hd variants
  in
  List.iter
    (fun commit ->
      let engine = Solver.Engine.make O4a_coverage.Coverage.Cove ~commit in
      Printf.printf "  %s: %s\n"
        (Solver.Engine.name engine)
        (Solver.Runner.result_to_string (Solver.Runner.run_source engine bug)))
    [ 58; 74; 100 ];

  (* --- coverage instrumentation --- *)
  print_endline "\n-- coverage accounting --";
  O4a_coverage.Coverage.reset ();
  ignore (Solver.Runner.run cove (Solver.Formula.of_script script));
  let snapshot = O4a_coverage.Coverage.snapshot O4a_coverage.Coverage.Cove in
  Printf.printf "  one query exercised %d/%d lines (%.1f%%), %d/%d functions (%.1f%%)\n"
    snapshot.O4a_coverage.Coverage.lines_hit snapshot.O4a_coverage.Coverage.lines_total
    (O4a_coverage.Coverage.line_pct snapshot)
    snapshot.O4a_coverage.Coverage.funcs_hit snapshot.O4a_coverage.Coverage.funcs_total
    (O4a_coverage.Coverage.func_pct snapshot)
