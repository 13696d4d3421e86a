module Coverage = O4a_coverage.Coverage

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* use a private namespace so the solver engines' registrations don't
   interfere with counts that matter here *)
let fresh_func =
  let n = ref 0 in
  fun () ->
    incr n;
    Printf.sprintf "testfn_%d" !n

let test_register_idempotent () =
  let f = fresh_func () in
  let p1 = Coverage.register ~solver:Coverage.Zeal ~file:"t.cpp" ~func:f ~kind:Coverage.Line "x" in
  let p2 = Coverage.register ~solver:Coverage.Zeal ~file:"t.cpp" ~func:f ~kind:Coverage.Line "x" in
  Coverage.hit p1;
  check_int "same point" 1 (Coverage.hit_count p2)

let test_distinct_solvers_distinct_points () =
  let f = fresh_func () in
  let pz = Coverage.register ~solver:Coverage.Zeal ~file:"t.cpp" ~func:f ~kind:Coverage.Line "y" in
  let pc = Coverage.register ~solver:Coverage.Cove ~file:"t.cpp" ~func:f ~kind:Coverage.Line "y" in
  Coverage.hit pz;
  check_int "cove untouched" 0 (Coverage.hit_count pc);
  check_int "zeal hit" 1 (Coverage.hit_count pz)

let test_register_lines_function_chain () =
  let f = fresh_func () in
  let lines = Coverage.register_lines ~solver:Coverage.Zeal ~file:"chain.cpp" ~func:f 3 in
  check_int "three line points" 3 (Array.length lines);
  let before = Coverage.snapshot Coverage.Zeal in
  Coverage.hit lines.(0);
  let after = Coverage.snapshot Coverage.Zeal in
  (* hitting line 0 also marks the function as hit *)
  check_int "one more line hit" (before.Coverage.lines_hit + 1) after.Coverage.lines_hit;
  check_int "one more func hit" (before.Coverage.funcs_hit + 1) after.Coverage.funcs_hit

let test_snapshot_percentages () =
  let s = { Coverage.lines_total = 200; lines_hit = 50; funcs_total = 40; funcs_hit = 10 } in
  Alcotest.(check (float 0.001)) "line pct" 25.0 (Coverage.line_pct s);
  Alcotest.(check (float 0.001)) "func pct" 25.0 (Coverage.func_pct s)

let test_empty_snapshot_pct () =
  let s = { Coverage.lines_total = 0; lines_hit = 0; funcs_total = 0; funcs_hit = 0 } in
  Alcotest.(check (float 0.001)) "0 of 0" 0.0 (Coverage.line_pct s)

let test_reset () =
  let f = fresh_func () in
  let p = Coverage.register ~solver:Coverage.Cove ~file:"r.cpp" ~func:f ~kind:Coverage.Line "z" in
  Coverage.hit p;
  Coverage.hit p;
  check_int "counted" 2 (Coverage.hit_count p);
  Coverage.reset ();
  check_int "reset to zero" 0 (Coverage.hit_count p)

let test_hit_point_labels () =
  Coverage.reset ();
  let f = fresh_func () in
  let p = Coverage.register ~solver:Coverage.Cove ~file:"lbl.cpp" ~func:f ~kind:Coverage.Line "7" in
  Coverage.hit p;
  let labels = Coverage.hit_point_labels Coverage.Cove in
  check_bool "label present" true
    (List.mem (Printf.sprintf "lbl.cpp:%s:7" f) labels)

let test_totals_grow_with_registration () =
  let before = Coverage.total_points Coverage.Zeal in
  let f = fresh_func () in
  ignore (Coverage.register ~solver:Coverage.Zeal ~file:"g.cpp" ~func:f ~kind:Coverage.Function "e");
  check_int "one more" (before + 1) (Coverage.total_points Coverage.Zeal)

let test_engine_coverage_accumulates () =
  Coverage.reset ();
  let zeal = Solver.Engine.zeal () in
  let before = Coverage.snapshot Coverage.Zeal in
  ignore
    (Solver.Runner.run_source zeal
       "(declare-fun x () Int)\n(assert (< x 2))\n(check-sat)");
  let after = Coverage.snapshot Coverage.Zeal in
  check_bool "lines grew" true (after.Coverage.lines_hit > before.Coverage.lines_hit);
  check_bool "functions grew" true (after.Coverage.funcs_hit > before.Coverage.funcs_hit)

let test_extension_ops_only_hit_cove () =
  Coverage.reset ();
  let zeal = Solver.Engine.zeal () in
  let cove = Solver.Engine.cove () in
  let src = "(declare-fun a () (Set Int))\n(assert (set.member 1 a))\n(check-sat)" in
  ignore (Solver.Runner.run_source zeal src);
  ignore (Solver.Runner.run_source cove src);
  let cove_sets =
    List.filter
      (fun l -> O4a_util.Strx.contains_sub ~sub:"theory/sets" l)
      (Coverage.hit_point_labels Coverage.Cove)
  in
  let zeal_sets =
    List.filter
      (fun l -> O4a_util.Strx.contains_sub ~sub:"sets" l)
      (Coverage.hit_point_labels Coverage.Zeal)
  in
  check_bool "cove reaches sets code" true (cove_sets <> []);
  check_bool "zeal has no sets code" true (zeal_sets = [])

let test_cold_files_never_hit () =
  Coverage.reset ();
  let cove = Solver.Engine.cove () in
  ignore (Solver.Runner.run_source cove "(assert true)(check-sat)");
  let cold =
    List.filter
      (fun l -> O4a_util.Strx.contains_sub ~sub:"lfsc_printer" l)
      (Coverage.hit_point_labels Coverage.Cove)
  in
  check_bool "cold code untouched" true (cold = [])

let () =
  Alcotest.run "coverage"
    [
      ( "registry",
        [
          Alcotest.test_case "register idempotent" `Quick test_register_idempotent;
          Alcotest.test_case "solvers isolated" `Quick test_distinct_solvers_distinct_points;
          Alcotest.test_case "line->function chain" `Quick test_register_lines_function_chain;
          Alcotest.test_case "percentages" `Quick test_snapshot_percentages;
          Alcotest.test_case "empty percentages" `Quick test_empty_snapshot_pct;
          Alcotest.test_case "reset" `Quick test_reset;
          Alcotest.test_case "hit labels" `Quick test_hit_point_labels;
          Alcotest.test_case "totals grow" `Quick test_totals_grow_with_registration;
        ] );
      ( "integration",
        [
          Alcotest.test_case "engine accumulates" `Quick test_engine_coverage_accumulates;
          Alcotest.test_case "extension ops only in cove" `Quick test_extension_ops_only_hit_cove;
          Alcotest.test_case "cold files never hit" `Quick test_cold_files_never_hit;
        ] );
    ]
