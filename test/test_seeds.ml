open Smtlib
module Corpus = Seeds.Corpus

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_corpus_size () =
  check_bool
    (Printf.sprintf "at least 100 seeds (got %d)" (Corpus.count ()))
    true
    (Corpus.count () >= 100)

let test_all_parse () =
  (* Corpus.all already fails hard on parse errors; also check source parity *)
  check_int "parsed = sources" (List.length (Corpus.sources ())) (Corpus.count ())

let test_all_sort_check () =
  List.iter
    (fun seed ->
      match Theories.Typecheck.check_script seed with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "seed ill-sorted (%s):\n%s" msg (Printer.script seed))
    (Corpus.all ())

let test_all_have_check_sat () =
  List.iter
    (fun seed -> check_bool "check-sat" true (Script.has_check_sat seed))
    (Corpus.all ())

let test_theory_coverage () =
  (* the corpus exercises every theory the registry knows; Reals_Ints has no
     tag of its own — its operators tag as ints/reals *)
  List.iter
    (fun (t : Theories.Theory.info) ->
      if t.Theories.Theory.key <> "reals_ints" then
        check_bool
          (Printf.sprintf "seeds for %s" t.Theories.Theory.key)
          true
          (Corpus.by_theory t.Theories.Theory.key <> []))
    Theories.Theory.all;
  check_bool "mixed int/real seeds" true
    (List.exists
       (fun s ->
         let tags = Smtlib.Script.theories_used s in
         List.mem "ints" tags && List.mem "reals" tags)
       (Corpus.all ()))

let test_quantifier_seeds_present () =
  let quantified =
    List.filter
      (fun s ->
        List.exists
          (fun a ->
            Term.exists_node
              (function Term.Forall _ | Term.Exists _ -> true | _ -> false)
              a)
          (Script.assertions s))
      (Corpus.all ())
  in
  check_bool "enough quantified skeleton donors" true (List.length quantified >= 10)

let test_boolean_structure_present () =
  (* seeds must offer atoms for skeletonization *)
  let rng = O4a_util.Rng.create 1 in
  let with_atoms =
    List.filter
      (fun s -> snd (Once4all.Skeleton.skeletonize ~rng s) > 0)
      (Corpus.all ())
  in
  check_bool "most seeds skeletonizable" true
    (List.length with_atoms * 10 >= Corpus.count () * 9)

let test_filter_drops_crashers () =
  let zeal = Solver.Engine.zeal () in
  let cove = Solver.Engine.cove () in
  let filtered = Corpus.filtered ~zeal ~cove () in
  check_bool "filter keeps most" true (List.length filtered * 10 >= Corpus.count () * 8);
  (* nothing in the filtered set crashes either trunk solver *)
  List.iter
    (fun seed ->
      List.iter
        (fun engine ->
          match Solver.Runner.run ~max_steps:40_000 engine (Solver.Formula.of_script seed) with
          | Solver.Runner.R_crash { bug_id; _ } ->
            Alcotest.failf "filtered seed still triggers %s:\n%s" bug_id
              (Printer.script seed)
          | _ -> ())
        [ zeal; cove ])
    filtered

let test_solvable_fraction () =
  (* a healthy majority of seeds should get a definite verdict *)
  let cove = Solver.Engine.pure O4a_coverage.Coverage.Cove in
  let definite =
    List.filter
      (fun seed ->
        match Solver.Runner.run ~max_steps:60_000 cove (Solver.Formula.of_script seed) with
        | Solver.Runner.R_sat _ | Solver.Runner.R_unsat -> true
        | _ -> false)
      (Corpus.all ())
  in
  check_bool
    (Printf.sprintf "definite on %d/%d" (List.length definite) (Corpus.count ()))
    true
    (List.length definite * 2 >= Corpus.count ())

let () =
  Alcotest.run "seeds"
    [
      ( "corpus",
        [
          Alcotest.test_case "size" `Quick test_corpus_size;
          Alcotest.test_case "all parse" `Quick test_all_parse;
          Alcotest.test_case "all sort-check" `Quick test_all_sort_check;
          Alcotest.test_case "all have check-sat" `Quick test_all_have_check_sat;
          Alcotest.test_case "theory coverage" `Quick test_theory_coverage;
          Alcotest.test_case "quantified donors" `Quick test_quantifier_seeds_present;
          Alcotest.test_case "skeletonizable" `Quick test_boolean_structure_present;
        ] );
      ( "filtering",
        [
          Alcotest.test_case "leakage filter" `Slow test_filter_drops_crashers;
          Alcotest.test_case "solvable fraction" `Slow test_solvable_fraction;
        ] );
    ]
