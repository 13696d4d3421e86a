(* Targeting newly added and solver-specific theories (paper §4.5).

   This example reproduces the three case studies of Figure 10 against our
   solver substrate, then runs a focused campaign that only uses the
   extension-theory generators (Sets/Relations, Bags, FiniteFields, Seq) —
   the bug class the paper says prior fuzzers are fundamentally unable to
   reach.

   Run with:  dune exec examples/extended_theories.exe *)

let show name source =
  let cove = Solver.Engine.cove () in
  let zeal = Solver.Engine.zeal () in
  Printf.printf "%s\n%s\n" name source;
  Printf.printf "  cove: %s\n" (Solver.Runner.result_to_string (Solver.Runner.run_source cove source));
  Printf.printf "  zeal: %s\n\n" (Solver.Runner.result_to_string (Solver.Runner.run_source zeal source))

let () =
  (* Figure 10a: finite-field bitsum (invalid models in cvc5) *)
  show "-- Figure 10a analog: ff.bitsum coefficient bug --"
    {|(declare-fun v () (_ FiniteField 3))
(assert (= (ff.bitsum v (ff.mul v v)) (as ff2 (_ FiniteField 3))))
(check-sat)|};

  (* Figure 10b: nullary relational join (type-check escape, then crash) *)
  show "-- Figure 10b analog: rel.join over nullary relations --"
    {|(declare-fun r () (Set UnitTuple))
(declare-fun q () (Set UnitTuple))
(assert (set.subset (rel.join r q) (rel.join q r)))
(check-sat)|};

  (* Figure 1: seq.rev / seq.nth under a quantifier *)
  show "-- Figure 1 analog: sequence model evaluation --"
    {|(declare-fun s () (Seq Int))
(assert (exists ((f Int))
  (distinct (seq.len (seq.rev s))
            (seq.nth (as seq.empty (Seq Int)) (div 0 0)))))
(check-sat)|};

  (* focused extension-theory campaign *)
  let extension_theories =
    List.filter
      (fun (t : Theories.Theory.info) -> not t.Theories.Theory.standard)
      Theories.Theory.all
  in
  let campaign =
    Once4all.Campaign.prepare ~seed:11 ~theories:extension_theories ()
  in
  let seeds =
    List.filter
      (fun s ->
        List.exists
          (fun key -> List.mem key (Smtlib.Script.theories_used s))
          [ "seq"; "sets"; "bags"; "finite_fields" ])
      (Seeds.Corpus.all ())
  in
  let report =
    Orchestrator.run ~seed:13 ~budget:600
      ~generators:campaign.Once4all.Campaign.generators ~seeds ()
  in
  Printf.printf "-- focused extension campaign --\n";
  Printf.printf "%d tests, %d issues:\n"
    report.Orchestrator.stats.Once4all.Fuzz.tests
    (List.length report.Orchestrator.clusters);
  List.iter
    (fun (c : Once4all.Dedup.cluster) ->
      let spec = Option.bind c.Once4all.Dedup.bug_id Solver.Bug_db.find in
      Printf.printf "  [%s/%s] %s\n"
        (Solver.Bug_db.kind_to_string c.Once4all.Dedup.kind)
        c.Once4all.Dedup.theory
        (match spec with
        | Some s -> s.Solver.Bug_db.summary
        | None -> c.Once4all.Dedup.key))
    report.Orchestrator.clusters
