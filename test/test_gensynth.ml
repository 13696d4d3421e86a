module Flaw = Gensynth.Flaw
module Generator = Gensynth.Generator
module Synthesis = Gensynth.Synthesis
module Theory = Theories.Theory
module Cfg = Grammar_kit.Cfg

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let solvers = [ Solver.Engine.zeal (); Solver.Engine.cove () ]

(* ------------------------- Flaw categorization ------------------------- *)

let test_categorize_errors () =
  let cat msg = Flaw.category_to_string (Flaw.categorize_error msg) in
  Alcotest.(check string) "width" "width"
    (cat "the function 'bvadd' expects bit-vector arguments of equal width, got ...");
  Alcotest.(check string) "field" "field"
    (cat "the function 'ff.add' expects arguments in the same finite field, got ...");
  Alcotest.(check string) "nullary join" "nullary-join" (cat "Join requires non-nullary relations");
  Alcotest.(check string) "unknown sym" "unknown-symbol(seq.reverse)"
    (cat "unknown constant or function symbol 'seq.reverse'");
  Alcotest.(check string) "unknown op" "unknown-symbol(set.unite)"
    (cat "unknown set operator 'set.unite'");
  Alcotest.(check string) "parse" "parse" (cat "parse error: unbalanced parentheses");
  Alcotest.(check string) "arity" "arity" (cat "the function 'abs' expects %d arguments, got 2"
    |> fun s -> s);
  Alcotest.(check string) "literal" "literal" (cat "expected a term of sort Int, got Real")

let test_flaw_matching () =
  check_bool "width fix" true (Flaw.runtime_matches Flaw.C_width Flaw.Width_mismatch);
  check_bool "field fix" true (Flaw.runtime_matches Flaw.C_field Flaw.Field_mismatch);
  check_bool "var decl fix" true
    (Flaw.runtime_matches (Flaw.C_unknown_symbol "int3") Flaw.Missing_declaration);
  check_bool "op not a var" false
    (Flaw.runtime_matches (Flaw.C_unknown_symbol "seq.reverse") Flaw.Missing_declaration);
  check_bool "halluc fix" true
    (Flaw.defect_matches (Flaw.C_unknown_symbol "seq.reverse")
       (Flaw.Hallucinate { lhs = "seq"; alt_idx = 0; from_op = "seq.rev"; to_op = "seq.reverse" }));
  check_bool "halluc wrong target" false
    (Flaw.defect_matches (Flaw.C_unknown_symbol "other")
       (Flaw.Hallucinate { lhs = "seq"; alt_idx = 0; from_op = "seq.rev"; to_op = "seq.reverse" }));
  check_bool "omission never repaired" false
    (Flaw.defect_matches Flaw.C_parse (Flaw.Drop_alt { lhs = "bool"; alt_idx = 0 }));
  check_bool "unit join" true (Flaw.defect_matches Flaw.C_nullary_join Flaw.Unit_join)

(* ------------------------- Generator: perfect emission ------------------------- *)

(* the central invariant: a defect-free generator emits only valid terms *)
let test_perfect_generators_always_valid () =
  List.iter
    (fun (theory : Theory.info) ->
      let gen = Generator.perfect theory in
      let rng = O4a_util.Rng.create (Hashtbl.hash theory.Theory.key) in
      for i = 1 to 30 do
        match Generator.generate gen ~rng with
        | emitted ->
          let source = Generator.render_script [ emitted ] in
          let valid =
            List.exists
              (fun s -> Result.is_ok (Solver.Engine.parse_check s source))
              solvers
          in
          if not valid then
            Alcotest.failf "%s sample %d invalid:\n%s" theory.Theory.key i source
        | exception Failure msg ->
          Alcotest.failf "%s generation failed: %s" theory.Theory.key msg
      done)
    Theory.all

let test_generator_decls_cover_term_vars () =
  let gen = Generator.perfect (Theory.find Theory.Seq) in
  let rng = O4a_util.Rng.create 4 in
  for _ = 1 to 20 do
    let e = Generator.generate gen ~rng in
    match Smtlib.Parser.parse_term e.Generator.term with
    | Ok t ->
      let declared =
        List.filter_map
          (fun line ->
            match Smtlib.Parser.parse_script line with
            | Ok [ Smtlib.Command.Declare_fun (n, [], _) ] -> Some n
            | _ -> None)
          e.Generator.decls
      in
      List.iter
        (fun v ->
          check_bool (v ^ " declared") true
            (List.mem v declared || Theories.Signature.is_known_op v))
        (Smtlib.Term.free_vars t)
    | Error _ -> Alcotest.fail "perfect seq term should parse"
  done

let test_generate_of_sort_well_sorted () =
  (* the mixed-sorts extension: per-sort emission typechecks at the sort *)
  let cases =
    [ (Theory.Ints, Smtlib.Sort.Int); (Theory.Reals, Smtlib.Sort.Real);
      (Theory.Strings, Smtlib.Sort.String_sort);
      (Theory.Bitvectors, Smtlib.Sort.Bitvec 3);
      (Theory.Finite_fields, Smtlib.Sort.Finite_field 5);
      (Theory.Seq, Smtlib.Sort.Seq Smtlib.Sort.Int);
      (Theory.Sets, Smtlib.Sort.Set Smtlib.Sort.Int);
      (Theory.Bags, Smtlib.Sort.Bag Smtlib.Sort.Int);
      (Theory.Arrays, Smtlib.Sort.Array (Smtlib.Sort.Int, Smtlib.Sort.Int)) ]
  in
  let rng = O4a_util.Rng.create 31 in
  List.iter
    (fun (id, sort) ->
      let gen = Generator.perfect (Theory.find id) in
      check_bool (Smtlib.Sort.to_string sort ^ " supported") true
        (Generator.supports_sort gen sort);
      for _ = 1 to 10 do
        match Generator.generate_of_sort gen ~rng sort with
        | None -> Alcotest.failf "no emission for %s" (Smtlib.Sort.to_string sort)
        | Some e -> (
          let decls = String.concat "\n" e.Generator.decls in
          let source =
            Printf.sprintf "%s\n(define-fun probe () %s %s)\n(check-sat)" decls
              (Smtlib.Sort.to_string sort) e.Generator.term
          in
          match Smtlib.Parser.parse_script source with
          | Error err ->
            Alcotest.failf "parse (%s): %s\n%s" (Smtlib.Sort.to_string sort)
              (Smtlib.Parser.error_message err) source
          | Ok script -> (
            match Theories.Typecheck.check_script script with
            | Ok () -> ()
            | Error msg ->
              Alcotest.failf "sort mismatch (%s): %s\n%s" (Smtlib.Sort.to_string sort)
                msg source))
      done)
    cases

let test_generate_of_sort_unsupported () =
  let gen = Generator.perfect (Theory.find Theory.Core) in
  check_bool "core has no int production" true
    (Generator.generate_of_sort gen ~rng:(O4a_util.Rng.create 1) Smtlib.Sort.Int = None);
  check_bool "weird width unsupported" false
    (Generator.supports_sort
       (Generator.perfect (Theory.find Theory.Bitvectors))
       (Smtlib.Sort.Bitvec 17))

(* ------------------------- Defect application ------------------------- *)

(* [Generator.perfect theory] with defects or runtime flaws *)
let flawed ?(defects = []) ?(runtime_flaws = []) theory =
  Generator.make ~theory ~defects ~runtime_flaws ~version:0 ~profile_name:"perfect"

let test_hallucination_defect () =
  let theory = Theory.find Theory.Seq in
  let base = Generator.effective_cfg (Generator.perfect theory) in
  let rev_idx =
    match Cfg.find base "seq" with
    | Some p ->
      Option.get
        (O4a_util.Listx.find_index
           (fun alt ->
             List.exists
               (function
                 | Cfg.Lit l -> O4a_util.Strx.contains_sub ~sub:"seq.rev" l
                 | _ -> false)
               alt)
           p.Cfg.alternatives)
    | None -> Alcotest.fail "no seq production"
  in
  let gen =
    flawed theory
      ~defects:
        [ Flaw.Hallucinate
            { lhs = "seq"; alt_idx = rev_idx; from_op = "seq.rev"; to_op = "seq.reverse" } ]
  in
  let cfg = Generator.effective_cfg gen in
  let text = Cfg.to_string cfg in
  check_bool "misspelled op present" true
    (O4a_util.Strx.contains_sub ~sub:"seq.reverse" text);
  check_bool "original op replaced in that alt" true
    (not (O4a_util.Strx.contains_sub ~sub:"(seq.rev " text)
     || O4a_util.Strx.contains_sub ~sub:"seq.rev" text)

let test_arity_break_defect () =
  let theory = Theory.find Theory.Ints in
  (* break the abs alternative: int production, "(abs " int ")" *)
  let base = Generator.effective_cfg (Generator.perfect theory) in
  let abs_idx =
    match Cfg.find base "int" with
    | Some p ->
      O4a_util.Listx.find_index
        (fun alt ->
          List.exists
            (function Cfg.Lit l -> O4a_util.Strx.contains_sub ~sub:"abs" l | _ -> false)
            alt)
        p.Cfg.alternatives
      |> Option.get
    | None -> Alcotest.fail "no int production"
  in
  let gen = flawed theory ~defects:[ Flaw.Arity_break { lhs = "int"; alt_idx = abs_idx } ] in
  let cfg = Generator.effective_cfg gen in
  let p = Option.get (Cfg.find cfg "int") in
  let broken = List.nth p.Cfg.alternatives abs_idx in
  let refs = List.length (List.filter (function Cfg.Ref _ -> true | _ -> false) broken) in
  check_int "one extra operand" 2 refs

let test_drop_alt_defect () =
  let theory = Theory.find Theory.Core in
  let base = Generator.effective_cfg (Generator.perfect theory) in
  let n_before = List.length (Option.get (Cfg.find base "bool")).Cfg.alternatives in
  let gen = flawed theory ~defects:[ Flaw.Drop_alt { lhs = "bool"; alt_idx = 2 } ] in
  let n_after =
    List.length (Option.get (Cfg.find (Generator.effective_cfg gen) "bool")).Cfg.alternatives
  in
  check_int "one fewer alternative" (n_before - 1) n_after

let test_unit_join_defect () =
  let theory = Theory.find Theory.Sets in
  let gen = flawed theory ~defects:[ Flaw.Unit_join ] in
  let cfg = Generator.effective_cfg gen in
  check_bool "urel production added" true (Cfg.find cfg "urel" <> None);
  check_bool "grammar still validates" true (Cfg.validate cfg = Ok ())

let test_flawed_generator_produces_invalid () =
  let theory = Theory.find Theory.Bitvectors in
  let gen = flawed theory ~runtime_flaws:[ Flaw.Width_mismatch ] in
  let rng = O4a_util.Rng.create 21 in
  let invalid = ref 0 in
  for _ = 1 to 40 do
    match Generator.generate gen ~rng with
    | e ->
      let source = Generator.render_script [ e ] in
      if
        not
          (List.exists (fun s -> Result.is_ok (Solver.Engine.parse_check s source)) solvers)
      then incr invalid
    | exception Failure _ -> incr invalid
  done;
  check_bool "width mismatches rejected sometimes" true (!invalid > 0)

let test_is_clean () =
  let theory = Theory.find Theory.Core in
  check_bool "perfect is clean" true (Generator.is_clean (Generator.perfect theory));
  check_bool "omissions stay clean" true
    (Generator.is_clean (flawed theory ~defects:[ Flaw.Drop_alt { lhs = "bool"; alt_idx = 0 } ]));
  check_bool "runtime flaw is dirty" false
    (Generator.is_clean (flawed theory ~runtime_flaws:[ Flaw.Bad_int_literal ]))

(* ------------------------- Emissions across builds ------------------------- *)

(* fixtures/generator_emissions.txt, written by the build before generators
   compiled their grammars: the CLI-default campaign's generators
   ([Campaign.prepare ~seed:42], gpt4), [emissions_per_generator] [generate]
   emissions each, then one [generate_of_sort] emission per supported sort,
   all from one RNG per generator *)
let emissions_per_generator = 8

let fixture_sorts =
  let open Smtlib.Sort in
  [ Bool; Int; Real; String_sort; Reglan; Bitvec 2; Bitvec 3; Bitvec 4;
    Finite_field 3; Finite_field 5; Finite_field 7; Seq Int; Set Int;
    Set (Tuple [ Int; Int ]); Bag Int; Array (Int, Int); Datatype "Lst" ]

let add_emission buf (e : Generator.emitted) =
  List.iter (Printf.bprintf buf "  decl %s\n") e.Generator.decls;
  Printf.bprintf buf "  term %s\n" e.Generator.term

let emissions_text () =
  let prepared = Once4all.Campaign.prepare ~seed:42 () in
  let buf = Buffer.create 65536 in
  List.iteri
    (fun i (gen : Generator.t) ->
      Printf.bprintf buf "generator %s v%d\n" gen.Generator.theory.Theory.key
        gen.Generator.version;
      let rng = O4a_util.Rng.create i in
      for k = 1 to emissions_per_generator do
        match Generator.generate gen ~rng with
        | e ->
          Printf.bprintf buf " generate %d\n" k;
          add_emission buf e
        | exception Failure msg -> Printf.bprintf buf " generate %d failed: %s\n" k msg
      done;
      List.iter
        (fun sort ->
          if Generator.supports_sort gen sort then (
            let name = Smtlib.Sort.to_string sort in
            match Generator.generate_of_sort gen ~rng sort with
            | Some e ->
              Printf.bprintf buf " of_sort %s\n" name;
              add_emission buf e
            | None -> Printf.bprintf buf " of_sort %s: none\n" name))
        fixture_sorts)
    prepared.Once4all.Campaign.generators;
  Buffer.contents buf

let test_emissions_match_fixture () =
  let expected =
    In_channel.with_open_bin "fixtures/generator_emissions.txt" In_channel.input_all
  in
  Alcotest.(check string) "generator_emissions.txt" expected (emissions_text ())

(* ------------------------- Synthesis (Algorithm 1) ------------------------- *)

let test_construct_converges () =
  let client = Llm_sim.Client.create ~seed:7 Llm_sim.Profile.gpt4 in
  List.iter
    (fun theory ->
      let _, report = Synthesis.construct ~client ~solvers theory in
      check_bool
        (Printf.sprintf "%s final >= 70%% (got %d/%d)" report.Synthesis.theory_key
           report.final_valid report.sample_num)
        true
        (report.Synthesis.final_valid * 10 >= report.Synthesis.sample_num * 7);
      check_bool "final >= initial" true
        (report.Synthesis.final_valid >= report.Synthesis.initial_valid);
      check_bool "iterations bounded" true
        (report.Synthesis.iterations <= Synthesis.max_iter))
    Theory.all

let test_difficulty_drives_initial_validity () =
  let client = Llm_sim.Client.create ~seed:7 Llm_sim.Profile.gpt4 in
  let report_for id =
    snd (Synthesis.construct ~client ~solvers (Theory.find id))
  in
  let easy = report_for Theory.Reals in
  let hard = report_for Theory.Finite_fields in
  check_bool
    (Printf.sprintf "ff (%d) starts below reals (%d)" hard.Synthesis.initial_valid
       easy.Synthesis.initial_valid)
    true
    (hard.Synthesis.initial_valid <= easy.Synthesis.initial_valid)

let test_construct_deterministic () =
  let run () =
    let client = Llm_sim.Client.create ~seed:11 Llm_sim.Profile.gpt4 in
    let _, report = Synthesis.construct ~client ~solvers (Theory.find Theory.Bags) in
    (report.Synthesis.initial_valid, report.Synthesis.final_valid, report.Synthesis.iterations)
  in
  check_bool "same outcome" true (run () = run ())

let test_zero_iterations_budget () =
  let client = Llm_sim.Client.create ~seed:7 Llm_sim.Profile.gpt4 in
  let _, report =
    Synthesis.construct ~max_iter:0 ~client ~solvers (Theory.find Theory.Finite_fields)
  in
  check_int "no refinement rounds" 0 report.Synthesis.iterations

let test_validate_samples_counts () =
  let rng = O4a_util.Rng.create 3 in
  let valid, errors =
    Synthesis.validate_samples ~solvers ~rng
      (Generator.perfect (Theory.find Theory.Ints))
  in
  check_int "all valid" Synthesis.sample_num valid;
  check_int "no errors" 0 (List.length errors)

let test_llm_call_accounting () =
  let client = Llm_sim.Client.create ~seed:5 Llm_sim.Profile.gpt4 in
  let _ = Synthesis.construct ~client ~solvers (Theory.find Theory.Core) in
  (* at least summarize + implement *)
  check_bool "one-time calls recorded" true (Llm_sim.Client.call_count client >= 2)

let () =
  Alcotest.run "gensynth"
    [
      ( "flaws",
        [
          Alcotest.test_case "error categorization" `Quick test_categorize_errors;
          Alcotest.test_case "repair matching" `Quick test_flaw_matching;
        ] );
      ( "generator",
        [
          Alcotest.test_case "perfect generators always valid" `Slow
            test_perfect_generators_always_valid;
          Alcotest.test_case "declarations cover variables" `Quick
            test_generator_decls_cover_term_vars;
          Alcotest.test_case "per-sort emission well-sorted" `Quick
            test_generate_of_sort_well_sorted;
          Alcotest.test_case "per-sort unsupported" `Quick test_generate_of_sort_unsupported;
          Alcotest.test_case "hallucination defect" `Quick test_hallucination_defect;
          Alcotest.test_case "arity defect" `Quick test_arity_break_defect;
          Alcotest.test_case "omission defect" `Quick test_drop_alt_defect;
          Alcotest.test_case "unit-join defect" `Quick test_unit_join_defect;
          Alcotest.test_case "flawed output rejected" `Quick
            test_flawed_generator_produces_invalid;
          Alcotest.test_case "is_clean" `Quick test_is_clean;
          Alcotest.test_case "emissions match the fixture" `Quick
            test_emissions_match_fixture;
        ] );
      ( "synthesis",
        [
          Alcotest.test_case "converges on every theory" `Slow test_construct_converges;
          Alcotest.test_case "difficulty ordering" `Quick test_difficulty_drives_initial_validity;
          Alcotest.test_case "deterministic" `Quick test_construct_deterministic;
          Alcotest.test_case "zero-iteration budget" `Quick test_zero_iterations_budget;
          Alcotest.test_case "validate_samples" `Quick test_validate_samples_counts;
          Alcotest.test_case "LLM accounting" `Quick test_llm_call_accounting;
        ] );
    ]
