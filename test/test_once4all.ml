open Smtlib
module Skeleton = Once4all.Skeleton
module Adapt = Once4all.Adapt
module Synthesize = Once4all.Synthesize
module Oracle = Once4all.Oracle
module Dedup = Once4all.Dedup
module Fuzz = Once4all.Fuzz
module Campaign = Once4all.Campaign
module Bug_db = Solver.Bug_db
module Coverage = O4a_coverage.Coverage

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let parse_term_exn src = Result.get_ok (Parser.parse_term src)
let parse_script_exn src = Result.get_ok (Parser.parse_script src)

(* shared engines and generator library, built once *)
let campaign = lazy (Campaign.prepare ~seed:3 ())
let generators () = (Lazy.force campaign).Campaign.generators
let zeal () = (Lazy.force campaign).Campaign.zeal
let cove () = (Lazy.force campaign).Campaign.cove

(* a campaign over the shared generator library, in the orchestrator's
   defaults unless overridden *)
let fuzz ?shard_size ?config ~seed ~seeds ~budget () =
  Orchestrator.run ?shard_size ?config ~seed ~budget ~generators:(generators ())
    ~seeds ()

(* ------------------------- Skeleton ------------------------- *)

let test_atom_paths_flat () =
  let t = parse_term_exn "(or (= x 0) (< y 1))" in
  check_int "two atoms" 2 (List.length (Skeleton.boolean_atom_paths t))

let test_atom_paths_nested () =
  let t = parse_term_exn "(and (or p (not (= a b))) (exists ((k Int)) (> k a)))" in
  let paths = Skeleton.boolean_atom_paths t in
  (* p, (= a b) under not, (> k a) under the quantifier *)
  check_int "three atoms" 3 (List.length paths);
  List.iter
    (fun path ->
      match Term.subterm_at t path with
      | Some sub -> check_bool "path is atomic" true (Term.is_atomic sub)
      | None -> Alcotest.fail "dangling path")
    paths

let test_atom_paths_whole_assertion () =
  let t = parse_term_exn "(= (+ x 1) 2)" in
  check_bool "root is the only atom" true (Skeleton.boolean_atom_paths t = [ [] ])

let test_atom_paths_ite_condition_only () =
  (* in an integer ite, only the condition is a boolean position *)
  let t = parse_term_exn "(= (ite (< x 0) 1 2) y)" in
  let paths = Skeleton.boolean_atom_paths t in
  check_int "just the root atom" 1 (List.length paths)

let test_skeletonize_term_always_leaves_hole () =
  let rng = O4a_util.Rng.create 5 in
  let t = parse_term_exn "(or (= x 0) (< y 1) (> z 2))" in
  for _ = 1 to 50 do
    let next = ref 0 in
    let sk = Skeleton.skeletonize_term ~rng ~next_hole:next t in
    check_bool "at least one hole" true (!next >= 1);
    check_int "holes numbered consecutively" !next (List.length (Term.placeholders sk))
  done

let test_skeletonize_preserves_structure () =
  let rng = O4a_util.Rng.create 7 in
  let script =
    parse_script_exn
      "(declare-fun x () Int)(assert (exists ((f Int)) (and (< f x) (= x 0))))(check-sat)"
  in
  let sk, holes = Skeleton.skeletonize ~rng script in
  check_bool "has holes" true (holes > 0);
  (* quantifier survives skeletonization (Observation 2) *)
  let has_exists =
    List.exists
      (fun a -> Term.exists_node (function Term.Exists _ -> true | _ -> false) a)
      (Script.assertions sk)
  in
  check_bool "exists preserved" true has_exists;
  (* declarations intact *)
  check_bool "decls intact" true
    (Script.declared_consts sk = Script.declared_consts script)

let test_skeletonize_no_atoms () =
  let rng = O4a_util.Rng.create 7 in
  let script = parse_script_exn "(check-sat)" in
  let _, holes = Skeleton.skeletonize ~rng script in
  check_int "no holes" 0 holes

(* ---------------- Mixed-sorts extension ---------------- *)

let all_supported _ = true

let test_typed_candidates_include_nonbool () =
  let script =
    parse_script_exn "(declare-fun x () Int)(assert (= (+ x 1) 2))(check-sat)"
  in
  let env = Theories.Typecheck.env_of_script script in
  let t = List.hd (Script.assertions script) in
  let candidates = Skeleton.typed_candidate_paths ~env ~supported:all_supported t in
  let sorts = List.map snd candidates in
  check_bool "root bool candidate" true (List.mem Sort.Bool sorts)
  (* nested ints are shadowed by the outermost rule, so only the root shows;
     restrict to Int-only support to reach the arithmetic positions *)

let test_typed_candidates_int_only () =
  let script =
    parse_script_exn "(declare-fun x () Int)(assert (= (+ x 1) 2))(check-sat)"
  in
  let env = Theories.Typecheck.env_of_script script in
  let t = List.hd (Script.assertions script) in
  let candidates =
    Skeleton.typed_candidate_paths ~env ~supported:(Sort.equal Sort.Int) t
  in
  check_bool "int positions found" true
    (List.for_all (fun (_, s) -> Sort.equal s Sort.Int) candidates
    && List.length candidates >= 2)

let test_typed_candidates_track_binders () =
  let script =
    parse_script_exn
      "(declare-fun y () Int)(assert (forall ((k Int)) (= (+ k y) 0)))(check-sat)"
  in
  let env = Theories.Typecheck.env_of_script script in
  let t = List.hd (Script.assertions script) in
  let candidates =
    Skeleton.typed_candidate_paths ~env ~supported:(Sort.equal Sort.Int) t
  in
  (* (+ k y), k, y, 0 — inferable only because the binder env is tracked *)
  check_bool "positions under quantifier" true (List.length candidates >= 1)

let test_typed_candidates_no_overlap () =
  let script =
    parse_script_exn
      "(declare-fun x () Int)(assert (or (= (+ x 1) 2) (< (* x x) 9)))(check-sat)"
  in
  let env = Theories.Typecheck.env_of_script script in
  let t = List.hd (Script.assertions script) in
  let candidates = Skeleton.typed_candidate_paths ~env ~supported:all_supported t in
  let is_prefix p q =
    List.length p < List.length q && O4a_util.Listx.take (List.length p) q = p
  in
  List.iter
    (fun (p, _) ->
      check_bool "outermost only" true
        (not (List.exists (fun (p', _) -> is_prefix p' p) candidates)))
    candidates

let test_skeletonize_typed_and_fill () =
  let rng = O4a_util.Rng.create 51 in
  let seed =
    parse_script_exn
      "(declare-fun x () Int)(declare-fun r () Real)(assert (or (= (+ x 1) 2) (< r 1.5)))(check-sat)"
  in
  let generators = generators () in
  let supported sort =
    List.exists (fun g -> Gensynth.Generator.supports_sort g sort) generators
  in
  let parsed_ok = ref 0 in
  for _ = 1 to 25 do
    let skeleton, hole_sorts = Skeleton.skeletonize_typed ~rng ~supported seed in
    if hole_sorts <> [] then (
      let filled =
        Synthesize.fill_typed ~rng ~generators ~skeleton ~hole_sorts ()
      in
      check_bool "no marker" true
        (not (O4a_util.Strx.contains_sub ~sub:"<placeholder>" filled.Synthesize.source));
      match filled.Synthesize.parsed with
      | Some script when Result.is_ok (Theories.Typecheck.check_script script) ->
        incr parsed_ok
      | _ -> ())
  done;
  check_bool "typed fills mostly well-sorted" true (!parsed_ok >= 12)

let test_mixed_sorts_fuzz_runs () =
  let config = { Fuzz.default_config with Fuzz.mixed_sorts = true } in
  let stats =
    (fuzz ~config ~seed:53 ~seeds:(O4a_util.Listx.take 15 (Seeds.Corpus.all ()))
       ~budget:120 ()).Orchestrator.stats
  in
  check_int "budget" 120 stats.Fuzz.tests;
  check_bool "mostly parseable" true (stats.Fuzz.parse_ok * 10 >= stats.Fuzz.tests * 7)

let test_coverage_guided_schedule_runs () =
  let config = { Fuzz.default_config with Fuzz.schedule = Fuzz.Coverage_guided } in
  let stats =
    (fuzz ~config ~seed:57 ~seeds:(O4a_util.Listx.take 15 (Seeds.Corpus.all ()))
       ~budget:120 ()).Orchestrator.stats
  in
  check_int "budget" 120 stats.Fuzz.tests

(* ---------------- Report ---------------- *)

let test_report_rendering () =
  let seeds = O4a_util.Listx.take 25 (Seeds.Corpus.all ()) in
  let r = fuzz ~seed:61 ~seeds ~budget:300 () in
  match r.Orchestrator.clusters with
  | [] -> Alcotest.fail "campaign found nothing to report"
  | cluster :: _ ->
    let report =
      Once4all.Report.of_cluster ~max_probes:60 ~zeal:(zeal ()) ~cove:(cove ()) cluster
    in
    let text = Once4all.Report.render report in
    check_bool "has reproducer" true
      (O4a_util.Strx.contains_sub ~sub:"### Reproducer" text);
    check_bool "has smt2 block" true (O4a_util.Strx.contains_sub ~sub:"```smt2" text);
    check_bool "has observed behavior" true
      (O4a_util.Strx.contains_sub ~sub:"### Observed behavior" text);
    check_bool "has signature" true
      (O4a_util.Strx.contains_sub ~sub:cluster.Dedup.key text)

(* ------------------------- Adapt ------------------------- *)

let test_adapt_swaps_compatible () =
  let rng = O4a_util.Rng.create 11 in
  let term = parse_term_exn "(= int0 (+ int0 int1))" in
  let adapted, remaining =
    Adapt.adapt ~rng ~swap_prob:1.0
      ~seed_vars:[ ("T", Sort.Int) ]
      ~term_vars:[ ("int0", Sort.Int); ("int1", Sort.Int) ]
      term
  in
  check_bool "all swapped" true (Term.free_vars adapted = [ "T" ]);
  check_bool "nothing remains" true (remaining = [])

let test_adapt_respects_sorts () =
  let rng = O4a_util.Rng.create 11 in
  let term = parse_term_exn "(= str0 \"a\")" in
  let adapted, remaining =
    Adapt.adapt ~rng ~swap_prob:1.0
      ~seed_vars:[ ("T", Sort.Int) ] (* wrong sort: no swap possible *)
      ~term_vars:[ ("str0", Sort.String_sort) ]
      term
  in
  check_bool "kept original" true (Term.free_vars adapted = [ "str0" ]);
  check_bool "decl still needed" true (remaining = [ "str0" ])

let test_adapt_zero_prob () =
  let rng = O4a_util.Rng.create 11 in
  let term = parse_term_exn "(= int0 1)" in
  let adapted, remaining =
    Adapt.adapt ~rng ~swap_prob:0.0
      ~seed_vars:[ ("T", Sort.Int) ]
      ~term_vars:[ ("int0", Sort.Int) ]
      term
  in
  check_bool "no swap at p=0" true (Term.free_vars adapted = [ "int0" ]);
  check_int "one remaining" 1 (List.length remaining)

(* ------------------------- Synthesize ------------------------- *)

let test_fill_produces_runnable_source () =
  let rng = O4a_util.Rng.create 13 in
  let seed =
    parse_script_exn "(declare-fun T () Int)(assert (or (= T 0) (< T 1)))(check-sat)"
  in
  let ok = ref 0 in
  for _ = 1 to 30 do
    let skeleton, holes = Skeleton.skeletonize ~rng seed in
    if holes > 0 then (
      let filled = Synthesize.fill ~rng ~generators:(generators ()) ~skeleton ~holes () in
      check_bool "no marker left" true
        (not (O4a_util.Strx.contains_sub ~sub:"<placeholder>" filled.Synthesize.source));
      if filled.Synthesize.parsed <> None then incr ok)
  done;
  check_bool "most syntheses parse" true (!ok > 15)

let test_fill_merges_declarations () =
  let rng = O4a_util.Rng.create 17 in
  let seed =
    parse_script_exn "(declare-fun T () Int)(assert (or (= T 0) (< T 1)))(check-sat)"
  in
  let rec try_until n =
    if n = 0 then Alcotest.fail "never produced a parsed synthesis"
    else (
      let skeleton, holes = Skeleton.skeletonize ~rng seed in
      if holes = 0 then try_until (n - 1)
      else (
        let filled = Synthesize.fill ~rng ~generators:(generators ()) ~skeleton ~holes () in
        match filled.Synthesize.parsed with
        | Some script ->
          (* every free variable of every assertion is declared *)
          let declared = List.map fst (Script.declared_consts script) in
          let tc = Theories.Typecheck.check_script script in
          ignore declared;
          check_bool "spliced script sort-checks" true (Result.is_ok tc)
        | None -> try_until (n - 1)))
  in
  try_until 40

let test_direct_mode () =
  let rng = O4a_util.Rng.create 19 in
  let filled = Synthesize.direct ~rng ~generators:(generators ()) ~terms:3 in
  check_bool "nonempty" true (String.length filled.Synthesize.source > 0);
  check_bool "check-sat present" true
    (O4a_util.Strx.contains_sub ~sub:"(check-sat)" filled.Synthesize.source)

(* ------------------------- Oracle ------------------------- *)

let steps engine = (Solver.Engine.last_query_stats engine).Solver.Engine.steps

let test_oracle_no_bug_on_clean_formula () =
  let outcome =
    Oracle.test ~zeal:(zeal ()) ~cove:(cove ())
      ~source:"(declare-fun x () Int)(assert (= x 1))(check-sat)" ()
  in
  check_bool "no finding" true (outcome.Oracle.finding = None);
  check_bool "solved" true outcome.Oracle.solved;
  check_int "both trunk solvers consulted" 2 outcome.Oracle.consults;
  check_int "fuel is the sum of both engines' steps"
    (steps (zeal ()) + steps (cove ()))
    outcome.Oracle.fuel

let test_oracle_parse_error () =
  let tel = O4a_telemetry.Telemetry.create () in
  let source = "(assert" in
  let outcome = Oracle.test ~telemetry:tel ~zeal:(zeal ()) ~cove:(cove ()) ~source () in
  check_bool "no finding" true (outcome.Oracle.finding = None);
  check_bool "not solved" true (not outcome.Oracle.solved);
  check_int "no consults" 0 outcome.Oracle.consults;
  check_int "no fuel" 0 outcome.Oracle.fuel;
  let message =
    match Parser.parse_script source with
    | Error e -> Parser.error_message e
    | Ok _ -> Alcotest.fail "the source parses"
  in
  check_bool "the parser's message" true
    (outcome.Oracle.results = [ ("parser", message) ]);
  check_int "counted as a parse error" 1
    (O4a_telemetry.Telemetry.counter_value tel "oracle.parse_errors")

(* The oracle given Synthesize's parse ([?parsed]) behaves as the oracle
   given the text alone, over a pinned 300-tick stream in the campaign
   config with breakers on: the same outcomes, breaker ledger and telemetry
   events once timings are dropped (the "parse" span included). *)
let test_oracle_parsed_as_text () =
  let module Telemetry = O4a_telemetry.Telemetry in
  let module Health = O4a_health.Health in
  let stream = Fuzz_stream.stream ~seed:31 ~ticks:300 () in
  let breakers = Option.get (O4a_server.Jobspec.health Fuzz_stream.spec) in
  let pass ~reuse =
    let sink = O4a_telemetry.Sink.memory () in
    let tel = Telemetry.create ~sink () in
    let ledger = Health.make_ledger breakers in
    let zeal = Solver.Engine.zeal () and cove = Solver.Engine.cove () in
    let outcomes =
      Health.using ledger (fun () ->
          List.map
            (fun (f : Synthesize.filled) ->
              let parsed = if reuse then f.Synthesize.parsed else None in
              Oracle.test ~max_steps:Fuzz_stream.config.Fuzz.max_steps ~telemetry:tel
                ?parsed ~zeal ~cove ~source:f.Synthesize.source ())
            stream)
    in
    let events =
      List.map
        (fun (e : O4a_telemetry.Event.t) ->
          (e.O4a_telemetry.Event.name, List.remove_assoc "dur_us" e.O4a_telemetry.Event.fields))
        (O4a_telemetry.Sink.events sink)
    in
    (outcomes, events, Health.export ledger)
  in
  let text_outcomes, text_events, text_health = pass ~reuse:false in
  let outcomes, events, health = pass ~reuse:true in
  check_bool "some ticks parse" true
    (List.exists (fun (f : Synthesize.filled) -> f.Synthesize.parsed <> None) stream);
  check_bool "a breaker opened" true
    (List.exists (fun e -> e.Health.opened > 0) text_health);
  List.iteri
    (fun i (a, b) ->
      if a <> b then
        Alcotest.failf "tick %d: the outcome given the parse differs from the text's" i)
    (List.combine text_outcomes outcomes);
  check_bool "same breaker ledger" true (text_health = health);
  check_int "same number of events" (List.length text_events) (List.length events);
  check_bool "same events" true (text_events = events)

(* One formula value shared by both engines answers as a fresh value per
   engine: the first engine's sort check and index serve the second. *)
let test_oracle_shared_formula () =
  let module Formula = Solver.Formula in
  let module Runner = Solver.Runner in
  let max_steps = Fuzz_stream.config.Fuzz.max_steps in
  let run engine formula =
    let r = Runner.run ~max_steps engine formula in
    (r, (Solver.Engine.last_query_stats engine).Solver.Engine.steps)
  in
  let fresh = (Solver.Engine.zeal (), Solver.Engine.cove ()) in
  let shared = (Solver.Engine.zeal (), Solver.Engine.cove ()) in
  List.iter
    (fun (f : Synthesize.filled) ->
      match f.Synthesize.parsed with
      | None -> ()
      | Some script ->
        let formula = Formula.of_script script in
        let shared_runs = (run (fst shared) formula, run (snd shared) formula) in
        let fresh_runs =
          ( run (fst fresh) (Formula.of_script script),
            run (snd fresh) (Formula.of_script script) )
        in
        if shared_runs <> fresh_runs then
          Alcotest.failf "a shared formula answers differently:\n%s" f.Synthesize.source)
    (Fuzz_stream.stream ~seed:37 ~ticks:200 ())

(* an engine an open breaker suppresses is not a consult, and burns no
   fuel *)
let test_oracle_counts_skip_suppressed () =
  let module Health = O4a_health.Health in
  let source = "(declare-fun x () Int)(assert (= x 1))(check-sat)" in
  let ledger =
    Health.make_ledger { Health.window = 4; threshold = 2 }
  in
  Health.using ledger (fun () ->
      let first = Oracle.test ~zeal:(zeal ()) ~cove:(cove ()) ~source () in
      check_int "closed breakers: both consulted" 2 first.Oracle.consults;
      let theory =
        match Health.export ledger with
        | e :: _ -> e.Health.e_theory
        | [] -> Alcotest.fail "the oracle recorded no health entry"
      in
      let zname = Solver.Engine.name (zeal ()) in
      for _ = 1 to 2 do
        ignore
          (Health.record ledger ~solver:zname ~theory ~probe:false ~fuel:0
             Health.Timeout)
      done;
      let outcome = Oracle.test ~zeal:(zeal ()) ~cove:(cove ()) ~source () in
      check_bool "zeal suppressed" true
        (List.mem (zname, "suppressed (breaker open)") outcome.Oracle.results);
      check_int "only cove consulted" 1 outcome.Oracle.consults;
      check_int "fuel is cove's alone" (steps (cove ())) outcome.Oracle.fuel)

let test_oracle_crash_detection () =
  (* zeal-018 (rarity 5): vary declarations until the op-set gate opens *)
  let base extra =
    Printf.sprintf
      "(declare-fun s () String)%s(assert (= (str.from_code (str.to_code s)) s))(check-sat)"
      extra
  in
  let variants =
    [ base ""; base "(declare-fun z () Int)(assert (= z 0))";
      base "(declare-fun z () Int)(assert (< z 1))";
      base "(declare-fun b () Bool)(assert (or b (not b)))";
      base "(declare-fun z () Int)(assert (distinct z 1))";
      base "(declare-fun r () Real)(assert (= r 0.5))";
      base "(declare-fun z () Int)(assert (<= z 2))" ]
  in
  let found =
    List.exists
      (fun source ->
        match (Oracle.test ~zeal:(zeal ()) ~cove:(cove ()) ~source ()).Oracle.finding with
        | Some f ->
          f.Oracle.kind = Bug_db.Crash && f.Oracle.bug_id = Some "zeal-018"
        | None -> false)
      variants
  in
  check_bool "crash found and attributed" true found

let test_oracle_extension_cross_version () =
  (* a sets formula is not supported by Zeal: the oracle compares Cove trunk
     against the previous Cove release instead of crashing on Zeal *)
  let outcome =
    Oracle.test ~zeal:(zeal ()) ~cove:(cove ())
      ~source:"(declare-fun a () (Set Int))(assert (set.member 1 a))(check-sat)" ()
  in
  check_bool "two cove runs" true
    (List.for_all
       (fun (name, _) -> O4a_util.Strx.starts_with ~prefix:"cove" name)
       outcome.Oracle.results);
  check_int "two consults: cove trunk and its previous release" 2
    outcome.Oracle.consults;
  check_bool "fuel covers cove trunk's run" true
    (outcome.Oracle.fuel >= steps (cove ()))

let test_oracle_attribute () =
  let script =
    parse_script_exn
      "(declare-fun s () String)(assert (= (str.from_code (str.to_code s)) s))(check-sat)"
  in
  match Oracle.attribute (zeal ()) (Solver.Formula.of_script script) ~kind:Bug_db.Crash with
  | Some _ | None -> () (* gated by rarity; just ensure no exception *)

(* The null campaign: with bug-free solvers, a shard of the CLI's default
   campaign reports nothing. Any finding is a false positive of the
   substrate: a cross-version pairing that kept the release's bugs, or an
   evaluator that answers differently under the two solvers. *)
let test_oracle_null_campaign () =
  let module Jobspec = O4a_server.Jobspec in
  let spec = { (Jobspec.default ~name:"null") with Jobspec.budget = 300; shard_size = 300 } in
  let env = Jobspec.env spec (Jobspec.prepare spec) in
  let shard =
    match Orchestrator.Shard.plan ~budget:300 ~shard_size:300 with
    | [ s ] -> s
    | _ -> Alcotest.fail "expected one shard"
  in
  let zeal = Solver.Engine.pure Coverage.Zeal and cove = Solver.Engine.pure Coverage.Cove in
  match Orchestrator.exec_shard ~env ~worker_id:0 ~zeal ~cove shard with
  | Orchestrator.Merged (payload, _, _) ->
    let findings =
      payload.Orchestrator.merged.Orchestrator.Checkpoint.m_result
        .Orchestrator.Checkpoint.findings
    in
    List.iter
      (fun (f : Dedup.found) ->
        Printf.printf "false finding from %s: %s\n" f.Dedup.finding.Oracle.solver_name
          f.Dedup.finding.Oracle.signature)
      findings;
    check_int "findings of pure solvers (seed 42, 300 ticks)" 0 (List.length findings)
  | Orchestrator.Quarantined _ | Orchestrator.Failed _ -> Alcotest.fail "shard did not merge"

(* ------------------------- Dedup ------------------------- *)

let mk_found kind solver_name signature theory source =
  {
    Dedup.finding =
      {
        Oracle.kind;
        solver = Coverage.Zeal;
        solver_name;
        signature;
        bug_id = None;
        theory;
        mode = Oracle.Differential;
      };
    source;
  }

let test_dedup_crash_clustering () =
  let founds =
    [
      mk_found Bug_db.Crash "zeal-trunk" "site_A" "ints" "(assert true)(check-sat)";
      mk_found Bug_db.Crash "zeal-trunk" "site_A" "ints" "(assert false)";
      mk_found Bug_db.Crash "zeal-trunk" "site_B" "ints" "(assert true)";
    ]
  in
  let clusters = Dedup.cluster founds in
  check_int "two clusters" 2 (List.length clusters);
  let a = List.find (fun c -> c.Dedup.key = "crash:site_A") clusters in
  check_int "site_A count" 2 a.Dedup.count;
  (* representative is the smallest trigger *)
  check_bool "smallest representative" true
    (a.Dedup.representative.Dedup.source = "(assert false)")

let test_dedup_theory_grouping () =
  let founds =
    [
      mk_found Bug_db.Soundness "zeal-trunk" "soundness:zeal-trunk:ints" "ints" "a";
      mk_found Bug_db.Soundness "zeal-trunk" "soundness:zeal-trunk:ints" "ints" "b";
      mk_found Bug_db.Soundness "zeal-trunk" "soundness:zeal-trunk:strings" "strings" "c";
      mk_found Bug_db.Invalid_model "zeal-trunk" "invalid-model:zeal-trunk:ints" "ints" "d";
    ]
  in
  let clusters = Dedup.cluster founds in
  check_int "three groups" 3 (List.length clusters)

(* cluster keys are the on-disk dedup vocabulary (checkpoints, repro-bundle
   meta, triage): pin the exact strings per verdict kind *)
let test_signature_strings_pinned () =
  let sig_of kind solver_name signature theory =
    Dedup.signature (mk_found kind solver_name signature theory "x").Dedup.finding
  in
  let check_sig label expected s =
    Alcotest.(check string) label expected (Dedup.signature_to_string s)
  in
  let crash = sig_of Bug_db.Crash "zeal-trunk" "src/rewriter.ml:88 rw_ite" "ints" in
  check_bool "crash groups by site" true
    (crash = Dedup.Crash_site "src/rewriter.ml:88 rw_ite");
  check_sig "crash key" "crash:src/rewriter.ml:88 rw_ite" crash;
  let soundness = sig_of Bug_db.Soundness "zeal-trunk" "ignored" "strings" in
  check_bool "soundness groups by kind/solver/theory" true
    (soundness
    = Dedup.Verdict_group
        { kind = Bug_db.Soundness; solver_name = "zeal-trunk"; theory = "strings" });
  check_sig "soundness key" "soundness:zeal-trunk:strings" soundness;
  check_sig "invalid-model key" "invalid model:cove-trunk:sets"
    (sig_of Bug_db.Invalid_model "cove-trunk" "ignored" "sets")

let test_cluster_carries_signature () =
  let founds =
    [
      mk_found Bug_db.Crash "zeal-trunk" "site_A" "ints" "a";
      mk_found Bug_db.Soundness "cove-trunk" "s" "bags" "b";
    ]
  in
  List.iter
    (fun c ->
      Alcotest.(check string)
        "key is the rendered signature" c.Dedup.key
        (Dedup.signature_to_string c.Dedup.signature))
    (Dedup.cluster founds)

let test_dedup_majority_bug_id () =
  let with_id id f = { f with Dedup.finding = { f.Dedup.finding with Oracle.bug_id = id } } in
  let founds =
    [
      with_id (Some "x-1") (mk_found Bug_db.Crash "z" "s" "ints" "a");
      with_id (Some "x-2") (mk_found Bug_db.Crash "z" "s" "ints" "b");
      with_id (Some "x-2") (mk_found Bug_db.Crash "z" "s" "ints" "c");
    ]
  in
  match Dedup.cluster founds with
  | [ c ] -> check_bool "majority wins" true (c.Dedup.bug_id = Some "x-2")
  | _ -> Alcotest.fail "expected one cluster"

(* ------------------------- Fuzz loop / campaign ------------------------- *)

let test_fuzz_respects_budget () =
  let seeds = O4a_util.Listx.take 10 (Seeds.Corpus.all ()) in
  (* 57 = 20 + 20 + 17: the last shard is cut to the budget *)
  let r = fuzz ~shard_size:20 ~seed:23 ~seeds ~budget:57 () in
  check_int "exact budget" 57 r.Orchestrator.stats.Fuzz.tests

let test_fuzz_rejects_empty_inputs () =
  Alcotest.check_raises "no generators"
    (Failure
       "Orchestrator.run: shard 0 failed: Invalid_argument(\"Fuzz.run_shard: no \
        generators\")")
    (fun () ->
      ignore
        (Orchestrator.run ~seed:23 ~budget:1 ~generators:[]
           ~seeds:(Seeds.Corpus.all ()) ()))

let test_campaign_end_to_end () =
  let seeds = O4a_util.Listx.take 30 (Seeds.Corpus.all ()) in
  let report = fuzz ~seed:31 ~seeds ~budget:400 () in
  check_int "budget honored" 400 report.Orchestrator.stats.Fuzz.tests;
  check_bool "finds bugs at this budget" true (report.Orchestrator.clusters <> []);
  check_bool "ground truth attribution" true (report.Orchestrator.found_bug_ids <> []);
  (* every cluster key is unique *)
  let keys = List.map (fun c -> c.Dedup.key) report.Orchestrator.clusters in
  check_int "unique keys" (List.length keys) (List.length (O4a_util.Listx.dedup keys))

let test_campaign_deterministic () =
  let seeds = O4a_util.Listx.take 20 (Seeds.Corpus.all ()) in
  let keys (r : Orchestrator.report) =
    List.map (fun c -> c.Dedup.key) r.Orchestrator.clusters
  in
  let r1 = fuzz ~seed:37 ~seeds ~budget:150 () in
  let r2 = fuzz ~seed:37 ~seeds ~budget:150 () in
  check_bool "same findings" true (keys r1 = keys r2)

let test_wos_variant_runs () =
  let config = { Fuzz.default_config with Fuzz.use_skeletons = false } in
  let r =
    fuzz ~config ~seed:41 ~seeds:(O4a_util.Listx.take 10 (Seeds.Corpus.all ()))
      ~budget:100 ()
  in
  check_int "runs" 100 r.Orchestrator.stats.Fuzz.tests

let () =
  Alcotest.run "once4all"
    [
      ( "skeleton",
        [
          Alcotest.test_case "flat atoms" `Quick test_atom_paths_flat;
          Alcotest.test_case "nested atoms" `Quick test_atom_paths_nested;
          Alcotest.test_case "whole assertion" `Quick test_atom_paths_whole_assertion;
          Alcotest.test_case "ite condition" `Quick test_atom_paths_ite_condition_only;
          Alcotest.test_case "always leaves a hole" `Quick
            test_skeletonize_term_always_leaves_hole;
          Alcotest.test_case "preserves structure" `Quick test_skeletonize_preserves_structure;
          Alcotest.test_case "no atoms" `Quick test_skeletonize_no_atoms;
        ] );
      ( "mixed sorts & scheduling",
        [
          Alcotest.test_case "typed candidates (bool)" `Quick
            test_typed_candidates_include_nonbool;
          Alcotest.test_case "typed candidates (int)" `Quick test_typed_candidates_int_only;
          Alcotest.test_case "binder tracking" `Quick test_typed_candidates_track_binders;
          Alcotest.test_case "no overlapping holes" `Quick test_typed_candidates_no_overlap;
          Alcotest.test_case "typed fill" `Quick test_skeletonize_typed_and_fill;
          Alcotest.test_case "mixed-sorts fuzz" `Slow test_mixed_sorts_fuzz_runs;
          Alcotest.test_case "coverage-guided fuzz" `Slow test_coverage_guided_schedule_runs;
          Alcotest.test_case "issue report" `Slow test_report_rendering;
        ] );
      ( "adapt",
        [
          Alcotest.test_case "swaps compatible" `Quick test_adapt_swaps_compatible;
          Alcotest.test_case "respects sorts" `Quick test_adapt_respects_sorts;
          Alcotest.test_case "zero probability" `Quick test_adapt_zero_prob;
        ] );
      ( "synthesize",
        [
          Alcotest.test_case "runnable source" `Quick test_fill_produces_runnable_source;
          Alcotest.test_case "merged declarations sort-check" `Quick
            test_fill_merges_declarations;
          Alcotest.test_case "direct mode" `Quick test_direct_mode;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "clean formula" `Quick test_oracle_no_bug_on_clean_formula;
          Alcotest.test_case "parse error" `Quick test_oracle_parse_error;
          Alcotest.test_case "crash detection" `Quick test_oracle_crash_detection;
          Alcotest.test_case "cross-version for extensions" `Quick
            test_oracle_extension_cross_version;
          Alcotest.test_case "attribution" `Quick test_oracle_attribute;
          Alcotest.test_case "suppressed solvers are not consults" `Quick
            test_oracle_counts_skip_suppressed;
          Alcotest.test_case "null campaign" `Slow test_oracle_null_campaign;
          Alcotest.test_case "given the parse, as given the text" `Quick
            test_oracle_parsed_as_text;
          Alcotest.test_case "a shared formula, as fresh ones" `Quick
            test_oracle_shared_formula;
        ] );
      ( "dedup",
        [
          Alcotest.test_case "crash clustering" `Quick test_dedup_crash_clustering;
          Alcotest.test_case "theory grouping" `Quick test_dedup_theory_grouping;
          Alcotest.test_case "signature strings pinned" `Quick
            test_signature_strings_pinned;
          Alcotest.test_case "cluster carries signature" `Quick
            test_cluster_carries_signature;
          Alcotest.test_case "majority bug id" `Quick test_dedup_majority_bug_id;
        ] );
      ( "fuzz & campaign",
        [
          Alcotest.test_case "budget" `Quick test_fuzz_respects_budget;
          Alcotest.test_case "input validation" `Quick test_fuzz_rejects_empty_inputs;
          Alcotest.test_case "end to end" `Slow test_campaign_end_to_end;
          Alcotest.test_case "deterministic" `Slow test_campaign_deterministic;
          Alcotest.test_case "w/oS variant" `Quick test_wos_variant_runs;
        ] );
    ]
