(* Ground-truth witnesses: one hand-written formula per campaign specimen
   whose structural trigger it satisfies. This pins down what each injected
   bug is about, documents a reproducer shape, and guards the trigger
   predicates against accidental narrowing (a specimen whose trigger no
   realistic formula can satisfy would silently fall out of every
   experiment). The rarity gate is deliberately NOT part of this test — it
   checks [trigger], not [fires]. *)

open Smtlib
module Bug_db = Solver.Bug_db

let witnesses = Witnesses.all

let parse_exn src =
  match Parser.parse_script src with
  | Ok script -> script
  | Error e -> Alcotest.failf "witness parse error: %s" (Parser.error_message e)

let test_every_specimen_has_witness () =
  List.iter
    (fun (spec : Bug_db.spec) ->
      match List.assoc_opt spec.Bug_db.id witnesses with
      | None -> Alcotest.failf "no witness for %s" spec.Bug_db.id
      | Some src ->
        let script = parse_exn src in
        if not (Solver.Trigger.holds spec.Bug_db.trigger (Solver.Trigger.index script))
        then
          Alcotest.failf "witness does not satisfy the trigger of %s:\n%s"
            spec.Bug_db.id src)
    Bug_db.campaign_bugs

let test_witnesses_are_wellformed () =
  (* a reproducer that the buggy solver would reject outright is useless;
     all witnesses except the deliberate type-check-escape one must sort-check *)
  List.iter
    (fun (id, src) ->
      let script = parse_exn src in
      match Theories.Typecheck.check_script script with
      | Ok () -> ()
      | Error msg ->
        let spec = Option.get (Bug_db.find id) in
        if not spec.Bug_db.pre_check then
          Alcotest.failf "witness for %s ill-sorted (%s):\n%s" id msg src)
    witnesses

let test_witnesses_crash_when_gate_opens () =
  (* behavioral check on a sample: when [fires] holds, running the buggy
     solver on the witness actually produces the specimen's effect *)
  List.iter
    (fun (spec : Bug_db.spec) ->
      match List.assoc_opt spec.Bug_db.id witnesses with
      | None -> ()
      | Some src ->
        let script = parse_exn src in
        if spec.Bug_db.kind = Bug_db.Crash && Bug_db.fires spec script then (
          let engine =
            Solver.Engine.make spec.Bug_db.solver
              ~commit:(Solver.Version.history_of spec.Bug_db.solver).Solver.Version.trunk
          in
          match Solver.Runner.run engine (Solver.Formula.of_script script) with
          | Solver.Runner.R_crash _ -> ()
          | r ->
            Alcotest.failf "%s fires on its witness but solver returned %s"
              spec.Bug_db.id
              (Solver.Runner.result_to_string r)))
    Bug_db.campaign_bugs

let test_witness_count () =
  Alcotest.(check int) "45 witnesses" 45 (List.length witnesses)

(* ------------------------ the trigger index ------------------------ *)

(* [Trigger.holds] reads one index per formula; the reference interprets
   the same trigger data by walking the assertions once per leaf, as the
   triggers did before the index (test/reference/trigger_walk.ml). *)

module Trigger = Solver.Trigger
module Walk = Reference.Trigger_walk

(* the corpus seeds, the witnesses, and a pinned 500-tick stream of
   skeletonize + fill as the fuzz loop makes it *)
let inputs =
  lazy
    (Array.of_list
       (Seeds.Corpus.all ()
       @ List.map (fun (_, src) -> parse_exn src) witnesses
       @ List.filter_map
           (fun (f : Once4all.Synthesize.filled) -> f.Once4all.Synthesize.parsed)
           (Fuzz_stream.stream ~seed:29 ~ticks:500 ())))

(* where the index and the walk disagree on a script: the rarity op set,
   a spec's trigger or [fires], or [has_op]/[op_count_at_least] on a name
   the script holds *)
let disagreement script =
  let ix = Trigger.index script in
  let differs t = Trigger.holds t ix <> Walk.holds t script in
  let on_spec (spec : Bug_db.spec) =
    if differs spec.Bug_db.trigger then Some (spec.Bug_db.id ^ "'s trigger")
    else if Bug_db.fires spec script <> Walk.fires spec script then
      Some (spec.Bug_db.id ^ "'s rarity gate")
    else None
  in
  let on_name n =
    List.find_map
      (fun t -> if differs t then Some (Printf.sprintf "a trigger on %S" n) else None)
      [ Trigger.Has_op n; Op_count_at_least (n, 2); Op_count_at_least (n, 3) ]
  in
  if Trigger.op_set ix <> Walk.script_op_set script then Some "the rarity op set"
  else
    match List.find_map on_spec Bug_db.all with
    | Some _ as d -> d
    | None -> List.find_map on_name (Walk.names script)

let test_index_fires_as_walk () =
  let inputs = Lazy.force inputs in
  Alcotest.(check bool) "the stream parses" true (Array.length inputs > 500);
  Array.iter
    (fun script ->
      match disagreement script with
      | None -> ()
      | Some what ->
        Alcotest.failf "the index and the walk differ on %s for:\n%s" what
          (Printer.script script))
    inputs

(* a random trigger over the names the script holds ([Var]s included),
   plus names it may lack; the property also checks every spec on the
   script it draws *)
let gen_trigger names =
  let open QCheck.Gen in
  let name = oneofl (names @ [ "ite"; "mod"; "not-an-op" ]) in
  let leaf =
    frequency
      [
        (4, map (fun n -> Trigger.Has_op n) name);
        (4, map2 (fun n k -> Trigger.Op_count_at_least (n, k)) name (int_range 0 4));
        (1, oneofl [ Trigger.Has_exists; Has_forall; Has_let; Has_datatypes ]);
        (1, map (fun n -> Trigger.Min_asserts n) (int_range 0 4));
      ]
  in
  fix
    (fun self depth ->
      if depth = 0 then leaf
      else
        frequency
          [
            (3, leaf);
            (1, map (fun ts -> Trigger.All_of ts) (list_size (int_range 0 3) (self (depth - 1))));
            (1, map (fun ts -> Trigger.Any_of ts) (list_size (int_range 0 3) (self (depth - 1))));
            (1, map (fun t -> Trigger.Not t) (self (depth - 1)));
          ])
    3

let prop_random_triggers =
  let gen =
    QCheck.Gen.(
      int_bound max_int >>= fun i ->
      let inputs = Lazy.force inputs in
      let script = inputs.(i mod Array.length inputs) in
      map (fun t -> (script, t)) (gen_trigger (Walk.names script)))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"random triggers: index = walk" ~count:1000
       (QCheck.make ~print:(fun (s, _) -> Printer.script s) gen)
       (fun (script, trigger) ->
         disagreement script = None
         && Trigger.holds trigger (Trigger.index script) = Walk.holds trigger script))

let () =
  Alcotest.run "bug_witnesses"
    [
      ( "witnesses",
        [
          Alcotest.test_case "count" `Quick test_witness_count;
          Alcotest.test_case "every specimen triggered" `Quick
            test_every_specimen_has_witness;
          Alcotest.test_case "well-formed" `Quick test_witnesses_are_wellformed;
          Alcotest.test_case "crash when gate opens" `Quick
            test_witnesses_crash_when_gate_opens;
        ] );
      ( "triggers",
        [
          Alcotest.test_case "index fires as the walk" `Quick test_index_fires_as_walk;
          prop_random_triggers;
        ] );
    ]
