(* Ground-truth witnesses: one hand-written formula per campaign specimen
   whose structural trigger it satisfies. This pins down what each injected
   bug is about, documents a reproducer shape, and guards the trigger
   predicates against accidental narrowing (a specimen whose trigger no
   realistic formula can satisfy would silently fall out of every
   experiment). The rarity gate is deliberately NOT part of this test — it
   checks [trigger], not [fires]. *)

open Smtlib
module Bug_db = Solver.Bug_db

let dt = "(declare-datatypes ((Lst 0)) (((nil) (cons (head Int) (tail Lst)))))\n"

let witnesses =
  [
    (* ---------------- Zeal ---------------- *)
    ( "zeal-001",
      "(declare-fun x () Int)(assert (exists ((f Int)) (= (mod x 0) f)))(check-sat)" );
    ( "zeal-002",
      "(declare-fun r () Real)(assert (< (/ 1.0 r) (to_real (to_int r))))(check-sat)" );
    ( "zeal-003",
      {|(declare-fun s () String)(assert (= (str.replace_all s "" "a") s))(check-sat)|} );
    ( "zeal-004",
      {|(declare-fun s () String)(assert (str.in_re s (re.comp ((_ re.loop 1 3) (str.to_re "a")))))(check-sat)|}
    );
    ( "zeal-005",
      "(declare-fun s () (Seq Int))(assert (exists ((i Int)) (= (seq.nth (seq.rev s) i) 0)))(check-sat)"
    );
    ( "zeal-006",
      "(declare-fun s () (Seq Int))(assert (= (seq.update s 0 (seq.extract s 0 1)) s))(check-sat)"
    );
    ( "zeal-007",
      "(declare-fun v () (_ BitVec 2))(assert (= (bvurem v (bvshl v #b01)) v))(check-sat)"
    );
    ( "zeal-008",
      "(declare-fun v () (_ BitVec 4))(assert (= ((_ extract 1 0) (bvudiv v v)) #b00))(check-sat)"
    );
    ( "zeal-009",
      "(declare-fun a () (Array Int Int))(assert (= (store a 0 1) (store ((as const (Array Int Int)) 0) 1 2)))(check-sat)"
    );
    ( "zeal-010", dt ^ "(declare-fun l () Lst)(assert ((_ is cons) l))(check-sat)" );
    ( "zeal-011",
      "(declare-fun p () Bool)(assert (= (ite p 1 2) (ite p (ite p 3 4) 5)))(check-sat)"
    );
    ( "zeal-012",
      "(declare-fun x () Int)(assert ((_ divisible 3) (mod x 3)))(check-sat)" );
    ( "zeal-013",
      {|(declare-fun s () String)(assert (= (str.indexof s "a" (- 1)) 0))(check-sat)|} );
    ( "zeal-014",
      "(assert (forall ((x Int)) (exists ((y Int)) (< x y))))(check-sat)" );
    ( "zeal-015",
      "(assert (exists ((x Int)) (let ((y (+ x 1))) (= y 0))))(check-sat)" );
    ( "zeal-016",
      "(declare-fun a () (_ BitVec 2))(assert (= (bvxor (concat a a) #b0000) #b0000))(check-sat)"
    );
    ( "zeal-017",
      "(declare-fun r () Real)(assert (is_int (/ r 2.0)))(check-sat)" );
    ( "zeal-018",
      {|(declare-fun s () String)(assert (= (str.from_code (str.to_code s)) s))(check-sat)|}
    );
    ( "zeal-019",
      "(declare-fun s () (Seq Int))(assert (= (seq.indexof (seq.replace s s s) s 0) 0))(check-sat)"
    );
    ( "zeal-020",
      "(declare-fun a () (Array Int Int))(assert (= (select (store (store a 0 1) 1 2) 0) 1))(check-sat)"
    );
    ( "zeal-021", "(declare-fun x () Int)(assert (= (mod x (- 3)) 1))(check-sat)" );
    ( "zeal-022",
      {|(declare-fun s () String)(assert (= (str.substr s 2 2) "ab"))(check-sat)|} );
    ( "zeal-023",
      "(declare-fun v () (_ BitVec 3))(assert (= (bvashr (bvor v #b100) #b001) v))(check-sat)"
    );
    ( "zeal-024",
      "(declare-fun x () Int)(assert (forall ((k Int)) (distinct (div x 2) k)))(check-sat)"
    );
    ( "zeal-025",
      {|(declare-fun s () String)(assert (str.contains (str.++ s "a") s))(check-sat)|} );
    ( "zeal-026",
      "(declare-fun a () (Array Int Int))(assert (= (store a 0 1) a))(assert (= (select a 0) 1))(check-sat)"
    );
    ( "zeal-027",
      "(declare-fun s () (Seq Int))(assert (seq.contains (seq.++ s s) s))(check-sat)" );
    (* ---------------- Cove ---------------- *)
    ( "cove-001",
      "(declare-fun r () (Set UnitTuple))(assert (set.subset (rel.join r r) r))(check-sat)"
    );
    ( "cove-002",
      "(declare-fun s () (Seq Int))(assert (exists ((f Int)) (distinct (seq.len (seq.rev s)) (seq.nth (as seq.empty (Seq Int)) (div 0 0)))))(check-sat)"
    );
    ( "cove-003",
      "(declare-fun s () (Seq Int))(assert (= (seq.update (seq.++ s s) 0 s) (seq.++ s s)))(check-sat)"
    );
    ( "cove-004",
      "(declare-fun b () (Bag Int))(assert (= (bag.difference_remove (bag.setof b) b) b))(check-sat)"
    );
    ( "cove-005",
      "(declare-fun x () Int)(assert (= (bag.count x (bag x (- 2))) 0))(check-sat)" );
    ( "cove-006",
      "(declare-fun v () (_ FiniteField 3))(assert (= (ff.bitsum v v v) (as ff1 (_ FiniteField 3))))(check-sat)"
    );
    ( "cove-007",
      "(declare-fun a () (Set Int))(assert (set.is_empty (set.minus (set.complement a) a)))(check-sat)"
    );
    ( "cove-008",
      "(declare-fun r () (Set (Tuple Int Int)))(assert (= (rel.join (rel.transpose r) r) r))(check-sat)"
    );
    ( "cove-009",
      {|(declare-fun s () String)(assert (str.in_re s (re.diff re.all (re.inter re.allchar (str.to_re "a")))))(check-sat)|}
    );
    ( "cove-010",
      "(declare-fun a () (Array Int Int))(assert (= (select (store (store (store a 0 1) 1 2) 2 3) 0) 1))(check-sat)"
    );
    ( "cove-011",
      dt ^ "(declare-fun l () Lst)(assert ((_ is cons) (cons 1 (tail l))))(check-sat)" );
    ( "cove-012",
      "(declare-fun x () Int)(assert ((_ divisible 2) (mod x 4)))(check-sat)" );
    ( "cove-013",
      "(declare-fun a () (Set Int))(assert (forall ((k Int)) (=> (set.member k a) (< k 9))))(check-sat)"
    );
    ( "cove-014",
      {|(declare-fun s () String)(assert (= (str.replace_all s (str.at s 0) "b") s))(check-sat)|}
    );
    ( "cove-015",
      "(declare-fun s () (Seq Int))(assert (= (seq.len (seq.extract s 0 (seq.len s))) 1))(check-sat)"
    );
    ( "cove-016",
      "(declare-fun v () (_ FiniteField 3))(assert (= (ff.bitsum v (ff.mul v v)) (as ff2 (_ FiniteField 3))))(check-sat)"
    );
    ( "cove-017",
      "(declare-fun a () (Set Int))(declare-fun b () (Set Int))(assert (= (set.card (set.union a b)) 2))(check-sat)"
    );
    ( "cove-018",
      "(declare-fun a () (Bag Int))(declare-fun b () (Bag Int))(assert (bag.subbag (bag.inter_min a b) a))(check-sat)"
    );
  ]

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
