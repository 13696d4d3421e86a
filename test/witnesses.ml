(* Ground-truth witnesses: one hand-written formula per campaign specimen
   whose structural trigger it satisfies, as (specimen id, source) pairs.
   test_bug_witnesses pins each one to its specimen; test_frontend feeds
   them to the front end's differential tests. *)

let dt = "(declare-datatypes ((Lst 0)) (((nil) (cons (head Int) (tail Lst)))))\n"

let all =
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
