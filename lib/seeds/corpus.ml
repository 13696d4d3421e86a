open Smtlib

(* ------------------------------------------------------------------ *)
(* Template expansion                                                  *)
(* ------------------------------------------------------------------ *)

let ints = [ 0; 1; 2; 3 ]

let expand1 template values = List.map (fun v -> Printf.sprintf template v) values

let expand2 template values =
  List.concat_map
    (fun a -> List.map (fun b -> Printf.sprintf template a b) values)
    values

(* ------------------------------------------------------------------ *)
(* Core / quantifier-heavy seeds (boolean skeleton donors)             *)
(* ------------------------------------------------------------------ *)

let core_seeds =
  [
    {|(declare-fun p () Bool)
(declare-fun q () Bool)
(assert (or (and p q) (not (or p q))))
(check-sat)|};
    {|(declare-fun p () Bool)
(declare-fun q () Bool)
(declare-fun r () Bool)
(assert (=> (and p q) (or r (not p))))
(assert (xor q r))
(check-sat)|};
    {|(declare-fun p () Bool)
(assert (ite p (not p) p))
(check-sat)|};
    {|(declare-fun a () Bool)
(declare-fun b () Bool)
(assert (let ((c (and a b))) (or c (not c))))
(assert (distinct a b))
(check-sat)|};
  ]
  @ expand2
      {|(declare-fun T () Int)
(assert (or (= T %d) (< T %d)))
(check-sat)|}
      ints

let quantifier_seeds =
  expand1
    {|(declare-fun x () Int)
(assert (exists ((f Int)) (and (< f x) (> f (- %d)))))
(check-sat)|}
    ints
  @ expand1
      {|(declare-fun y () Int)
(assert (forall ((z Int)) (=> (< z %d) (<= z y))))
(check-sat)|}
      ints
  @ [
      {|(declare-fun v () Real)
(declare-fun x9 () Bool)
(declare-fun x () Real)
(assert (forall ((r Real)) (or x9 (= (+ r 1.0) (mod 0 (to_int x))))))
(assert (< x (/ 1.0 (* v x))))
(check-sat)|};
      {|(declare-fun a () Int)
(assert (exists ((b Int) (c Int)) (and (= (+ b c) a) (distinct b c))))
(check-sat)|};
      {|(declare-fun u () Bool)
(assert (forall ((p Bool)) (or p u (not p))))
(check-sat)|};
      {|(declare-fun n () Int)
(assert (exists ((m Int)) (and (forall ((k Int)) (=> (< k m) (< k n))) (> m 0))))
(check-sat)|};
      {|(declare-fun x () Int)
(assert (forall ((k Int)) (let ((twice (* 2 k))) (or (= twice x) (< twice x) (> twice x)))))
(check-sat)|};
      {|(declare-fun p () Bool)
(assert (exists ((q Bool)) (let ((both (and p q))) (or both (not both) p))))
(check-sat)|};
    ]

(* ------------------------------------------------------------------ *)
(* Arithmetic                                                          *)
(* ------------------------------------------------------------------ *)

let int_seeds =
  expand2
    {|(declare-fun x () Int)
(declare-fun y () Int)
(assert (and (< x %d) (> y %d)))
(assert (= (mod (+ x y) 3) 1))
(check-sat)|}
    ints
  @ expand1
      {|(declare-fun a () Int)
(assert ((_ divisible %d) (abs a)))
(assert (> a 0))
(check-sat)|}
      [ 1; 2; 3; 4 ]
  @ [
      {|(declare-fun x () Int)
(assert (= (div x 2) (- (div (- x) 2))))
(check-sat)|};
      {|(declare-fun x () Int)
(declare-fun y () Int)
(assert (= (* x y) (+ x y)))
(assert (distinct x 0))
(check-sat)|};
      {|(declare-fun k () Int)
(assert (let ((twice (* 2 k))) (= (mod twice 2) 0)))
(check-sat)|};
    ]

let real_seeds =
  expand1
    {|(declare-fun r () Real)
(assert (and (> (* r r) %d.0) (< r 3.0)))
(check-sat)|}
    [ 0; 1; 2 ]
  @ [
      {|(declare-fun a () Real)
(declare-fun b () Real)
(assert (= (/ a b) 2.0))
(assert (distinct b 0.0))
(check-sat)|};
      {|(declare-fun x () Real)
(assert (is_int (* x 2.0)))
(assert (not (is_int x)))
(check-sat)|};
      {|(declare-fun x () Real)
(declare-fun n () Int)
(assert (= (to_real n) x))
(assert (< (to_int x) 2))
(check-sat)|};
    ]

(* ------------------------------------------------------------------ *)
(* Bit-vectors                                                         *)
(* ------------------------------------------------------------------ *)

let bv_seeds =
  [
    {|(declare-fun a () (_ BitVec 4))
(declare-fun b () (_ BitVec 4))
(assert (= (bvadd a b) (bvmul a b)))
(assert (bvult a b))
(check-sat)|};
    {|(declare-fun x () (_ BitVec 3))
(assert (= (bvnot (bvnot x)) x))
(assert (bvugt x #b001))
(check-sat)|};
    {|(declare-fun v () (_ BitVec 2))
(assert (distinct (bvshl v #b01) (bvlshr v #b01)))
(check-sat)|};
    {|(declare-fun a () (_ BitVec 4))
(assert (bvslt a (bvneg a)))
(check-sat)|};
    {|(declare-fun a () (_ BitVec 2))
(declare-fun b () (_ BitVec 2))
(assert (= (concat a b) #b0110))
(check-sat)|};
    {|(declare-fun x () (_ BitVec 4))
(assert (= ((_ extract 2 1) x) #b10))
(assert (= (bv2nat x) 5))
(check-sat)|};
    {|(declare-fun x () (_ BitVec 3))
(assert (exists ((y (_ BitVec 3))) (= (bvand x y) #b101)))
(check-sat)|};
  ]

(* ------------------------------------------------------------------ *)
(* Strings                                                             *)
(* ------------------------------------------------------------------ *)

let string_seeds =
  [
    {|(declare-fun s () String)
(assert (= (str.++ s "a") (str.++ "a" s)))
(assert (> (str.len s) 0))
(check-sat)|};
    {|(declare-fun s () String)
(declare-fun t () String)
(assert (str.contains s t))
(assert (not (str.prefixof t s)))
(check-sat)|};
    {|(declare-fun s () String)
(assert (str.in_re s (re.* (str.to_re "ab"))))
(assert (= (str.len s) 2))
(check-sat)|};
    {|(declare-fun s () String)
(assert (= (str.at s 0) "b"))
(assert (str.suffixof "a" s))
(check-sat)|};
    {|(declare-fun x () String)
(assert (= (str.to_int x) 0))
(assert (distinct x "0"))
(check-sat)|};
    {|(declare-fun s () String)
(assert (str.in_re s (re.union (str.to_re "a") (re.range "b" "d"))))
(check-sat)|};
    {|(declare-fun s () String)
(declare-fun i () Int)
(assert (= (str.indexof s "a" i) 1))
(assert (>= i 0))
(check-sat)|};
    {|(declare-fun s () String)
(assert (exists ((t String)) (= (str.replace s "a" "b") (str.++ t t))))
(check-sat)|};
  ]

(* ------------------------------------------------------------------ *)
(* Arrays                                                              *)
(* ------------------------------------------------------------------ *)

let array_seeds =
  [
    {|(declare-fun a () (Array Int Int))
(declare-fun i () Int)
(assert (= (select (store a i 1) i) 1))
(check-sat)|};
    {|(declare-fun a () (Array Int Int))
(declare-fun b () (Array Int Int))
(assert (distinct a b))
(assert (= (select a 0) (select b 0)))
(check-sat)|};
    {|(declare-fun a () (Array Int Bool))
(assert (select a 2))
(assert (not (select a 1)))
(check-sat)|};
    {|(declare-fun a () (Array Int Int))
(assert (= a ((as const (Array Int Int)) 0)))
(assert (= (select a 3) 0))
(check-sat)|};
    {|(declare-fun a () (Array Int Int))
(declare-fun i () Int)
(assert (forall ((j Int)) (<= (select a j) (select a i))))
(check-sat)|};
  ]

(* ------------------------------------------------------------------ *)
(* Datatypes                                                           *)
(* ------------------------------------------------------------------ *)

let datatype_seeds =
  [
    {|(declare-datatypes ((Lst 0)) (((nil) (cons (head Int) (tail Lst)))))
(declare-fun l () Lst)
(assert ((_ is cons) l))
(assert (= (head l) 2))
(check-sat)|};
    {|(declare-datatypes ((Lst 0)) (((nil) (cons (head Int) (tail Lst)))))
(declare-fun l () Lst)
(assert (distinct l (as nil Lst)))
(assert ((_ is nil) (tail l)))
(check-sat)|};
    {|(declare-datatypes ((Pair 0)) (((mk (fst Int) (snd Bool)))))
(declare-fun p () Pair)
(assert (snd p))
(assert (> (fst p) 1))
(check-sat)|};
    {|(declare-datatypes ((Lst 0)) (((nil) (cons (head Int) (tail Lst)))))
(declare-fun l () Lst)
(assert (= (match l ((nil 0) ((cons h t) h))) 1))
(check-sat)|};
    {|(declare-datatypes ((Lst 0)) (((nil) (cons (head Int) (tail Lst)))))
(declare-fun l () Lst)
(assert (match l (((cons h t) (> h 0)) (_ false))))
(check-sat)|};
    {|(declare-datatypes ((Lst 0)) (((nil) (cons (head Int) (tail Lst)))))
(declare-fun l () Lst)
(assert (= (match l ((nil (as nil Lst)) (other other))) l))
(check-sat)|};
  ]

(* ------------------------------------------------------------------ *)
(* Sequences (solver extension; the Figure 1 shape included)           *)
(* ------------------------------------------------------------------ *)

let seq_seeds =
  [
    {|(declare-fun s () (Seq Int))
(assert (exists ((f Int)) (distinct (seq.len (seq.rev s)) f)))
(check-sat)|};
    {|(declare-fun s () (Seq Int))
(assert (= (seq.len s) 2))
(assert (= (seq.nth s 0) 1))
(check-sat)|};
    {|(declare-fun s () (Seq Int))
(declare-fun t () (Seq Int))
(assert (seq.contains s t))
(assert (distinct t (as seq.empty (Seq Int))))
(check-sat)|};
    {|(declare-fun s () (Seq Int))
(assert (= (seq.++ s (seq.unit 1)) (seq.++ (seq.unit 1) s)))
(assert (> (seq.len s) 0))
(check-sat)|};
    {|(declare-fun s () (Seq Int))
(assert (seq.prefixof (seq.unit 0) (seq.rev s)))
(check-sat)|};
  ]

(* ------------------------------------------------------------------ *)
(* Sets / relations (cvc5 extension)                                   *)
(* ------------------------------------------------------------------ *)

let set_seeds =
  [
    {|(declare-fun a () (Set Int))
(assert (set.member 1 (set.union a (set.singleton 2))))
(assert (not (set.member 2 a)))
(check-sat)|};
    {|(declare-fun a () (Set Int))
(declare-fun b () (Set Int))
(assert (set.subset a b))
(assert (distinct (set.card a) (set.card b)))
(check-sat)|};
    {|(declare-fun r () (Set (Tuple Int Int)))
(assert (set.member (tuple 1 2) r))
(assert (set.member (tuple 2 1) (rel.transpose r)))
(check-sat)|};
    {|(declare-fun a () (Set Int))
(assert (set.is_empty (set.inter a (set.complement a))))
(check-sat)|};
    {|(declare-fun r () (Set (Tuple Int Int)))
(declare-fun q () (Set (Tuple Int Int)))
(assert (set.subset (rel.join r q) (rel.join q r)))
(assert (not (set.is_empty r)))
(check-sat)|};
  ]

(* ------------------------------------------------------------------ *)
(* Bags (cvc5 extension)                                               *)
(* ------------------------------------------------------------------ *)

let bag_seeds =
  [
    {|(declare-fun b () (Bag Int))
(assert (= (bag.count 1 b) 2))
(check-sat)|};
    {|(declare-fun a () (Bag Int))
(declare-fun b () (Bag Int))
(assert (bag.subbag a b))
(assert (> (bag.card b) (bag.card a)))
(check-sat)|};
    {|(declare-fun b () (Bag Int))
(assert (= (bag.setof b) b))
(assert (bag.member 0 b))
(check-sat)|};
    {|(declare-fun a () (Bag Int))
(assert (= (bag.union_disjoint a a) (bag.union_max a a)))
(assert (distinct a (as bag.empty (Bag Int))))
(check-sat)|};
  ]

(* ------------------------------------------------------------------ *)
(* Finite fields (cvc5 extension; the Figure 10a shape included)       *)
(* ------------------------------------------------------------------ *)

let ff_seeds =
  [
    {|(declare-fun v () (_ FiniteField 3))
(assert (= (ff.bitsum v (ff.mul v v)) (as ff2 (_ FiniteField 3))))
(check-sat)|};
    {|(declare-fun a () (_ FiniteField 5))
(declare-fun b () (_ FiniteField 5))
(assert (= (ff.add a b) (as ff0 (_ FiniteField 5))))
(assert (distinct a b))
(check-sat)|};
    {|(declare-fun x () (_ FiniteField 7))
(assert (= (ff.mul x x) (as ff2 (_ FiniteField 7))))
(check-sat)|};
    {|(declare-fun x () (_ FiniteField 3))
(assert (= (ff.neg x) x))
(assert (distinct x (as ff0 (_ FiniteField 3))))
(check-sat)|};
  ]

(* ------------------------------------------------------------------ *)
(* Mixed-theory seeds (rich skeletons)                                 *)
(* ------------------------------------------------------------------ *)

let mixed_seeds =
  [
    {|(declare-fun x () Int)
(declare-fun s () String)
(assert (or (= (str.len s) x) (< x 0)))
(assert (exists ((k Int)) (= (str.to_int s) k)))
(check-sat)|};
    {|(declare-fun a () (Array Int Int))
(declare-fun x () Int)
(assert (and (= (select a x) x) (or (> x 0) (= x (- 1)))))
(check-sat)|};
    {|(declare-fun b () Bool)
(declare-fun v () (_ BitVec 2))
(assert (ite b (= v #b00) (distinct v #b11)))
(check-sat)|};
    {|(declare-fun x () Int)
(declare-fun r () Real)
(assert (let ((y (+ x 1))) (or (< (to_real y) r) (= x 0))))
(check-sat)|};
    {|(declare-fun s () (Seq Int))
(declare-fun x () Int)
(assert (and (= (seq.len s) x) (exists ((i Int)) (= (seq.nth s i) 0))))
(check-sat)|};
  ]

(* ------------------------------------------------------------------ *)
(* Deeper structural donors: alternating quantifiers, implication      *)
(* chains, nested containers — the shapes Observation 2 cares about    *)
(* ------------------------------------------------------------------ *)

let structure_seeds =
  expand1
    {|(declare-fun a () Int)
(declare-fun b () Int)
(assert (=> (< a %d) (exists ((c Int)) (and (< a c) (< c b)))))
(check-sat)|}
    ints
  @ List.map
      (fun n ->
        Printf.sprintf
          {|(declare-fun p () Bool)
(declare-fun x () Int)
(assert (ite p (forall ((k Int)) (distinct k (- x %d))) (= x %d)))
(check-sat)|}
          n n)
      [ 0; 1 ]
  @ [
      {|(declare-fun x () Int)
(declare-fun y () Int)
(declare-fun z () Int)
(assert (=> (< x y) (=> (< y z) (< x z))))
(assert (distinct x y z))
(check-sat)|};
      {|(declare-fun f (Int) Int)
(declare-fun x () Int)
(assert (= (f (f x)) x))
(assert (distinct (f x) x))
(check-sat)|};
      {|(declare-fun f (Int) Bool)
(assert (exists ((a Int) (b Int)) (and (f a) (not (f b)))))
(check-sat)|};
      {|(declare-fun a () (Array Int (Array Int Int)))
(assert (= (select (select a 0) 1) 2))
(check-sat)|};
      {|(declare-fun s () (Seq Int))
(assert (forall ((i Int)) (=> (and (<= 0 i) (< i (seq.len s))) (<= (seq.nth s i) 3))))
(assert (> (seq.len s) 1))
(check-sat)|};
      {|(declare-fun v () (_ BitVec 2))
(declare-fun w () (_ BitVec 2))
(assert (xor (bvult v w) (bvult w v) (= v w)))
(check-sat)|};
      {|(declare-fun s () String)
(declare-fun t () String)
(assert (and (str.prefixof s t) (str.suffixof s t) (distinct s t)))
(check-sat)|};
      {|(declare-fun b () (Bag Int))
(declare-fun c () (Bag Int))
(assert (= (bag.union_disjoint b c) (bag.union_max b c)))
(assert (not (bag.subbag b c)))
(check-sat)|};
      {|(declare-fun r () (Set (Tuple Int Int)))
(assert (= (rel.join r (rel.transpose r)) (rel.join (rel.transpose r) r)))
(assert (not (set.is_empty r)))
(check-sat)|};
      {|(declare-fun a () (_ FiniteField 5))
(declare-fun b () (_ FiniteField 5))
(assert (= (ff.mul a b) (ff.add a b)))
(assert (distinct a (as ff0 (_ FiniteField 5))))
(check-sat)|};
      {|(declare-datatypes ((Pair 0)) (((mk (fst Int) (snd Bool)))))
(declare-fun p () Pair)
(declare-fun q () Pair)
(assert (=> (= (fst p) (fst q)) (= (snd p) (snd q))))
(assert (distinct p q))
(check-sat)|};
      {|(declare-fun s () (Set Int))
(assert (forall ((k Int)) (=> (set.member k s) (set.member (- k) s))))
(assert (set.member 1 s))
(check-sat)|};
      {|(declare-fun x () Real)
(declare-fun y () Real)
(assert (let ((m (* x y)) (a (+ x y))) (and (< m a) (> m 0.0))))
(check-sat)|};
      {|(declare-fun s () String)
(assert (str.in_re s (re.inter (re.* (re.range "a" "b")) (re.comp (str.to_re "")))))
(check-sat)|};
      {|(declare-fun x () Int)
(assert (exists ((v (_ BitVec 3))) (= (bv2nat v) x)))
(assert (> x 3))
(check-sat)|};
    ]

let sources_list =
  core_seeds @ quantifier_seeds @ int_seeds @ real_seeds @ bv_seeds @ string_seeds
  @ array_seeds @ datatype_seeds @ seq_seeds @ set_seeds @ bag_seeds @ ff_seeds
  @ mixed_seeds @ structure_seeds

let sources () = sources_list

let parsed = lazy (
  List.map
    (fun src ->
      match Parser.parse_script src with
      | Ok script -> script
      | Error e ->
        failwith
          (Printf.sprintf "seed corpus bug: %s in seed:\n%s" (Parser.error_message e)
             src))
    sources_list)

let all () = Lazy.force parsed

let by_theory key =
  List.filter (fun s -> List.mem key (Script.theories_used s)) (all ())

let filtered ~zeal ~cove () =
  List.filter
    (fun seed ->
      let outcome = ref true in
      (try
         let formula = Solver.Formula.of_script seed in
         let zr = Solver.Runner.run ~max_steps:40_000 zeal formula in
         let cr = Solver.Runner.run ~max_steps:40_000 cove formula in
         (match (zr, cr) with
         | Solver.Runner.R_crash _, _ | _, Solver.Runner.R_crash _ -> outcome := false
         | _ -> ())
       with _ -> ());
      !outcome)
    (all ())

let count () = List.length (all ())
