open Smtlib

type kind = Crash | Soundness | Invalid_model

type status =
  | Fixed
  | Confirmed
  | Reported
  | Duplicate_of of string

type spec = {
  id : string;
  solver : O4a_coverage.Coverage.solver_tag;
  kind : kind;
  theory : string;
  summary : string;
  introduced : int;
  fixed_commit : int option;
  status : status;
  crash_site : string option;
  pre_check : bool;
  historical : bool;
  rarity : int;
  trigger : Trigger.t;
}

let zeal = O4a_coverage.Coverage.Zeal
let cove = O4a_coverage.Coverage.Cove

let mk ?(fixed_commit = None) ?(crash_site = None) ?(pre_check = false)
    ?(historical = false) ?(rarity = 1) ~id ~solver ~kind ~theory ~summary
    ~introduced ~status trigger =
  {
    id;
    solver;
    kind;
    theory;
    summary;
    introduced;
    fixed_commit;
    status;
    crash_site;
    pre_check;
    historical;
    rarity;
    trigger;
  }

open Trigger

(* ------------------------------------------------------------------ *)
(* Campaign bugs: 27 Zeal (20 crash / 4 invalid model / 3 soundness),  *)
(* 18 Cove (15 / 2 / 1). Statuses mirror Table 1.                      *)
(* ------------------------------------------------------------------ *)

let zeal_campaign =
  [
    mk ~rarity:4 ~id:"zeal-001" ~solver:zeal ~kind:Crash ~theory:"ints" ~introduced:78 ~status:Fixed
      ~summary:"segfault evaluating mod-by-zero terms under a quantifier"
      ~crash_site:(Some "src/smt/theory_arith_int.cpp:1184 mk_idiv_mod_axioms")
      (all_of [ has_op "mod"; has_div_by_zero; has_quantifier ]);
    mk ~rarity:1 ~id:"zeal-002" ~solver:zeal ~kind:Crash ~theory:"reals" ~introduced:5 ~status:Fixed
      ~summary:
        "null dereference in model evaluator for partial functions mixing / and to_int"
      ~crash_site:(Some "src/model/model_evaluator.cpp:640 expand_fi_entry")
      (all_of [ has_op "/"; has_op "to_int" ]);
    mk ~rarity:5 ~id:"zeal-003" ~solver:zeal ~kind:Crash ~theory:"strings" ~introduced:60
      ~status:Fixed
      ~summary:"assertion violation in str.replace_all with an empty pattern"
      ~crash_site:(Some "src/ast/rewriter/seq_rewriter.cpp:3301 mk_str_replace_all")
      (all_of [ has_op "str.replace_all"; has_string_lit (fun s -> s = "") ]);
    mk ~rarity:1 ~id:"zeal-004" ~solver:zeal ~kind:Crash ~theory:"strings" ~introduced:80
      ~status:Fixed
      ~summary:"stack overflow compiling re.comp of a bounded repetition"
      ~crash_site:(Some "src/ast/rewriter/seq_rewriter.cpp:4470 mk_re_derivative")
      (all_of [ has_op "re.comp"; has_any_op [ "re.loop"; "re.*"; "re.+" ] ]);
    mk ~rarity:1 ~id:"zeal-005" ~solver:zeal ~kind:Crash ~theory:"seq" ~introduced:85 ~status:Fixed
      ~summary:"crash evaluating seq.nth of a reversed sequence under exists"
      ~crash_site:(Some "src/ast/seq_decl_plugin.cpp:712 mk_seq_nth")
      (all_of [ has_op "seq.rev"; has_op "seq.nth"; has_exists ]);
    mk ~rarity:5 ~id:"zeal-006" ~solver:zeal ~kind:Crash ~theory:"seq" ~introduced:88 ~status:Fixed
      ~summary:"out-of-bounds write combining seq.update and seq.extract"
      ~crash_site:(Some "src/smt/theory_seq.cpp:2215 add_update_axiom")
      (all_of [ has_op "seq.update"; has_op "seq.extract" ]);
    mk ~rarity:5 ~id:"zeal-007" ~solver:zeal ~kind:Crash ~theory:"bitvectors" ~introduced:76
      ~status:Fixed
      ~summary:"assertion violation rewriting bvurem under bvshl"
      ~crash_site:(Some "src/ast/rewriter/bv_rewriter.cpp:905 mk_bv_urem")
      (all_of [ has_op "bvurem"; has_op "bvshl" ]);
    mk ~rarity:5 ~id:"zeal-008" ~solver:zeal ~kind:Crash ~theory:"bitvectors" ~introduced:79
      ~status:Fixed
      ~summary:"crash on extract feeding bvudiv after width-aware simplification"
      ~crash_site:(Some "src/ast/rewriter/bv_rewriter.cpp:1422 mk_extract")
      (all_of [ has_op "extract"; has_op "bvudiv" ]);
    mk ~rarity:5 ~id:"zeal-009" ~solver:zeal ~kind:Crash ~theory:"arrays" ~introduced:82
      ~status:Fixed
      ~summary:"segfault instantiating const-array axiom under nested stores"
      ~crash_site:(Some "src/smt/theory_array_full.cpp:498 instantiate_default_axiom")
      (all_of [ has_op "store"; has_op "const"; min_term_depth 3 ]);
    mk ~rarity:5 ~id:"zeal-010" ~solver:zeal ~kind:Crash ~theory:"datatypes" ~introduced:83
      ~status:Fixed
      ~summary:"crash applying a tester after selector misapplication"
      ~crash_site:(Some "src/smt/theory_datatype.cpp:377 mk_is_axiom")
      (all_of [ has_datatypes; has_op "is" ]);
    mk ~rarity:5 ~id:"zeal-011" ~solver:zeal ~kind:Crash ~theory:"core" ~introduced:77
      ~status:Fixed
      ~summary:"exponential blowup then abort on deeply nested ite chains"
      ~crash_site:(Some "src/ast/rewriter/bool_rewriter.cpp:412 mk_ite_core")
      (op_count_at_least "ite" 3);
    mk ~rarity:5 ~id:"zeal-012" ~solver:zeal ~kind:Crash ~theory:"ints" ~introduced:81
      ~status:Fixed
      ~summary:"assertion violation normalizing (_ divisible n) for n >= 3"
      ~crash_site:(Some "src/ast/rewriter/arith_rewriter.cpp:260 mk_divides")
      (all_of
         [ has_op "divisible"; has_int_lit (fun n -> n >= 3); has_op "mod" ]);
    mk ~rarity:5 ~id:"zeal-013" ~solver:zeal ~kind:Crash ~theory:"strings" ~introduced:84
      ~status:Fixed
      ~summary:"crash in str.indexof length reasoning with negative offsets"
      ~crash_site:(Some "src/smt/theory_str.cpp:5110 process_indexof")
      (all_of [ has_op "str.indexof"; has_int_lit (fun n -> n < 0) ]);
    mk ~rarity:5 ~id:"zeal-014" ~solver:zeal ~kind:Crash ~theory:"core" ~introduced:30
      ~status:Fixed
      ~summary:"pattern-instantiation crash mixing forall and exists"
      ~crash_site:(Some "src/smt/mam.cpp:2330 execute_core")
      (all_of [ has_forall; has_exists ]);
    mk ~rarity:2 ~id:"zeal-015" ~solver:zeal ~kind:Crash ~theory:"core" ~introduced:86
      ~status:Fixed
      ~summary:"let-binding under a quantifier confuses skolemizer"
      ~crash_site:(Some "src/ast/rewriter/var_subst.cpp:88 operator()")
      (all_of [ has_let; has_quantifier ]);
    mk ~rarity:2 ~id:"zeal-016" ~solver:zeal ~kind:Crash ~theory:"bitvectors" ~introduced:87
      ~status:(Duplicate_of "zeal-007")
      ~summary:"bvxor over concat hits the same bvurem rewriter assertion"
      ~crash_site:(Some "src/ast/rewriter/bv_rewriter.cpp:905 mk_bv_urem")
      (all_of [ has_op "bvxor"; has_op "concat" ]);
    mk ~rarity:2 ~id:"zeal-017" ~solver:zeal ~kind:Crash ~theory:"reals" ~introduced:89
      ~status:Fixed
      ~summary:"crash deciding is_int over division results"
      ~crash_site:(Some "src/smt/theory_arith_nl.cpp:2019 mk_is_int_axiom")
      (all_of [ has_op "is_int"; has_op "/" ]);
    mk ~rarity:5 ~id:"zeal-018" ~solver:zeal ~kind:Crash ~theory:"strings" ~introduced:8
      ~status:Fixed
      ~summary:"six-year-latent crash composing str.from_code with str.to_code"
      ~crash_site:(Some "src/smt/theory_str.cpp:811 mk_char_axioms")
      (all_of [ has_op "str.from_code"; has_op "str.to_code" ]);
    mk ~rarity:5 ~id:"zeal-019" ~solver:zeal ~kind:Crash ~theory:"seq" ~introduced:90
      ~status:(Duplicate_of "zeal-005")
      ~summary:"seq.indexof after seq.replace reaches the seq.nth crash"
      ~crash_site:(Some "src/ast/seq_decl_plugin.cpp:712 mk_seq_nth")
      (all_of [ has_op "seq.indexof"; has_op "seq.replace" ]);
    mk ~rarity:5 ~id:"zeal-020" ~solver:zeal ~kind:Crash ~theory:"arrays" ~introduced:91
      ~status:Fixed
      ~summary:"select-over-store chain crashes the array model builder"
      ~crash_site:(Some "src/model/array_factory.cpp:151 get_some_value")
      (all_of [ has_op "select"; has_op "store"; min_term_depth 4 ]);
    mk ~rarity:5 ~id:"zeal-021" ~solver:zeal ~kind:Soundness ~theory:"ints" ~introduced:75
      ~status:Fixed
      ~summary:"mod of negative operands folded with C semantics instead of Euclidean"
      (all_of [ has_op "mod"; has_int_lit (fun n -> n < 0) ]);
    mk ~rarity:3 ~id:"zeal-022" ~solver:zeal ~kind:Soundness ~theory:"strings" ~introduced:92
      ~status:Fixed
      ~summary:"str.substr length clamp off by one in the length abstraction"
      (all_of [ has_op "str.substr"; has_int_lit (fun n -> n >= 2) ]);
    mk ~rarity:5 ~id:"zeal-023" ~solver:zeal ~kind:Soundness ~theory:"bitvectors" ~introduced:9
      ~status:Fixed
      ~summary:"six-year-latent sign mishandling in bvashr propagation"
      (all_of [ has_op "bvashr"; has_op "bvor" ]);
    mk ~rarity:5 ~id:"zeal-024" ~solver:zeal ~kind:Invalid_model ~theory:"ints" ~introduced:93
      ~status:Fixed
      ~summary:"model for div constraints under quantifiers assigns stale values"
      (all_of [ has_op "div"; has_quantifier ]);
    mk ~rarity:2 ~id:"zeal-025" ~solver:zeal ~kind:Invalid_model ~theory:"strings" ~introduced:94
      ~status:Fixed
      ~summary:"model completion drops str.contains constraints over concatenations"
      (all_of [ has_op "str.contains"; has_op "str.++" ]);
    mk ~rarity:4 ~id:"zeal-026" ~solver:zeal ~kind:Invalid_model ~theory:"arrays" ~introduced:95
      ~status:Fixed
      ~summary:"array model default clashes with an explicit store entry"
      (all_of [ has_op "store"; min_asserts 2 ]);
    mk ~rarity:1 ~id:"zeal-027" ~solver:zeal ~kind:Invalid_model ~theory:"seq" ~introduced:96
      ~status:Confirmed
      ~summary:"sequence model omits elements required by seq.contains over seq.++"
      (all_of [ has_op "seq.contains"; has_op "seq.++" ]);
  ]

let cove_campaign =
  [
    mk ~rarity:2 ~id:"cove-001" ~solver:cove ~kind:Crash ~theory:"sets" ~introduced:76
      ~status:Fixed ~pre_check:true
      ~summary:
        "type checker admits rel.join over nullary relations, then theory code segfaults"
      ~crash_site:(Some "src/theory/sets/theory_sets_rels.cpp:1034 computeJoin")
      (all_of
         [ has_op "rel.join"; has_sort (fun s -> s = Sort.Tuple []) ]);
    mk ~rarity:3 ~id:"cove-002" ~solver:cove ~kind:Crash ~theory:"seq" ~introduced:77
      ~status:Fixed
      ~summary:
        "model evaluation cannot reduce seq.nth over seq.rev to a constant (paper Fig. 1)"
      ~crash_site:(Some "src/theory/strings/theory_strings_utils.cpp:520 evalNth")
      (all_of [ has_op "seq.rev"; has_op "seq.nth"; has_quantifier ]);
    mk ~rarity:5 ~id:"cove-003" ~solver:cove ~kind:Crash ~theory:"seq" ~introduced:78
      ~status:Fixed
      ~summary:"seq.update under concatenation writes past the sequence end"
      ~crash_site:(Some "src/theory/strings/sequences_rewriter.cpp:2880 rewriteUpdate")
      (all_of [ has_op "seq.update"; has_op "seq.++"; min_term_depth 3 ]);
    mk ~rarity:5 ~id:"cove-004" ~solver:cove ~kind:Crash ~theory:"bags" ~introduced:80
      ~status:Fixed
      ~summary:"bag.difference_remove after bag.setof breaks multiplicity invariant"
      ~crash_site:(Some "src/theory/bags/bags_rewriter.cpp:664 rewriteDiffRemove")
      (all_of [ has_op "bag.difference_remove"; has_op "bag.setof" ]);
    mk ~rarity:5 ~id:"cove-005" ~solver:cove ~kind:Crash ~theory:"bags" ~introduced:81
      ~status:Fixed
      ~summary:"assertion violation counting elements of a bag built with negative multiplicity"
      ~crash_site:(Some "src/theory/bags/theory_bags.cpp:377 checkCountTerm")
      (all_of [ has_op "bag.count"; has_op "bag"; has_int_lit (fun n -> n < 0) ]);
    mk ~rarity:5 ~id:"cove-006" ~solver:cove ~kind:Crash ~theory:"finite_fields" ~introduced:82
      ~status:Fixed
      ~summary:"ff.bitsum with three or more children overruns the coefficient buffer"
      ~crash_site:(Some "src/theory/ff/theory_ff.cpp:512 bitsumPoly")
      (all_of [ has_op "ff.bitsum"; min_term_depth 3 ]);
    mk ~rarity:5 ~id:"cove-007" ~solver:cove ~kind:Crash ~theory:"sets" ~introduced:83
      ~status:Fixed
      ~summary:"set.complement inside set.minus loses the finite-universe guard"
      ~crash_site:(Some "src/theory/sets/theory_sets_private.cpp:1491 checkUniverse")
      (all_of [ has_op "set.complement"; has_op "set.minus" ]);
    mk ~rarity:5 ~id:"cove-008" ~solver:cove ~kind:Crash ~theory:"sets" ~introduced:84
      ~status:Fixed
      ~summary:"rel.transpose feeding rel.join flips the join column bookkeeping"
      ~crash_site:(Some "src/theory/sets/theory_sets_rels.cpp:780 composeTuples")
      (all_of [ has_op "rel.transpose"; has_op "rel.join" ]);
    mk ~rarity:2 ~id:"cove-009" ~solver:cove ~kind:Crash ~theory:"strings" ~introduced:85
      ~status:Fixed
      ~summary:"regular-expression difference under boolean combinators loops in the derivative engine"
      ~crash_site:(Some "src/theory/strings/regexp_operation.cpp:1201 intersectInternal")
      (all_of [ has_op "re.diff"; has_any_op [ "re.inter"; "re.union" ] ]);
    mk ~rarity:5 ~id:"cove-010" ~solver:cove ~kind:Crash ~theory:"arrays" ~introduced:86
      ~status:Fixed
      ~summary:"deep store/select chains crash the arrays care-graph computation"
      ~crash_site:(Some "src/theory/arrays/theory_arrays.cpp:1712 computeCareGraph")
      (all_of [ has_op "store"; has_op "select"; min_term_depth 5 ]);
    mk ~rarity:5 ~id:"cove-011" ~solver:cove ~kind:Crash ~theory:"datatypes" ~introduced:87
      ~status:Fixed
      ~summary:"tester applied under a nested constructor dereferences a null sygus grammar"
      ~crash_site:(Some "src/theory/datatypes/theory_datatypes.cpp:958 checkTester")
      (all_of [ has_datatypes; has_op "is"; min_term_depth 3 ]);
    mk ~rarity:5 ~id:"cove-012" ~solver:cove ~kind:Crash ~theory:"ints" ~introduced:88
      ~status:Fixed
      ~summary:"(_ divisible n) combined with mod derails the integer normal form"
      ~crash_site:(Some "src/theory/arith/nl/iand_solver.cpp:214 checkInitial")
      (all_of [ has_op "divisible"; has_op "mod" ]);
    mk ~rarity:5 ~id:"cove-013" ~solver:cove ~kind:Crash ~theory:"sets" ~introduced:89
      ~status:Fixed
      ~summary:"quantifying over set sorts crashes the model builder's cardinality pass"
      ~crash_site:(Some "src/theory/sets/cardinality_extension.cpp:1340 mkModelValue")
      (all_of [ has_forall; has_sort (fun s -> match s with Sort.Set _ -> true | _ -> false) ]);
    mk ~rarity:5 ~id:"cove-014" ~solver:cove ~kind:Crash ~theory:"strings" ~introduced:90
      ~status:Fixed
      ~summary:"str.replace_all whose replacement comes from str.at corrupts rewrite cache"
      ~crash_site:(Some "src/theory/strings/sequences_rewriter.cpp:1966 rewriteReplaceAll")
      (all_of [ has_op "str.replace_all"; has_op "str.at" ]);
    mk ~rarity:5 ~id:"cove-015" ~solver:cove ~kind:Crash ~theory:"seq" ~introduced:91
      ~status:Confirmed
      ~summary:"seq.extract length arithmetic mixes with seq.len and underflows"
      ~crash_site:(Some "src/theory/strings/sequences_rewriter.cpp:2410 rewriteExtract")
      (all_of [ has_op "seq.extract"; has_op "seq.len" ]);
    mk ~rarity:5 ~id:"cove-016" ~solver:cove ~kind:Invalid_model ~theory:"finite_fields"
      ~introduced:75 ~status:Fixed
      ~summary:
        "ff.bitsum ignores coefficient multipliers for constant children (paper Fig. 10a)"
      (all_of [ has_op "ff.bitsum" ]);
    mk ~rarity:5 ~id:"cove-017" ~solver:cove ~kind:Invalid_model ~theory:"sets" ~introduced:92
      ~status:Confirmed
      ~summary:"set.card constraints over unions satisfied by an inconsistent model"
      (all_of [ has_op "set.card"; has_op "set.union" ]);
    mk ~rarity:5 ~id:"cove-018" ~solver:cove ~kind:Soundness ~theory:"bags" ~introduced:93
      ~status:Fixed
      ~summary:"bag.subbag over inter_min decided with inverted pointwise comparison"
      (all_of [ has_op "bag.subbag"; has_op "bag.inter_min" ]);
  ]

(* ------------------------------------------------------------------ *)
(* Historical (already-fixed) bugs for the unique-known-bug            *)
(* experiments of Figures 7 and 9.                                     *)
(* ------------------------------------------------------------------ *)

let hist ?rarity ~id ~solver ~kind ~theory ~summary ~introduced ~fixed trigger =
  mk ?rarity ~id ~solver ~kind ~theory ~summary ~introduced ~status:Fixed
    ~fixed_commit:(Some fixed) ~historical:true
    ~crash_site:
      (if kind = Crash then Some (Printf.sprintf "hist/%s.cpp:1 site_%s" theory id)
       else None)
    trigger

let zeal_historical =
  [
    hist ~rarity:4 ~id:"zeal-h101" ~solver:zeal ~kind:Crash ~theory:"ints" ~introduced:12 ~fixed:76
      ~summary:"abs over integer division by zero crashes the arith simplifier"
      (all_of [ has_op "abs"; has_div_by_zero; has_op "+" ]);
    hist ~rarity:8 ~id:"zeal-h102" ~solver:zeal ~kind:Crash ~theory:"core" ~introduced:18 ~fixed:78
      ~summary:"repeated xor chains crash the boolean rewriter"
      (all_of [ op_count_at_least "xor" 2; has_op "ite"; has_quantifier ]);
    hist ~rarity:8 ~id:"zeal-h103" ~solver:zeal ~kind:Crash ~theory:"strings" ~introduced:25
      ~fixed:80 ~summary:"str.substr bounds interact badly with str.len splitting"
      (all_of [ has_op "str.substr"; has_op "str.len"; has_quantifier ]);
    hist ~rarity:2 ~id:"zeal-h104" ~solver:zeal ~kind:Crash ~theory:"seq" ~introduced:35 ~fixed:82
      ~summary:"seq.rev length axiom instantiation crash"
      (all_of [ has_op "seq.rev"; has_op "seq.len" ]);
    hist ~rarity:3 ~id:"zeal-h105" ~solver:zeal ~kind:Crash ~theory:"seq" ~introduced:40 ~fixed:84
      ~summary:"seq.at over concatenations splits on a stale node"
      (all_of [ has_op "seq.at"; has_op "seq.++" ]);
    hist ~rarity:8 ~id:"zeal-h106" ~solver:zeal ~kind:Crash ~theory:"bitvectors" ~introduced:45
      ~fixed:86 ~summary:"bvlshr of bvneg miscomputes the sign bit and asserts"
      (all_of [ has_op "bvlshr"; has_op "bvneg"; has_quantifier ]);
    hist ~rarity:5 ~id:"zeal-h107" ~solver:zeal ~kind:Soundness ~theory:"reals" ~introduced:50
      ~fixed:88 ~summary:"to_int of to_real simplified to identity on negatives"
      (all_of [ has_op "to_int"; has_op "to_real"; has_op "/" ]);
    hist ~rarity:8 ~id:"zeal-h108" ~solver:zeal ~kind:Crash ~theory:"core" ~introduced:55 ~fixed:90
      ~summary:"let bound inside forall trips variable indexing"
      (all_of [ has_forall; has_let; has_op "abs" ]);
    hist ~rarity:10 ~id:"zeal-h109" ~solver:zeal ~kind:Invalid_model ~theory:"strings"
      ~introduced:58 ~fixed:92
      ~summary:"model drops str.prefixof facts rewritten from str.replace"
      (all_of [ has_op "str.replace"; has_op "str.prefixof"; has_op "str.at" ]);
    hist ~rarity:8 ~id:"zeal-h110" ~solver:zeal ~kind:Crash ~theory:"arrays" ~introduced:62
      ~fixed:94 ~summary:"select over a const array crashes model-based quantifier instantiation"
      (all_of [ has_op "select"; has_op "const"; has_quantifier ]);
  ]

let cove_historical =
  [
    hist ~rarity:4 ~id:"cove-h101" ~solver:cove ~kind:Crash ~theory:"core" ~introduced:16 ~fixed:76
      ~summary:"chained distinct across three operands crashes the congruence closure"
      (all_of [ op_count_at_least "distinct" 2; has_op "abs" ]);
    hist ~rarity:8 ~id:"cove-h102" ~solver:cove ~kind:Crash ~theory:"ints" ~introduced:20 ~fixed:78
      ~summary:"div under abs breaks the Euclidean lowering pass"
      (all_of [ has_op "div"; has_op "abs"; has_quantifier ]);
    hist ~rarity:7 ~id:"cove-h103" ~solver:cove ~kind:Crash ~theory:"sets" ~introduced:30 ~fixed:80
      ~summary:"set.card of an intersection double-counts shared elements and asserts"
      (all_of [ has_op "set.inter"; has_op "set.card" ]);
    hist ~rarity:6 ~id:"cove-h104" ~solver:cove ~kind:Crash ~theory:"sets" ~introduced:34 ~fixed:82
      ~summary:"join after transpose misaligns tuple arities"
      (all_of [ has_op "rel.join"; has_op "rel.transpose" ]);
    hist ~rarity:7 ~id:"cove-h105" ~solver:cove ~kind:Crash ~theory:"bags" ~introduced:38 ~fixed:84
      ~summary:"bag.card over inter_min caches a negative count"
      (all_of [ has_op "bag.inter_min"; has_op "bag.card" ]);
    hist ~rarity:6 ~id:"cove-h106" ~solver:cove ~kind:Crash ~theory:"finite_fields" ~introduced:42
      ~fixed:86 ~summary:"ff.neg of a product loses the field modulus"
      (all_of [ has_op "ff.mul"; has_op "ff.neg" ]);
    hist ~rarity:8 ~id:"cove-h107" ~solver:cove ~kind:Crash ~theory:"seq" ~introduced:46 ~fixed:88
      ~summary:"seq.prefixof of a reversed sequence spins the sequence solver"
      (all_of [ has_op "seq.prefixof"; has_op "seq.rev"; has_op "seq.len" ]);
    hist ~rarity:8 ~id:"cove-h108" ~solver:cove ~kind:Soundness ~theory:"strings" ~introduced:50
      ~fixed:90 ~summary:"lexicographic str.<= over concatenations compared bytewise"
      (all_of [ has_op "str.<="; has_op "str.++"; has_quantifier ]);
    hist ~rarity:7 ~id:"cove-h109" ~solver:cove ~kind:Invalid_model ~theory:"bags" ~introduced:54
      ~fixed:92 ~summary:"bag.setof model keeps stale multiplicities seen by bag.count"
      (all_of [ has_op "bag.setof"; has_op "bag.count" ]);
    hist ~rarity:5 ~id:"cove-h110" ~solver:cove ~kind:Crash ~theory:"strings" ~introduced:60
      ~fixed:94 ~summary:"re.range under re.union builds an inverted character interval"
      (all_of [ has_op "re.range"; has_op "re.union"; has_op "re.*" ]);
  ]

let campaign_bugs = zeal_campaign @ cove_campaign

let historical_bugs = zeal_historical @ cove_historical

let all = campaign_bugs @ historical_bugs

let find id = List.find_opt (fun s -> s.id = id) all

let active ~solver ~commit =
  List.filter
    (fun s ->
      s.solver = solver
      && s.introduced <= commit
      && match s.fixed_commit with None -> true | Some f -> commit < f)
    all

let extension_keys = [ "seq"; "sets"; "bags"; "finite_fields" ]

let is_extension_theory_bug s = List.mem s.theory extension_keys

(* Whether a formula actually triggers the bug: the structural predicate must
   match AND a deterministic "deep condition" must hold — real triggers depend
   on solver-internal state that a syntactic predicate over-approximates. The
   rarity gate hashes the set of operators the assertions apply, so the
   outcome is reproducible and varies across mutants of the same shape. *)
let fires_index spec ix =
  Trigger.holds spec.trigger ix
  && (spec.rarity <= 1
     || Hashtbl.hash (spec.id, Trigger.op_set ix) mod spec.rarity = 0)

let fires spec script = fires_index spec (Trigger.index script)

let kind_to_string = function
  | Crash -> "crash"
  | Soundness -> "soundness"
  | Invalid_model -> "invalid model"

let kind_of_string = function
  | "crash" -> Some Crash
  | "soundness" -> Some Soundness
  | "invalid model" -> Some Invalid_model
  | _ -> None

let status_to_string = function
  | Fixed -> "fixed"
  | Confirmed -> "confirmed"
  | Reported -> "reported"
  | Duplicate_of other -> "duplicate of " ^ other
