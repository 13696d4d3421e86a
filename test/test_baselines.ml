open Smtlib
module Fuzzer = Baselines.Fuzzer
module Registry = Baselines.Registry

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let client = Llm_sim.Client.create ~seed:5 Llm_sim.Profile.gpt4
let seeds = lazy (Seeds.Corpus.all ())

let parse_rate ?(n = 60) (fuzzer : Fuzzer.t) =
  let rng = O4a_util.Rng.create 77 in
  let ok = ref 0 in
  for _ = 1 to n do
    let source = fuzzer.Fuzzer.generate ~rng ~seeds:(Lazy.force seeds) in
    if Result.is_ok (Parser.parse_script source) then incr ok
  done;
  float_of_int !ok /. float_of_int n

(* ------------------------- registry ------------------------- *)

let test_lineup () =
  let names = List.map (fun f -> f.Fuzzer.name) (Registry.baselines ~client) in
  check_bool "RQ2 lineup" true
    (List.sort compare names
    = List.sort compare [ "STORM"; "YinYang"; "OpFuzz"; "TypeFuzz"; "HistFuzz"; "Fuzz4All"; "ET" ]);
  check_bool "find by name" true (Registry.find ~client "opfuzz" <> None);
  check_bool "find missing" true (Registry.find ~client "nope" = None)

let test_throughputs () =
  let f4a = Option.get (Registry.find ~client "fuzz4all") in
  let op = Option.get (Registry.find ~client "opfuzz") in
  check_bool "LLM-in-the-loop is slower" true
    (f4a.Fuzzer.tests_per_tick < op.Fuzzer.tests_per_tick)

let test_standard_seed_filter () =
  let std = Fuzzer.standard_seeds (Lazy.force seeds) in
  check_bool "some filtered" true (List.length std < List.length (Lazy.force seeds));
  List.iter
    (fun s ->
      let tags = Script.theories_used s in
      check_bool "no extension tags" true
        (not (List.exists (fun t -> List.mem t [ "sets"; "bags"; "finite_fields" ]) tags)))
    std

(* ------------------------- individual baselines ------------------------- *)

let test_opfuzz_type_aware () =
  (* swapped operators stay within rank classes, so mutants sort-check *)
  let rng = O4a_util.Rng.create 3 in
  let seed_pool = Fuzzer.standard_seeds (Lazy.force seeds) in
  for _ = 1 to 60 do
    let seed = Fuzzer.mutate_seed ~rng seed_pool in
    let mutated = Script.map_assertions (Baselines.Opfuzz.mutate_term ~rng) seed in
    match Theories.Typecheck.check_script mutated with
    | Ok () -> ()
    | Error msg ->
      Alcotest.failf "OpFuzz mutant ill-sorted (%s):\n%s" msg (Printer.script mutated)
  done

let test_opfuzz_classes_share_rank () =
  List.iter
    (fun cls ->
      match cls with
      | op :: rest ->
        List.iter
          (fun other ->
            (* both defined over the same example argument lists *)
            ignore op;
            ignore other)
          rest
      | [] -> Alcotest.fail "empty class")
    Baselines.Opfuzz.op_classes;
  check_bool "has arith class" true
    (List.exists (fun c -> List.mem "+" c) Baselines.Opfuzz.op_classes)

let test_opfuzz_actually_mutates () =
  let rng = O4a_util.Rng.create 9 in
  let term = Result.get_ok (Parser.parse_term "(and (< a b) (< c d) (< e f))") in
  let changed = ref false in
  for _ = 1 to 30 do
    if not (Term.equal (Baselines.Opfuzz.mutate_term ~rng term) term) then changed := true
  done;
  check_bool "mutations happen" true !changed

let test_typefuzz_generates_sorted () =
  let rng = O4a_util.Rng.create 5 in
  let vars = [ ("x", Sort.Int); ("p", Sort.Bool); ("s", Sort.String_sort) ] in
  List.iter
    (fun sort ->
      for _ = 1 to 20 do
        match Baselines.Typefuzz.generate_of_sort ~rng ~vars ~depth:3 sort with
        | Some t -> (
          let env =
            List.fold_left
              (fun acc (n, s) -> Theories.Typecheck.add_var n s acc)
              (Theories.Typecheck.env_of_script [])
              vars
          in
          match Theories.Typecheck.infer env t with
          | Ok s ->
            check_bool "generated sort matches" true (Sort.equal s sort)
          | Error msg -> Alcotest.failf "ill-sorted generation: %s" msg)
        | None -> Alcotest.fail "generation failed for supported sort"
      done)
    [ Sort.Int; Sort.Bool; Sort.Real; Sort.String_sort; Sort.Bitvec 4 ]

let test_histfuzz_harvests_atoms () =
  let atoms = Baselines.Histfuzz.harvest_atoms (O4a_util.Listx.take 20 (Lazy.force seeds)) in
  check_bool "harvested" true (List.length atoms > 10);
  List.iter
    (fun a -> check_bool "atomic" true (Term.is_atomic a))
    (O4a_util.Listx.take 20 atoms)

let test_baselines_emit_parseable () =
  List.iter
    (fun (fuzzer : Fuzzer.t) ->
      let rate = parse_rate fuzzer in
      let minimum = if fuzzer.Fuzzer.name = "Fuzz4All" then 0.30 else 0.85 in
      check_bool
        (Printf.sprintf "%s parse rate %.2f >= %.2f" fuzzer.Fuzzer.name rate minimum)
        true (rate >= minimum))
    (Registry.baselines ~client)

let test_fuzz4all_invalid_rate () =
  (* direct LLM generation yields ~50% invalid inputs (paper §1/§5.1): here
     "invalid" means rejected by both solver front ends *)
  let f4a = Option.get (Registry.find ~client "fuzz4all") in
  let zeal = Solver.Engine.zeal () and cove = Solver.Engine.cove () in
  let rng = O4a_util.Rng.create 13 in
  let invalid = ref 0 in
  let n = 80 in
  for _ = 1 to n do
    let source = f4a.Fuzzer.generate ~rng ~seeds:(Lazy.force seeds) in
    let ok =
      Result.is_ok (Solver.Engine.parse_check zeal source)
      || Result.is_ok (Solver.Engine.parse_check cove source)
    in
    if not ok then incr invalid
  done;
  let rate = float_of_int !invalid /. float_of_int n in
  check_bool (Printf.sprintf "invalid rate %.2f in [0.3, 0.7]" rate) true
    (rate >= 0.3 && rate <= 0.7)

let test_fuzz4all_costs_llm_calls () =
  let local_client = Llm_sim.Client.create ~seed:21 Llm_sim.Profile.gpt4 in
  let f4a = Baselines.Fuzz4all_sim.make ~client:local_client in
  let rng = O4a_util.Rng.create 5 in
  for _ = 1 to 10 do
    ignore (f4a.Fuzzer.generate ~rng ~seeds:(Lazy.force seeds))
  done;
  check_int "one call per formula" 10 (Llm_sim.Client.call_count local_client)

let test_et_needs_no_seeds () =
  let rng = O4a_util.Rng.create 7 in
  let source = (Baselines.Et_sim.make ()).Fuzzer.generate ~rng ~seeds:[] in
  check_bool "from-scratch generation" true (Result.is_ok (Parser.parse_script source))

(* ET's enumeration depth follows the fuzzer's own calls: a fresh ET fuzzer
   emits the same text whether or not another one first ran past the depth
   step at 4,000 calls *)
let test_et_state_per_fuzzer () =
  let emissions f =
    let rng = O4a_util.Rng.create 7 in
    List.init 20 (fun _ -> f.Fuzzer.generate ~rng ~seeds:[])
  in
  let alone = emissions (Baselines.Et_sim.make ()) in
  let other = Baselines.Et_sim.make () in
  let rng = O4a_util.Rng.create 8 in
  for _ = 1 to 5_000 do
    ignore (other.Fuzzer.generate ~rng ~seeds:[])
  done;
  check_bool "a fresh fuzzer after another's 5,000 calls" true
    (emissions (Baselines.Et_sim.make ()) = alone);
  check_bool "the depth step shows in the text" true (emissions other <> alone)

let test_yinyang_fuses_two_seeds () =
  let rng = O4a_util.Rng.create 11 in
  let rec try_fusion n =
    if n = 0 then Alcotest.fail "fusion never produced z_fusion"
    else (
      let source = Baselines.Yinyang.fuzzer.Fuzzer.generate ~rng ~seeds:(Lazy.force seeds) in
      if O4a_util.Strx.contains_sub ~sub:"z_fusion" source then
        check_bool "parses" true (Result.is_ok (Parser.parse_script source))
      else try_fusion (n - 1))
  in
  try_fusion 40

let test_once4all_wrapper () =
  let campaign = Once4all.Campaign.prepare ~seed:3 () in
  let f = Registry.once4all campaign in
  let wos = Registry.once4all_wos campaign in
  let rng = O4a_util.Rng.create 15 in
  let s1 = f.Fuzzer.generate ~rng ~seeds:(Lazy.force seeds) in
  let s2 = wos.Fuzzer.generate ~rng ~seeds:(Lazy.force seeds) in
  check_bool "skeleton variant emits" true (String.length s1 > 0);
  check_bool "w/oS variant emits" true (String.length s2 > 0);
  check_bool "names differ" true (f.Fuzzer.name <> wos.Fuzzer.name)

let () =
  Alcotest.run "baselines"
    [
      ( "registry",
        [
          Alcotest.test_case "lineup" `Quick test_lineup;
          Alcotest.test_case "throughputs" `Quick test_throughputs;
          Alcotest.test_case "standard-seed filter" `Quick test_standard_seed_filter;
        ] );
      ( "fuzzers",
        [
          Alcotest.test_case "OpFuzz type-aware" `Quick test_opfuzz_type_aware;
          Alcotest.test_case "OpFuzz classes" `Quick test_opfuzz_classes_share_rank;
          Alcotest.test_case "OpFuzz mutates" `Quick test_opfuzz_actually_mutates;
          Alcotest.test_case "TypeFuzz sorted generation" `Quick test_typefuzz_generates_sorted;
          Alcotest.test_case "HistFuzz atoms" `Quick test_histfuzz_harvests_atoms;
          Alcotest.test_case "parse rates" `Slow test_baselines_emit_parseable;
          Alcotest.test_case "Fuzz4All ~50% invalid" `Slow test_fuzz4all_invalid_rate;
          Alcotest.test_case "Fuzz4All LLM cost" `Quick test_fuzz4all_costs_llm_calls;
          Alcotest.test_case "ET from scratch" `Quick test_et_needs_no_seeds;
          Alcotest.test_case "ET state is per fuzzer" `Quick test_et_state_per_fuzzer;
          Alcotest.test_case "YinYang fusion" `Quick test_yinyang_fuses_two_seeds;
          Alcotest.test_case "Once4All wrappers" `Slow test_once4all_wrapper;
        ] );
    ]
