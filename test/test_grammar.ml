module Cfg = Grammar_kit.Cfg
module Ebnf = Grammar_kit.Ebnf
module Generate = Grammar_kit.Generate

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let tiny =
  {|bool ::= "true" | "(not " bool ")" | @hook
int ::= "0" | "(succ " int ")"
|}

let parsed = Ebnf.parse_exn tiny

(* ------------------------- EBNF parsing ------------------------- *)

let test_parse_shape () =
  check_int "two productions" 2 (List.length parsed.Cfg.productions);
  Alcotest.(check string) "start" "bool" parsed.Cfg.start;
  match Cfg.find parsed "bool" with
  | Some p -> check_int "three alternatives" 3 (List.length p.Cfg.alternatives)
  | None -> Alcotest.fail "bool production missing"

let test_parse_symbols () =
  match Cfg.find parsed "bool" with
  | Some { Cfg.alternatives = [ [ Cfg.Lit "true" ];
                                [ Cfg.Lit "(not "; Cfg.Ref "bool"; Cfg.Lit ")" ];
                                [ Cfg.Hook "hook" ] ]; _ } -> ()
  | _ -> Alcotest.fail "alternative symbols wrong"

let test_parse_multiline_production () =
  let g = Ebnf.parse_exn "a ::= \"x\"\n  | \"y\"\n  | \"z\"\nb ::= a" in
  (match Cfg.find g "a" with
  | Some p -> check_int "three alts" 3 (List.length p.Cfg.alternatives)
  | None -> Alcotest.fail "a missing");
  check_int "two prods" 2 (List.length g.Cfg.productions)

let test_parse_errors () =
  check_bool "empty" true (Result.is_error (Ebnf.parse ""));
  check_bool "no def" true (Result.is_error (Ebnf.parse "\"just a literal\""));
  check_bool "empty hook" true (Result.is_error (Ebnf.parse "a ::= @"));
  check_bool "unterminated string" true (Result.is_error (Ebnf.parse "a ::= \"x"))

let test_round_trip () =
  let printed = Cfg.to_string parsed in
  let reparsed = Ebnf.parse_exn printed in
  check_bool "round trip" true (reparsed = parsed)

(* ------------------------- Validation ------------------------- *)

let test_validate_ok () =
  check_bool "tiny valid" true (Cfg.validate parsed = Ok ())

let test_validate_undefined_ref () =
  let g = Ebnf.parse_exn "a ::= b" in
  match Cfg.validate g with
  | Error msg -> check_bool "names b" true (O4a_util.Strx.contains_sub ~sub:"b" msg)
  | Ok () -> Alcotest.fail "undefined ref accepted"

let test_validate_unproductive () =
  let g = Ebnf.parse_exn "a ::= \"(\" a \")\"" in
  match Cfg.validate g with
  | Error msg -> check_bool "unproductive" true (O4a_util.Strx.contains_sub ~sub:"finite" msg)
  | Ok () -> Alcotest.fail "unproductive grammar accepted"

let test_min_depths () =
  let depths = Cfg.min_depths parsed in
  check_int "bool depth" 1 (List.assoc "bool" depths);
  check_int "int depth" 1 (List.assoc "int" depths);
  let g = Ebnf.parse_exn "a ::= \"x\" | b\nb ::= a \" \" a | \"y\"" in
  let depths = Cfg.min_depths g in
  check_int "a min" 1 (List.assoc "a" depths);
  check_int "b min" 1 (List.assoc "b" depths)

let test_hooks_listed () =
  check_bool "hook found" true (Cfg.hooks parsed = [ "hook" ])

let test_map_alternatives () =
  (* dropping every recursive alternative leaves only terminals *)
  let g =
    Cfg.map_alternatives
      (fun _ alt ->
        if List.exists (function Cfg.Ref _ -> true | _ -> false) alt then None
        else Some alt)
      parsed
  in
  match Cfg.find g "bool" with
  | Some p -> check_int "two alts left" 2 (List.length p.Cfg.alternatives)
  | None -> Alcotest.fail "bool dropped"

let test_add_alternative () =
  let g = Cfg.add_alternative parsed "bool" [ Cfg.Lit "false" ] in
  (match Cfg.find g "bool" with
  | Some p -> check_int "four alts" 4 (List.length p.Cfg.alternatives)
  | None -> Alcotest.fail "missing");
  let g2 = Cfg.add_alternative parsed "fresh" [ Cfg.Lit "new" ] in
  check_bool "new production" true (Cfg.find g2 "fresh" <> None)

(* ------------------------- Generation ------------------------- *)

let const_hook name = "<" ^ name ^ ">"

let test_generation_terminates_and_matches () =
  let rng = O4a_util.Rng.create 5 in
  for _ = 1 to 200 do
    match Generate.run (Generate.compile parsed) ~hook:const_hook ~rng "bool" with
    | Ok s ->
      check_bool "derivable text" true
        (s = "true" || s = "<hook>"
        || O4a_util.Strx.starts_with ~prefix:"(not " s)
    | Error msg -> Alcotest.failf "generation failed: %s" msg
  done

let test_generation_depth_budget () =
  let rng = O4a_util.Rng.create 5 in
  (* budget 1 cannot expand the recursive alternative *)
  for _ = 1 to 50 do
    match Generate.run ~max_depth:1 (Generate.compile parsed) ~hook:const_hook ~rng "bool" with
    | Ok s -> check_bool "leaf only" true (s = "true" || s = "<hook>")
    | Error msg -> Alcotest.failf "budget generation failed: %s" msg
  done

let test_generation_unknown_start () =
  let rng = O4a_util.Rng.create 5 in
  check_bool "unknown start" true
    (Result.is_error (Generate.run (Generate.compile parsed) ~hook:const_hook ~rng "nope"))

let test_generation_reaches_all_alternatives () =
  let rng = O4a_util.Rng.create 17 in
  let seen_not = ref false and seen_hook = ref false and seen_true = ref false in
  for _ = 1 to 300 do
    match Generate.run (Generate.compile parsed) ~hook:const_hook ~rng "bool" with
    | Ok s ->
      if s = "true" then seen_true := true;
      if s = "<hook>" then seen_hook := true;
      if O4a_util.Strx.starts_with ~prefix:"(not" s then seen_not := true
    | Error _ -> ()
  done;
  check_bool "true seen" true !seen_true;
  check_bool "hook seen" true !seen_hook;
  check_bool "recursion seen" true !seen_not

let test_sentences_batch () =
  let rng = O4a_util.Rng.create 23 in
  let c = Generate.compile parsed in
  let out =
    List.filter_map Result.to_option
      (List.init 25 (fun _ -> Generate.run c ~hook:const_hook ~rng "bool"))
  in
  check_int "all produced" 25 (List.length out)

let generation_props =
  [
    QCheck.Test.make ~name:"ground-truth grammars always derive" ~count:60
      QCheck.(pair small_int (int_range 0 11))
      (fun (seed, theory_idx) ->
        let theory = List.nth Theories.Theory.all theory_idx in
        let cfg =
          Ebnf.parse_exn (Theories.Theory.ground_truth_cfg theory.Theories.Theory.id)
        in
        let rng = O4a_util.Rng.create seed in
        match Generate.run (Generate.compile cfg) ~hook:const_hook ~rng cfg.Cfg.start with
        | Ok s -> String.length s > 0
        | Error _ -> false);
  ]

(* ------------------------- Compiled vs list walk ------------------------- *)

(* One derivation's observable behaviour: its result (or the hook's
   exception), the hook calls in order, and the RNG state after it. The hook
   draws from the same RNG, as the generators' hooks do, so a draw out of
   order anywhere shows. *)
let observe ~seed derive =
  let rng = O4a_util.Rng.create seed in
  let calls = ref [] in
  let hook h =
    calls := h :: !calls;
    if h = "boom" then failwith "hook boom raised"
    else Printf.sprintf "<%s%d>" h (O4a_util.Rng.int rng 3)
  in
  let result = match derive ~hook ~rng with r -> Ok r | exception Failure m -> Error m in
  (result, List.rev !calls, O4a_util.Rng.bits64 rng)

let agrees ~seed ~max_depth cfg start =
  observe ~seed (fun ~hook ~rng -> Reference.Derive.sentence ~max_depth ~cfg ~hook ~rng start)
  = observe ~seed (fun ~hook ~rng ->
        Generate.run ~max_depth (Generate.compile cfg) ~hook ~rng start)

(* small grammars over a..d that may repeat a name, reference the undefined
   "z", hold empty or unproductive productions, or call the raising hook *)
let random_cfg =
  let open QCheck.Gen in
  let name = map (fun i -> String.make 1 (Char.chr (97 + i))) (int_bound 3) in
  let symbol =
    frequency
      [
        (3, map (fun i -> Cfg.Lit (string_of_int i)) (int_bound 9));
        (1, map (fun h -> Cfg.Hook h) (oneofl [ "h"; "k"; "boom" ]));
        (3, map (fun n -> Cfg.Ref n) name);
        (1, return (Cfg.Ref "z"));
      ]
  in
  let production =
    map2
      (fun lhs alternatives -> { Cfg.lhs; alternatives })
      name
      (list_size (int_bound 3) (list_size (int_bound 3) symbol))
  in
  map2
    (fun start productions -> { Cfg.start; productions })
    (frequency [ (5, name); (1, return "z") ])
    (list_size (int_range 1 5) production)

let prepared = lazy (Once4all.Campaign.prepare ~seed:42 ()).Once4all.Campaign.generators

let differential_props =
  [
    QCheck.Test.make ~name:"compiled = list walk: random grammars" ~count:1000
      QCheck.(
        triple (make ~print:Cfg.to_string random_cfg) small_int (int_range 0 10))
      (fun (cfg, seed, max_depth) -> agrees ~seed ~max_depth cfg cfg.Cfg.start);
    QCheck.Test.make
      ~name:"compiled = list walk: theory grammars, with and without defects" ~count:60
      QCheck.(triple bool small_int (int_range 0 10))
      (fun (defects, seed, max_depth) ->
        List.for_all
          (fun gen ->
            let cfg =
              Gensynth.Generator.effective_cfg
                (if defects then gen
                 else Gensynth.Generator.perfect gen.Gensynth.Generator.theory)
            in
            List.for_all
              (fun start -> agrees ~seed ~max_depth cfg start)
              (Cfg.nonterminals cfg))
          (Lazy.force prepared));
  ]

let () =
  Alcotest.run "grammar"
    [
      ( "ebnf",
        [
          Alcotest.test_case "shape" `Quick test_parse_shape;
          Alcotest.test_case "symbols" `Quick test_parse_symbols;
          Alcotest.test_case "multiline" `Quick test_parse_multiline_production;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "round trip" `Quick test_round_trip;
        ] );
      ( "validation",
        [
          Alcotest.test_case "valid" `Quick test_validate_ok;
          Alcotest.test_case "undefined ref" `Quick test_validate_undefined_ref;
          Alcotest.test_case "unproductive" `Quick test_validate_unproductive;
          Alcotest.test_case "min depths" `Quick test_min_depths;
          Alcotest.test_case "hooks" `Quick test_hooks_listed;
          Alcotest.test_case "map alternatives" `Quick test_map_alternatives;
          Alcotest.test_case "add alternative" `Quick test_add_alternative;
        ] );
      ( "generation",
        [
          Alcotest.test_case "terminates" `Quick test_generation_terminates_and_matches;
          Alcotest.test_case "depth budget" `Quick test_generation_depth_budget;
          Alcotest.test_case "unknown start" `Quick test_generation_unknown_start;
          Alcotest.test_case "covers alternatives" `Quick
            test_generation_reaches_all_alternatives;
          Alcotest.test_case "batch" `Quick test_sentences_batch;
        ]
        @ List.map QCheck_alcotest.to_alcotest generation_props );
      ("compiled", List.map QCheck_alcotest.to_alcotest differential_props);
    ]
