open Theories
module Rng = O4a_util.Rng
module Cfg = Grammar_kit.Cfg
module Telemetry = O4a_telemetry.Telemetry
module Json = O4a_telemetry.Json

type report = {
  theory_key : string;
  iterations : int;
  sample_num : int;
  initial_valid : int;
  final_valid : int;
  history : (int * int) list;
  llm_calls : int;
  llm_tokens : int;
}

let sample_num = 20
let max_iter = 10

(* runtime-flaw pools per theory: which emission mistakes an LLM plausibly
   makes when implementing this theory's generator *)
let flaw_pool (theory : Theory.info) =
  match theory.Theory.id with
  | Theory.Core -> [ Flaw.Unbalanced_output ]
  | Theory.Ints -> [ Flaw.Bad_int_literal; Flaw.Missing_declaration ]
  | Theory.Reals -> [ Flaw.Bad_real_literal ]
  | Theory.Reals_ints -> [ Flaw.Bad_int_literal; Flaw.Bad_real_literal ]
  | Theory.Bitvectors ->
    [ Flaw.Width_mismatch; Flaw.Bad_int_literal; Flaw.Unbalanced_output ]
  | Theory.Strings ->
    [ Flaw.Bad_string_quotes; Flaw.Missing_declaration; Flaw.Bad_int_literal ]
  | Theory.Arrays -> [ Flaw.Missing_declaration; Flaw.Bad_int_literal ]
  | Theory.Datatypes -> [ Flaw.Missing_declaration; Flaw.Unbalanced_output ]
  | Theory.Seq ->
    [ Flaw.Missing_declaration; Flaw.Bad_int_literal; Flaw.Unbalanced_output ]
  | Theory.Sets -> [ Flaw.Missing_declaration; Flaw.Unbalanced_output ]
  | Theory.Bags ->
    [ Flaw.Missing_declaration; Flaw.Bad_int_literal; Flaw.Unbalanced_output ]
  | Theory.Finite_fields ->
    [ Flaw.Field_mismatch; Flaw.Bad_ff_literal; Flaw.Missing_declaration;
      Flaw.Unbalanced_output ]

(* first operator symbol inside an alternative, e.g. "(seq.rev " -> seq.rev *)
let alt_first_op alt =
  List.find_map
    (function
      | Cfg.Lit text when String.length text > 1 && text.[0] = '(' ->
        let body = String.sub text 1 (String.length text - 1) in
        let op =
          match String.index_opt body ' ' with
          | Some i -> String.sub body 0 i
          | None -> body
        in
        let op =
          if O4a_util.Strx.starts_with ~prefix:"(_ " (String.sub text 0 (min 3 (String.length text))) then op
          else op
        in
        if op = "" || op = "_" || op = "as" || op = "let" then None else Some op
      | _ -> None)
    alt

let initial_generator ~client theory =
  let profile = Llm_sim.Client.profile client in
  (* phase 1: grammar summarization *)
  let _ =
    Llm_sim.Client.query client
      (Llm_sim.Prompt.Summarize_grammar
         { theory = theory.Theory.name; doc = Theory.doc theory.Theory.id })
  in
  let base = Grammar_kit.Ebnf.parse_exn (Theory.ground_truth_cfg theory.Theory.id) in
  let difficulty = theory.Theory.difficulty in
  let rng =
    Llm_sim.Client.rng_for client ("summarize:" ^ theory.Theory.key)
  in
  let defects = ref [] in
  List.iter
    (fun p ->
      List.iteri
        (fun alt_idx alt ->
          let halluc_p =
            profile.Llm_sim.Profile.hallucination_rate *. (0.5 +. difficulty)
          in
          if Rng.chance rng halluc_p then (
            match alt_first_op alt with
            | Some op when Theories.Signature.is_known_op op ->
              let to_op =
                Llm_sim.Client.misspell_op client ~key:theory.Theory.key op
              in
              defects :=
                Flaw.Hallucinate { lhs = p.Cfg.lhs; alt_idx; from_op = op; to_op }
                :: !defects
            | _ -> ())
          else if Rng.chance rng profile.Llm_sim.Profile.omission_rate then
            defects := Flaw.Drop_alt { lhs = p.Cfg.lhs; alt_idx } :: !defects
          else if
            Rng.chance rng (profile.Llm_sim.Profile.hallucination_rate *. difficulty)
          then defects := Flaw.Arity_break { lhs = p.Cfg.lhs; alt_idx } :: !defects)
        p.Cfg.alternatives)
    base.Cfg.productions;
  (* the informally documented nullary-join corner (sets only) *)
  if
    theory.Theory.id = Theory.Sets
    && Llm_sim.Client.decide client ~key:("unitjoin:" ^ theory.Theory.key) 0.6
  then defects := Flaw.Unit_join :: !defects;
  (* phase 2: generator implementation *)
  let _ =
    Llm_sim.Client.query client
      (Llm_sim.Prompt.Implement_generator
         { theory = theory.Theory.name; cfg_text = Cfg.to_string base })
  in
  let frng = Llm_sim.Client.rng_for client ("implement:" ^ theory.Theory.key) in
  let flaw_p =
    min 0.95 (difficulty *. profile.Llm_sim.Profile.flaw_scale)
  in
  let runtime_flaws = List.filter (fun _ -> Rng.chance frng flaw_p) (flaw_pool theory) in
  Generator.make ~theory ~defects:!defects ~runtime_flaws ~version:0
    ~profile_name:profile.Llm_sim.Profile.name

let validate_one ~solvers source =
  let rec try_solvers errors = function
    | [] -> Error (List.rev errors)
    | solver :: rest -> (
      match Solver.Engine.parse_check solver source with
      | Ok _ -> Ok ()
      | Error msg -> try_solvers (msg :: errors) rest)
  in
  try_solvers [] solvers

(* prefer the error from a solver that supports the theory: the last solver
   in the list is Cove, which implements every extension *)
let preferred_error = function
  | [] -> "unknown error"
  | msgs ->
    (match
       List.find_opt
         (fun m -> not (O4a_util.Strx.contains_sub ~sub:"unknown constant or function symbol 'set" m))
         (List.rev msgs)
     with
    | Some m -> m
    | None -> O4a_util.Listx.last msgs)

let validate_samples ~solvers ~rng gen =
  let results =
    List.init sample_num (fun _ ->
        match Generator.generate gen ~rng with
        | emitted -> (
          let source = Generator.render_script [ emitted ] in
          match validate_one ~solvers source with
          | Ok () -> Ok ()
          | Error msgs -> Error (preferred_error msgs))
        | exception Failure msg -> Error ("parse error: generator crashed: " ^ msg))
  in
  let valid = List.length (List.filter Result.is_ok results) in
  let errors = List.filter_map (function Error m -> Some m | Ok () -> None) results in
  (valid, errors)

(* LLM-side distillation: deduplicate error messages by category *)
let distill errors =
  errors
  |> List.map (fun m -> (Flaw.category_to_string (Flaw.categorize_error m), m))
  |> O4a_util.Listx.group_by fst
  |> List.map (fun (_, group) -> snd (List.hd group))

let repair ~client gen categories iteration =
  let profile = Llm_sim.Client.profile client in
  let rng =
    Llm_sim.Client.rng_for client
      (Printf.sprintf "repair:%s:%d" gen.Generator.theory.Theory.key iteration)
  in
  let skill = profile.Llm_sim.Profile.repair_skill in
  let fix_runtime flaw =
    let addressed = List.exists (fun c -> Flaw.runtime_matches c flaw) categories in
    not (addressed && Rng.chance rng skill)
  in
  let fix_defect defect =
    let addressed = List.exists (fun c -> Flaw.defect_matches c defect) categories in
    not (addressed && Rng.chance rng skill)
  in
  (* occasional regression, as real refinement rounds sometimes introduce *)
  let regression =
    if Rng.chance rng 0.05 then
      (match flaw_pool gen.Generator.theory with
      | [] -> []
      | pool -> [ Rng.choose rng pool ])
    else []
  in
  (* the runtime flaws' draws come before the defects': the order fixes
     which repairs succeed *)
  let runtime_flaws =
    O4a_util.Listx.dedup (List.filter fix_runtime gen.Generator.runtime_flaws @ regression)
  in
  let defects = List.filter fix_defect gen.Generator.defects in
  Generator.make ~theory:gen.Generator.theory ~defects ~runtime_flaws ~version:iteration
    ~profile_name:gen.Generator.profile_name

let self_correct ?(max_iter = max_iter) ~client ~solvers gen =
  let tel = Telemetry.global () in
  let calls_before = Llm_sim.Client.call_count client in
  let tokens_before = Llm_sim.Client.token_count client in
  let theory_key = gen.Generator.theory.Theory.key in
  let rng_at iter =
    Llm_sim.Client.rng_for client (Printf.sprintf "samples:%s:%d" theory_key iter)
  in
  (* iterate: validate the current generator; refine while samples fail and
     budget remains; keep the best version seen (Algorithm 1, line 31) *)
  let rec loop iter gen valid errors best best_valid history =
    Telemetry.emit tel "synthesis.iteration"
      [
        ("theory", Json.String theory_key);
        ("iteration", Json.Int iter);
        ("valid", Json.Int valid);
        ("samples", Json.Int sample_num);
      ];
    let best, best_valid = if valid > best_valid then (gen, valid) else (best, best_valid) in
    let history = (iter, valid) :: history in
    if valid >= sample_num || iter >= max_iter then
      (best, iter, best_valid, List.rev history)
    else (
      let distilled = distill errors in
      let categories = List.map Flaw.categorize_error distilled in
      let _ =
        Llm_sim.Client.query client
          (Llm_sim.Prompt.Self_correct
             { theory = theory_key; errors = distilled; impl = Generator.describe gen })
      in
      let gen' = repair ~client gen categories (iter + 1) in
      let valid', errors' = validate_samples ~solvers ~rng:(rng_at (iter + 1)) gen' in
      loop (iter + 1) gen' valid' errors' best best_valid history)
  in
  let initial_valid, initial_errors = validate_samples ~solvers ~rng:(rng_at 0) gen in
  let best, iterations, final_valid, history =
    loop 0 gen initial_valid initial_errors gen (-1) []
  in
  ( best,
    {
      theory_key;
      iterations;
      sample_num;
      initial_valid;
      final_valid;
      history;
      llm_calls = Llm_sim.Client.call_count client - calls_before;
      llm_tokens = Llm_sim.Client.token_count client - tokens_before;
    } )

let construct ?max_iter ~client ~solvers theory =
  let gen = initial_generator ~client theory in
  self_correct ?max_iter ~client ~solvers gen
