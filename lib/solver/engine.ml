open Smtlib
module Coverage = O4a_coverage.Coverage

(* Per-engine activity accounting: cumulative decision/propagation tallies
   (kept by a thin wrapper over the coverage callback — plain integer
   increments, cheap enough to stay always-on) plus the last query's deltas,
   which the telemetry layer reads through {!last_query_stats}. *)
type activity = {
  mutable queries : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable last_steps : int;
  mutable last_decisions : int;
  mutable last_propagations : int;
}

type t = {
  tag : Coverage.solver_tag;
  commit : int;
  pure : bool;
  bugs : Bug_db.spec list;
  rules : Rewrite.rule list;
  order : Search.order;
  cov : string -> int -> int -> unit;  (* [cov key line n]: n hits at once *)
  act : activity;
  steps_used : int ref;
}

type outcome =
  | Sat of Model.t
  | Unsat
  | Resource_limit
  | Unknown of string
  | Error of string

exception Crash of { signature : string; bug_id : string; solver_name : string }

(* ------------------------------------------------------------------ *)
(* Coverage point inventory                                            *)
(* ------------------------------------------------------------------ *)

let solver_name_of = function Coverage.Zeal -> "zeal" | Coverage.Cove -> "cove"

let zeal_theories =
  [ "core"; "ints"; "reals"; "reals_ints"; "bitvectors"; "strings"; "arrays";
    "datatypes"; "seq" ]

let cove_theories = zeal_theories @ [ "sets"; "bags"; "finite_fields" ]

let supported_theories = function
  | Coverage.Zeal -> zeal_theories
  | Coverage.Cove -> cove_theories

(* operator keys the evaluator reports beyond the per-theory op lists *)
let extra_eval_keys =
  [ "forall"; "exists"; "extract"; "zero_extend"; "sign_extend"; "rotate_left";
    "rotate_right"; "int2bv"; "divisible"; "re.loop"; "char"; "tuple.select"; "is";
    "const-array"; "tester"; "datatype-ctor"; "datatype-sel"; "uf-apply";
    "set.universe"; "to_real"; "to_int"; "is_int"; "seq.nth"; "bv2nat"; "/";
    "div"; "mod"; "abs"; "re.diff"; "bvsdiv"; "bvsrem"; "bvsmod"; "bvnand";
    "bvnor"; "bvxnor"; "match" ]

let search_keys =
  [ "search.entry"; "search.sat"; "search.unsat"; "propagate.entry";
    "propagate.bound"; "propagate.empty"; "domain.bool"; "domain.int";
    "domain.real"; "domain.string"; "domain.reglan"; "domain.bitvec"; "domain.ff";
    "domain.seq"; "domain.set"; "domain.bag"; "domain.array"; "domain.tuple";
    "domain.datatype"; "domain.uninterpreted" ]

let frontend_keys =
  [ "cmd.set-logic"; "cmd.set-option"; "cmd.set-info"; "cmd.declare-sort";
    "cmd.declare-fun"; "cmd.declare-const"; "cmd.define-fun"; "cmd.declare-datatypes";
    "cmd.assert"; "cmd.check-sat"; "cmd.get-model"; "cmd.get-value"; "cmd.push";
    "cmd.pop"; "cmd.echo"; "cmd.exit"; "typecheck.ok"; "typecheck.error";
    "unsupported.symbol" ]

(* Files of code unreachable in the default configuration — real solvers have
   large feature areas (proofs, interpolation, parallel mode, tactics) that
   default-mode fuzzing never touches, which is why absolute coverage stays
   well below 100% (paper §4.3). *)
let cold_files tag =
  match tag with
  | Coverage.Zeal ->
    [ ("src/opt/optimizer.cpp", 10); ("src/proof/proof_checker.cpp", 14);
      ("src/interp/interpolator.cpp", 8); ("src/tactic/portfolio.cpp", 12);
      ("src/sat/parallel_sat.cpp", 10); ("src/muz/fixedpoint.cpp", 16) ]
  | Coverage.Cove ->
    [ ("src/proof/lfsc_printer.cpp", 12); ("src/theory/quantifiers/sygus_engine.cpp", 18);
      ("src/smt/interpolation.cpp", 8); ("src/parallel/portfolio_driver.cpp", 10);
      ("src/theory/fp/theory_fp.cpp", 16); ("src/api/java_bindings.cpp", 8) ]

let theory_file tag key =
  match tag with
  | Coverage.Zeal -> Printf.sprintf "src/smt/theory_%s.cpp" key
  | Coverage.Cove -> Printf.sprintf "src/theory/%s/theory_%s.cpp" key key

(* which theory an eval key belongs to, for file attribution *)
let key_theory key =
  let starts p = O4a_util.Strx.starts_with ~prefix:p key in
  if starts "domain." || starts "search." then "search"
  else if starts "cmd." || starts "typecheck." || starts "unsupported." then "frontend"
  else if starts "str." || starts "re." || key = "char" then "strings"
  else if starts "seq." then "seq"
  else if starts "set." || starts "rel." || key = "tuple" || key = "tuple.select" then "sets"
  else if starts "bag" then "bags"
  else if starts "ff." then "finite_fields"
  else if starts "bv" || List.mem key [ "concat"; "extract"; "zero_extend"; "sign_extend";
                                        "rotate_left"; "rotate_right"; "int2bv" ] then
    "bitvectors"
  else if List.mem key [ "select"; "store"; "const-array" ] then "arrays"
  else if List.mem key [ "is"; "tester"; "datatype-ctor"; "datatype-sel" ] then "datatypes"
  else if List.mem key [ "+"; "-"; "*"; "div"; "mod"; "abs"; "divisible"; "<"; "<="; ">";
                         ">=" ] then "ints"
  else if List.mem key [ "/"; "to_real"; "to_int"; "is_int" ] then "reals"
  else if List.mem key [ "forall"; "exists" ] then "quantifiers"
  else "core"

type cov_table = (string * int, Coverage.point) Hashtbl.t

(* Shared engine state, audited for multi-domain construction:
   - [tables] below: lazily built per solver, mutex-guarded here;
   - the coverage point registry: mutex-guarded inside {!Coverage};
   - [Bug_db] specs and [Rewrite] rules: immutable after module init.
   Everything else an engine mutates ([act], [steps_used]) lives in the
   engine value itself, so engines are re-entrant across domains as long as
   each domain uses its own engine. *)
let tables : (Coverage.solver_tag, cov_table) Hashtbl.t = Hashtbl.create 4
let tables_mutex = Mutex.create ()

let lines_per_op = 3 (* line 0 = entry; 1 = edge case; 2 = cold path *)

let build_table tag =
  let tbl : cov_table = Hashtbl.create 512 in
  let theories = supported_theories tag in
  let op_keys =
    List.concat_map
      (fun key ->
        match Theories.Theory.find_by_key key with
        | Some info -> info.Theories.Theory.ops
        | None -> [])
      theories
    @ [ "not"; "and"; "or"; "xor"; "=>"; "="; "distinct"; "ite" ]
    @ List.filter
        (fun k ->
          let th = key_theory k in
          th = "core" || th = "quantifiers" || List.mem th theories
          || th = "search" || th = "frontend" || th = "arrays" || th = "datatypes"
          || th = "ints" || th = "reals")
        extra_eval_keys
  in
  let op_keys = O4a_util.Listx.dedup op_keys in
  let register_key ?(n = lines_per_op) key =
    let file =
      let th = key_theory key in
      if th = "search" then
        (match tag with
        | Coverage.Zeal -> "src/smt/smt_search.cpp"
        | Coverage.Cove -> "src/smt/model_search.cpp")
      else if th = "frontend" then
        (match tag with
        | Coverage.Zeal -> "src/parsers/smt2/smt2parser.cpp"
        | Coverage.Cove -> "src/parser/smt2/smt2_driver.cpp")
      else theory_file tag th
    in
    let lines = Coverage.register_lines ~solver:tag ~file ~func:key n in
    Array.iteri (fun i p -> Hashtbl.replace tbl (key, i) p) lines
  in
  List.iter register_key op_keys;
  List.iter (register_key ~n:2) search_keys;
  List.iter (register_key ~n:2) frontend_keys;
  (* rewrite rules *)
  let rules =
    match tag with Coverage.Zeal -> Rewrite.zeal_rules | Coverage.Cove -> Rewrite.cove_rules
  in
  List.iter
    (fun rule_name ->
      let file =
        match tag with
        | Coverage.Zeal -> "src/ast/rewriter/rewriter.cpp"
        | Coverage.Cove -> "src/rewriter/rewrites.cpp"
      in
      let lines = Coverage.register_lines ~solver:tag ~file ~func:("rw." ^ rule_name) 2 in
      Array.iteri (fun i p -> Hashtbl.replace tbl ("rw." ^ rule_name, i) p) lines)
    (Rewrite.rule_names rules);
  (* cold, unreachable-by-default feature areas *)
  List.iter
    (fun (file, nfuncs) ->
      for i = 0 to nfuncs - 1 do
        ignore
          (Coverage.register_lines ~solver:tag ~file ~func:(Printf.sprintf "cold_%d" i) 3)
      done)
    (cold_files tag);
  tbl

let table_for tag =
  Mutex.protect tables_mutex (fun () ->
      match Hashtbl.find_opt tables tag with
      | Some tbl -> tbl
      | None ->
        let tbl = build_table tag in
        Hashtbl.add tables tag tbl;
        tbl)

let prewarm () =
  ignore (table_for Coverage.Zeal);
  ignore (table_for Coverage.Cove)

let cov_fn tag =
  let tbl = table_for tag in
  fun key line n ->
    match Hashtbl.find_opt tbl (key, line) with
    | Some p -> Coverage.hit_n p n
    | None -> ()

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let make ?(pure = false) tag ~commit =
  let act =
    {
      queries = 0;
      decisions = 0;
      propagations = 0;
      last_steps = 0;
      last_decisions = 0;
      last_propagations = 0;
    }
  in
  let base_cov = cov_fn tag in
  let cov key line n =
    if line = 0 then
      if O4a_util.Strx.starts_with ~prefix:"domain." key then
        act.decisions <- act.decisions + n
      else if O4a_util.Strx.starts_with ~prefix:"propagate." key then
        act.propagations <- act.propagations + n;
    base_cov key line n
  in
  {
    tag;
    commit;
    pure;
    bugs = (if pure then [] else Bug_db.active ~solver:tag ~commit);
    rules =
      (match tag with
      | Coverage.Zeal -> Rewrite.zeal_rules
      | Coverage.Cove -> Rewrite.cove_rules);
    order = (match tag with Coverage.Zeal -> Search.Ascending | Coverage.Cove -> Search.Descending);
    cov;
    act;
    steps_used = ref 0;
  }

let zeal ?commit () =
  let history = Version.zeal_history in
  make Coverage.Zeal ~commit:(Option.value commit ~default:history.Version.trunk)

let cove ?commit () =
  let history = Version.cove_history in
  make Coverage.Cove ~commit:(Option.value commit ~default:history.Version.trunk)

let pure tag =
  make ~pure:true tag ~commit:(Version.history_of tag).Version.trunk

let tag t = t.tag

let commit t = t.commit

let is_pure t = t.pure

let name t =
  let history = Version.history_of t.tag in
  let version =
    if t.commit >= history.Version.trunk then "trunk"
    else (
      match
        List.find_opt (fun (r : Version.release) -> r.commit = t.commit)
          history.Version.releases
      with
      | Some r -> r.version
      | None -> Printf.sprintf "dev-%d" t.commit)
  in
  Printf.sprintf "%s-%s" (solver_name_of t.tag) version

(* ------------------------------------------------------------------ *)
(* Solving pipeline                                                    *)
(* ------------------------------------------------------------------ *)

let command_key = function
  | Command.Set_logic _ -> "cmd.set-logic"
  | Command.Set_option _ -> "cmd.set-option"
  | Command.Set_info _ -> "cmd.set-info"
  | Command.Declare_sort _ -> "cmd.declare-sort"
  | Command.Declare_fun _ -> "cmd.declare-fun"
  | Command.Declare_const _ -> "cmd.declare-const"
  | Command.Define_fun _ -> "cmd.define-fun"
  | Command.Declare_datatypes _ -> "cmd.declare-datatypes"
  | Command.Assert _ -> "cmd.assert"
  | Command.Check_sat -> "cmd.check-sat"
  | Command.Get_model -> "cmd.get-model"
  | Command.Get_value _ -> "cmd.get-value"
  | Command.Push _ -> "cmd.push"
  | Command.Pop _ -> "cmd.pop"
  | Command.Echo _ -> "cmd.echo"
  | Command.Exit -> "cmd.exit"

(* operator prefixes a solver does not implement *)
let unsupported_symbol t script =
  let banned_prefixes =
    match t.tag with
    | Coverage.Zeal -> [ "set."; "rel."; "bag"; "ff."; "tuple" ]
    | Coverage.Cove -> []
  in
  if banned_prefixes = [] then None
  else (
    let bad name =
      List.exists (fun p -> O4a_util.Strx.starts_with ~prefix:p name) banned_prefixes
    in
    let found = ref None in
    let check_term term =
      ignore
        (Term.fold
           (fun () node ->
             (match node with
             | Term.App (n, _) | Term.Indexed_app (n, _, _)
             | Term.Qual (n, _) | Term.Qual_app (n, _, _) ->
               if bad n && !found = None then found := Some n
             | _ -> ());
             ())
           () term)
    in
    List.iter check_term (Script.assertions script);
    let bad_sort s =
      let rec go = function
        | Sort.Set _ | Sort.Bag _ | Sort.Finite_field _ | Sort.Tuple _ -> true
        | Sort.Seq s' -> go s'
        | Sort.Array (i, e) -> go i || go e
        | _ -> false
      in
      go s
    in
    (match !found with
    | None ->
      if
        List.exists
          (fun (d : Script.fun_decl) ->
            List.exists bad_sort (d.result_sort :: d.arg_sorts))
          (Script.declared_funs script)
        && t.tag = Coverage.Zeal
      then found := Some "unsupported sort"
    | Some _ -> ());
    !found)

let crash_of_bug t (bug : Bug_db.spec) =
  Crash
    {
      signature =
        Option.value bug.Bug_db.crash_site ~default:("unknown-site:" ^ bug.Bug_db.id);
      bug_id = bug.Bug_db.id;
      solver_name = name t;
    }

(* the active bugs [pred] selects whose trigger fires on the formula; the
   formula's index is built on the first bug [pred] lets through *)
let triggered t formula pred =
  List.filter
    (fun (b : Bug_db.spec) -> pred b && Bug_db.fires_index b (Formula.index formula))
    t.bugs

let corrupt_model t script (model : Model.t) =
  (* a real invalid-model bug hands back an assignment that does NOT satisfy
     the constraints: search for a perturbation the formula rejects *)
  let datatypes = Script.declared_datatypes script in
  let with_value name v' =
    {
      model with
      Model.consts =
        List.map (fun (n, old) -> if n = name then (n, v') else (n, old))
          model.Model.consts;
    }
  in
  let candidates =
    List.concat_map
      (fun (name, v) ->
        Domain.enumerate ~datatypes (Value.sort_of v)
        |> List.filter (fun v' -> not (Value.equal v v'))
        |> List.map (fun v' -> with_value name v'))
      model.Model.consts
  in
  ignore t;
  let falsifying =
    List.find_opt
      (fun candidate ->
        match Model.check ~max_steps:60_000 script candidate with
        | Model.Fails _ -> true
        | Model.Holds | Model.Check_unknown _ -> false)
      (O4a_util.Listx.take 24 candidates)
  in
  Option.value falsifying ~default:model

let solve_script_inner ?(max_steps = 200_000) t formula =
  let script = Formula.script formula in
  List.iter (fun cmd -> t.cov (command_key cmd) 0 1) script;
  (* 1. unsupported features *)
  match unsupported_symbol t script with
  | Some sym ->
    t.cov "unsupported.symbol" 0 1;
    Error (Printf.sprintf "unknown constant or function symbol '%s'" sym)
  | None -> (
    (* 2. pre-typecheck bug escapes (e.g. the nullary-join type-check hole) *)
    match triggered t formula (fun b -> b.Bug_db.pre_check && b.Bug_db.kind = Bug_db.Crash) with
    | bug :: _ -> raise (crash_of_bug t bug)
    | [] -> (
      (* 3. sort checking *)
      match Formula.check formula with
      | Error msg ->
        t.cov "typecheck.error" 0 1;
        Error msg
      | Ok () -> (
        t.cov "typecheck.ok" 0 1;
        (* 4. remaining crash bugs *)
        match triggered t formula (fun b -> b.Bug_db.kind = Bug_db.Crash) with
        | bug :: _ -> raise (crash_of_bug t bug)
        | [] ->
          (* 5. rewriting *)
          let fired rule = t.cov ("rw." ^ rule) 0 1 in
          let simplified =
            Script.map_assertions
              (fun a -> Rewrite.simplify ~rules:t.rules ~fired a)
              script
          in
          (* 6. presolving: Zeal propagates integer bounds before search *)
          let bounds =
            match t.tag with
            | Coverage.Zeal ->
              t.cov "propagate.entry" 0 1;
              Propagate.analyze simplified
            | Coverage.Cove -> []
          in
          let pruned_unsat =
            List.exists
              (fun (_, interval) ->
                Propagate.is_empty_within interval
                  ~window_lo:Domain.default_config.Domain.int_lo
                  ~window_hi:Domain.default_config.Domain.int_hi)
              bounds
          in
          (* 7. bounded model search *)
          let outcome =
            if pruned_unsat then (
              t.cov "propagate.empty" 0 1;
              Unsat)
            else (
              match
                Search.solve ~max_steps ~order:t.order ~cov:t.cov ~bounds
                  ~steps_used:t.steps_used simplified
              with
              | Search.Sat model -> Sat model
              | Search.Unsat -> Unsat
              | Search.Resource_limit -> Resource_limit
              | Search.Unknown reason -> Unknown reason)
          in
          (* 8. behavioral bugs *)
          let outcome =
            match triggered t formula (fun b -> b.Bug_db.kind = Bug_db.Soundness) with
            | _ :: _ -> ( match outcome with Sat _ -> Unsat | other -> other)
            | [] -> outcome
          in
          (match triggered t formula (fun b -> b.Bug_db.kind = Bug_db.Invalid_model) with
          | _ :: _ -> (
            match outcome with
            | Sat model -> Sat (corrupt_model t script model)
            | other -> other)
          | [] -> outcome))))

type query_stats = { steps : int; decisions : int; propagations : int }

let solve_script ?max_steps t formula =
  t.act.queries <- t.act.queries + 1;
  let base_decisions = t.act.decisions and base_propagations = t.act.propagations in
  t.steps_used := 0;
  let finish () =
    t.act.last_steps <- !(t.steps_used);
    t.act.last_decisions <- t.act.decisions - base_decisions;
    t.act.last_propagations <- t.act.propagations - base_propagations
  in
  Fun.protect ~finally:finish (fun () -> solve_script_inner ?max_steps t formula)

let last_query_stats t =
  {
    steps = t.act.last_steps;
    decisions = t.act.last_decisions;
    propagations = t.act.last_propagations;
  }

let parse_check t source =
  match Parser.parse_script source with
  | Error e ->
    t.cov "unsupported.symbol" 1 1;
    Result.Error (Parser.error_message e)
  | Ok script -> (
    match unsupported_symbol t script with
    | Some sym ->
      Result.Error (Printf.sprintf "unknown constant or function symbol '%s'" sym)
    | None -> (
      let formula = Formula.of_script script in
      match Formula.check formula with
      | Error msg ->
        (* an active type-check-escape bug masks the rejection: the buggy
           solver front end accepts the term (and would crash later) *)
        if triggered t formula (fun b -> b.Bug_db.pre_check) <> [] then
          Result.Ok script
        else Result.Error msg
      | Ok () -> Result.Ok script))

let solve_source ?max_steps t source =
  match Parser.parse_script source with
  | Error e -> Error (Parser.error_message e)
  | Ok script -> solve_script ?max_steps t (Formula.of_script script)

let supports_script t script =
  unsupported_symbol t script = None

(* ------------------------------------------------------------------ *)
(* Incremental solving (push/pop) and unsat cores                      *)
(* ------------------------------------------------------------------ *)

type incremental_step = {
  step_index : int;  (* which check-sat, 0-based *)
  step_outcome : outcome;
}

(* Replay the script command-by-command with an assertion stack; each
   check-sat solves the conjunction visible at that point. *)
let solve_incremental ?max_steps t script =
  let prelude =
    List.filter
      (fun cmd ->
        match cmd with
        | Command.Assert _ | Command.Check_sat | Command.Push _ | Command.Pop _
        | Command.Get_model | Command.Get_value _ ->
          false
        | _ -> true)
      script
  in
  let steps = ref [] in
  let check_index = ref 0 in
  (* stack of assertion frames, innermost first *)
  let stack = ref [ [] ] in
  let push_frames n = for _ = 1 to max 1 n do stack := [] :: !stack done in
  let pop_frames n =
    for _ = 1 to max 1 n do
      match !stack with
      | _ :: (_ :: _ as rest) -> stack := rest
      | _ -> () (* popping the root frame is ignored, as solvers do *)
    done
  in
  List.iter
    (fun cmd ->
      match cmd with
      | Command.Assert term -> (
        match !stack with
        | frame :: rest -> stack := (term :: frame) :: rest
        | [] -> stack := [ [ term ] ])
      | Command.Push n -> push_frames n
      | Command.Pop n -> pop_frames n
      | Command.Check_sat ->
        let assertions = List.concat_map List.rev (List.rev !stack) in
        let snapshot =
          prelude @ List.map (fun a -> Command.Assert a) assertions @ [ Command.Check_sat ]
        in
        let outcome = solve_script ?max_steps t (Formula.of_script snapshot) in
        steps := { step_index = !check_index; step_outcome = outcome } :: !steps;
        incr check_index
      | _ -> ())
    script;
  List.rev !steps

(* Greedy destructive core minimization: drop each assertion in turn; keep
   the drop when the remainder is still unsat. Always returns a subset whose
   conjunction is unsat (assuming the input is). *)
let unsat_core ?max_steps t script =
  let non_assert = List.filter (fun c -> not (Command.is_assert c)) script in
  let rebuild assertions =
    let rec insert acc = function
      | [] -> List.rev acc @ List.map (fun a -> Command.Assert a) assertions
      | Command.Check_sat :: rest ->
        List.rev acc
        @ List.map (fun a -> Command.Assert a) assertions
        @ (Command.Check_sat :: rest)
      | cmd :: rest -> insert (cmd :: acc) rest
    in
    insert [] non_assert
  in
  let is_unsat assertions =
    match solve_script ?max_steps t (Formula.of_script (rebuild assertions)) with
    | Unsat -> true
    | Sat _ | Resource_limit | Unknown _ | Error _ -> false
    | exception Crash _ -> false
  in
  let initial = Script.assertions script in
  if not (is_unsat initial) then None
  else (
    let rec minimize kept = function
      | [] -> List.rev kept
      | a :: rest ->
        if is_unsat (List.rev_append kept rest) then minimize kept rest
        else minimize (a :: kept) rest
    in
    Some (minimize [] initial))
