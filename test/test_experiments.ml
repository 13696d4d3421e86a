module E = Experiments

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains needle hay = O4a_util.Strx.contains_sub ~sub:needle hay

(* ------------------------- Render ------------------------- *)

let test_render_table () =
  let t = E.Render.table ~header:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "333"; "4" ] ] in
  check_bool "header" true (contains "a" t && contains "bb" t);
  check_bool "cells" true (contains "333" t);
  check_int "four lines" 4 (List.length (O4a_util.Strx.split_lines t))

let test_render_series () =
  let s = E.Render.series ~title:"T" ~x_label:"hour" [ ("f1", [ 1.; 2.5 ]) ] in
  check_bool "values" true (contains "2.5" s);
  check_bool "title" true (contains "T" s)

let test_render_sparkline () =
  check_int "one glyph per point" (3 * 3)
    (String.length (E.Render.sparkline [ 0.; 0.5; 1. ]));
  check_bool "empty ok" true (E.Render.sparkline [] = "")

(* ------------------------- Mini experiment runs ------------------------- *)

(* shared setup: one campaign, a small seed pool, two fuzzers *)
let setup =
  lazy
    (let campaign = Once4all.Campaign.prepare ~seed:3 () in
     let seeds = O4a_util.Listx.take 40 (Seeds.Corpus.all ()) in
     let client = campaign.Once4all.Campaign.client in
     let fuzzers =
       [ Baselines.Registry.once4all campaign;
         Option.get (Baselines.Registry.find ~client "opfuzz") ]
     in
     (campaign, seeds, fuzzers))

let test_coverage_growth_shapes () =
  let _, seeds, fuzzers = Lazy.force setup in
  let r =
    E.Coverage_growth.run ~seed:1 ~ticks:4 ~per_tick:10 ~title:"mini-f6" ~fuzzers ~seeds ()
  in
  check_int "one series per fuzzer" 2 (List.length r.E.Coverage_growth.series);
  List.iter
    (fun s ->
      check_int "one point per tick" 4 (List.length s.E.Coverage_growth.zeal_line);
      (* coverage is monotone over ticks *)
      let monotone values =
        let rec go = function
          | a :: (b :: _ as rest) -> a <= b +. 1e-9 && go rest
          | _ -> true
        in
        go values
      in
      check_bool (s.E.Coverage_growth.fuzzer ^ " monotone") true
        (monotone s.E.Coverage_growth.zeal_line && monotone s.E.Coverage_growth.cove_line);
      List.iter
        (fun v -> check_bool "percentage range" true (v >= 0. && v <= 100.))
        (s.E.Coverage_growth.zeal_line @ s.E.Coverage_growth.cove_func))
    r.E.Coverage_growth.series;
  check_bool "renders" true (contains "mini-f6" r.E.Coverage_growth.text)

let test_once4all_leads_coverage () =
  let _, seeds, fuzzers = Lazy.force setup in
  let r =
    E.Coverage_growth.run ~seed:2 ~ticks:6 ~per_tick:15 ~title:"lead" ~fuzzers ~seeds ()
  in
  let final s = O4a_util.Listx.last s.E.Coverage_growth.cove_line in
  match r.E.Coverage_growth.series with
  | [ once4all; opfuzz ] ->
    check_bool
      (Printf.sprintf "Once4All (%.1f) > OpFuzz (%.1f) on Cove" (final once4all)
         (final opfuzz))
      true
      (final once4all > final opfuzz)
  | _ -> Alcotest.fail "two series expected"

let test_unique_bugs_mini () =
  let _, seeds, fuzzers = Lazy.force setup in
  let r =
    E.Unique_bugs.run ~seed:3 ~budget:150 ~max_bisects:8 ~title:"mini-f7" ~fuzzers ~seeds ()
  in
  check_int "two rows" 2 (List.length r.E.Unique_bugs.rows);
  List.iter
    (fun row ->
      check_bool "bugs <= candidates" true
        (row.E.Unique_bugs.unique_bugs <= max 1 row.E.Unique_bugs.candidates);
      (* correcting commits are within history *)
      List.iter
        (fun (_, c) -> check_bool "commit in range" true (c > 0 && c <= 100))
        row.E.Unique_bugs.correcting_commits)
    r.E.Unique_bugs.rows

let test_validity_experiment () =
  let r = E.Validity.run ~seed:5 () in
  check_int "one row per theory" 12 (List.length r.E.Validity.rows);
  List.iter
    (fun row ->
      check_bool "final >= initial" true
        (row.E.Validity.final_pct >= row.E.Validity.initial_pct);
      check_bool "percentages" true
        (row.E.Validity.initial_pct >= 0. && row.E.Validity.final_pct <= 100.))
    r.E.Validity.rows;
  (* the headline claim: a hard theory starts low, ends high *)
  let ff = List.find (fun row -> row.E.Validity.theory = "finite_fields") r.E.Validity.rows in
  check_bool "ff lifted" true (ff.E.Validity.final_pct >= 80.);
  check_bool "renders" true (contains "finite_fields" r.E.Validity.text)

let test_bug_tables_mini () =
  let r = E.Bug_tables.run ~seed:4 ~budget:800 () in
  check_bool "found some specimens" true (r.E.Bug_tables.found <> []);
  check_bool "table1 renders" true (contains "Reported" r.E.Bug_tables.table1);
  check_bool "table2 renders" true (contains "Crash" r.E.Bug_tables.table2);
  check_bool "stats render" true (contains "test cases" r.E.Bug_tables.stats_text);
  (* found specimens are campaign bugs only (historical excluded) *)
  List.iter
    (fun (s : Solver.Bug_db.spec) ->
      check_bool "not historical" true (not s.Solver.Bug_db.historical))
    r.E.Bug_tables.found

(* Tables 1-2, the statistics and Figure 5 are a function of the merged
   campaign: the same campaign at --jobs 1, at --jobs 2, and killed after two
   shards then resumed from its checkpoint renders the same bytes. *)
let test_bug_tables_any_campaign () =
  let campaign = Once4all.Campaign.prepare ~seed:4 () in
  let seeds =
    Seeds.Corpus.filtered ~zeal:campaign.Once4all.Campaign.zeal
      ~cove:campaign.Once4all.Campaign.cove ()
  in
  let client = campaign.Once4all.Campaign.client in
  (* [~resume:true] loads the checkpoint and resumes from it *)
  let run ?checkpoint_path ?(resume = false) ?stop_after ~jobs () =
    let base =
      match (resume, checkpoint_path) with
      | false, _ | true, None -> None
      | true, Some path ->
        Some (Result.get_ok (Orchestrator.Checkpoint.load ~path))
    in
    Orchestrator.run ~jobs ~shard_size:50 ?checkpoint_path ?base ?stop_after
      ~seed:5 ~budget:200 ~generators:campaign.Once4all.Campaign.generators
      ~seeds ()
  in
  let text report =
    let r =
      E.Bug_tables.render ~llm_calls:(Llm_sim.Client.call_count client)
        ~llm_tokens:(Llm_sim.Client.token_count client) report
    in
    String.concat "\n"
      [
        r.E.Bug_tables.table1;
        r.E.Bug_tables.table2;
        r.E.Bug_tables.stats_text;
        (E.Lifespan.run ~found:r.E.Bug_tables.found).E.Lifespan.text;
      ]
  in
  let reference = run ~jobs:1 () in
  check_bool "the campaign hits specimens" true
    (reference.Orchestrator.found_bug_ids <> []);
  let expected = text reference in
  Alcotest.(check string) "jobs 2" expected (text (run ~jobs:2 ()));
  let path = Filename.temp_file "o4a_tables" ".json" in
  let first = run ~jobs:1 ~checkpoint_path:path ~stop_after:2 () in
  check_bool "killed after two shards" true first.Orchestrator.interrupted;
  let resumed = run ~jobs:1 ~checkpoint_path:path ~resume:true () in
  Sys.remove path;
  check_int "two shards came from the checkpoint" 2
    resumed.Orchestrator.shards_resumed;
  Alcotest.(check string) "killed and resumed" expected (text resumed)

let test_lifespan_rows () =
  (* with ground truth as "found", the lifespan table reproduces the shape *)
  let confirmed =
    List.filter
      (fun (s : Solver.Bug_db.spec) ->
        match s.Solver.Bug_db.status with
        | Solver.Bug_db.Fixed | Solver.Bug_db.Confirmed -> true
        | _ -> false)
      Solver.Bug_db.campaign_bugs
  in
  let r = E.Lifespan.run ~found:confirmed in
  check_int "zeal rows = releases + trunk" 7 (List.length r.E.Lifespan.zeal_rows);
  check_int "cove rows" 6 (List.length r.E.Lifespan.cove_rows);
  (* monotone: later versions are affected by at least as many bugs *)
  let counts = List.map (fun row -> row.E.Lifespan.affected) r.E.Lifespan.zeal_rows in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b && monotone rest
    | _ -> true
  in
  check_bool "monotone growth" true (monotone counts);
  (* trunk carries every confirmed bug; the oldest release only the latent ones *)
  check_int "trunk affected = zeal confirmed" 25 (O4a_util.Listx.last counts);
  check_int "3 long-latent zeal bugs" 3 (List.hd counts);
  let latent = E.Lifespan.long_latent ~found:confirmed in
  check_int "long latent overall" 3
    (List.length
       (List.filter
          (fun (s : Solver.Bug_db.spec) -> s.Solver.Bug_db.solver = O4a_coverage.Coverage.Zeal)
          latent))

let test_ablation_iterations () =
  let r = E.Ablations.iterations ~seed:6 () in
  check_int "four budgets" 4 (List.length r.E.Ablations.rows);
  let at n =
    List.find (fun row -> row.E.Ablations.max_iter = n) r.E.Ablations.rows
  in
  check_bool "more iterations help" true
    ((at 10).E.Ablations.mean_final_pct >= (at 0).E.Ablations.mean_final_pct);
  check_bool "zero budget = initial" true
    (abs_float ((at 0).E.Ablations.mean_final_pct -. (at 0).E.Ablations.mean_initial_pct)
    < 1e-6)

let test_variants_lineup () =
  let variants = E.Variants.build ~seed:3 () in
  check_int "four variants" 4 (List.length variants);
  check_bool "names" true
    (List.map (fun v -> v.E.Variants.name) variants
    = [ "Once4All"; "Once4All_w/oS"; "Once4All_Gemini"; "Once4All_Claude" ])

let () =
  Alcotest.run "experiments"
    [
      ( "render",
        [
          Alcotest.test_case "table" `Quick test_render_table;
          Alcotest.test_case "series" `Quick test_render_series;
          Alcotest.test_case "sparkline" `Quick test_render_sparkline;
        ] );
      ( "harnesses",
        [
          Alcotest.test_case "coverage growth shapes" `Slow test_coverage_growth_shapes;
          Alcotest.test_case "Once4All leads coverage" `Slow test_once4all_leads_coverage;
          Alcotest.test_case "unique bugs mini" `Slow test_unique_bugs_mini;
          Alcotest.test_case "validity" `Slow test_validity_experiment;
          Alcotest.test_case "bug tables mini" `Slow test_bug_tables_mini;
          Alcotest.test_case "tables from any campaign" `Slow
            test_bug_tables_any_campaign;
          Alcotest.test_case "lifespan" `Quick test_lifespan_rows;
          Alcotest.test_case "iteration ablation" `Slow test_ablation_iterations;
          Alcotest.test_case "variants" `Slow test_variants_lineup;
        ] );
    ]
