type adapt_row = {
  adapt_prob : float;
  findings : int;
  distinct_bugs : int;
  solved_pct : float;
}

type adapt_result = {
  rows : adapt_row list;
  text : string;
}

let adaptation ?(seed = 42) ?(budget = 1500) () =
  let campaign = Once4all.Campaign.prepare ~seed () in
  let seeds =
    Seeds.Corpus.filtered ~zeal:campaign.Once4all.Campaign.zeal
      ~cove:campaign.Once4all.Campaign.cove ()
  in
  let rows =
    List.map
      (fun adapt_prob ->
        let config =
          { Once4all.Fuzz.default_config with Once4all.Fuzz.adapt_prob }
        in
        let report =
          Orchestrator.run ~config ~seed:(seed + 1) ~budget
            ~generators:campaign.Once4all.Campaign.generators ~seeds ()
        in
        let s = report.Orchestrator.stats in
        {
          adapt_prob;
          findings = List.length s.Once4all.Fuzz.findings;
          distinct_bugs = List.length report.Orchestrator.found_bug_ids;
          solved_pct =
            (if s.Once4all.Fuzz.tests = 0 then 0.
             else
               100. *. float_of_int s.Once4all.Fuzz.solved
               /. float_of_int s.Once4all.Fuzz.tests);
        })
      [ 0.0; 0.55; 1.0 ]
  in
  let text =
    Render.heading "Ablation A1: sort-aware variable adaptation"
    ^ "\n"
    ^ Render.table
        ~header:[ "adapt prob"; "bug-triggering"; "distinct bugs"; "solved %" ]
        (List.map
           (fun r ->
             [
               Printf.sprintf "%.2f" r.adapt_prob;
               string_of_int r.findings;
               string_of_int r.distinct_bugs;
               Render.pct r.solved_pct;
             ])
           rows)
  in
  { rows; text }

type iter_row = {
  max_iter : int;
  mean_initial_pct : float;
  mean_final_pct : float;
  llm_calls : int;
}

type iter_result = {
  rows : iter_row list;
  text : string;
}

let iterations ?(seed = 42) () =
  let rows =
    List.map
      (fun max_iter ->
        let client = Llm_sim.Client.create ~seed Llm_sim.Profile.gpt4 in
        let solvers = [ Solver.Engine.zeal (); Solver.Engine.cove () ] in
        let reports =
          List.map
            (fun theory ->
              snd (Gensynth.Synthesis.construct ~max_iter ~client ~solvers theory))
            Theories.Theory.all
        in
        let mean extract =
          O4a_util.Stats.mean
            (List.map
               (fun (r : Gensynth.Synthesis.report) ->
                 100. *. float_of_int (extract r)
                 /. float_of_int r.Gensynth.Synthesis.sample_num)
               reports)
        in
        {
          max_iter;
          mean_initial_pct = mean (fun r -> r.Gensynth.Synthesis.initial_valid);
          mean_final_pct = mean (fun r -> r.Gensynth.Synthesis.final_valid);
          llm_calls = Llm_sim.Client.call_count client;
        })
      [ 0; 1; 3; 10 ]
  in
  let text =
    Render.heading "Ablation A2: self-correction iteration budget"
    ^ "\n"
    ^ Render.table
        ~header:[ "max_iter"; "mean initial valid"; "mean final valid"; "LLM calls" ]
        (List.map
           (fun r ->
             [
               string_of_int r.max_iter;
               Render.pct r.mean_initial_pct;
               Render.pct r.mean_final_pct;
               string_of_int r.llm_calls;
             ])
           rows)
  in
  { rows; text }

(* ------------------------------------------------------------------ *)
(* A3: mixed-sorts holes (paper 5.3, term-type extension)              *)
(* A4: coverage-guided generator scheduling (paper 5.3, solver-driven  *)
(*     signals)                                                        *)
(* ------------------------------------------------------------------ *)

type mode_row = {
  mode : string;
  findings : int;
  distinct_bugs : int;
  cove_line_pct : float;
}

type mode_result = {
  rows : mode_row list;
  text : string;
}

let run_mode ~campaign ~seeds ~seed ~budget ~shard_size ~mode ~config =
  let report =
    Orchestrator.run ~shard_size ~config ~seed ~budget
      ~generators:campaign.Once4all.Campaign.generators ~seeds ()
  in
  {
    mode;
    findings = List.length report.Orchestrator.stats.Once4all.Fuzz.findings;
    distinct_bugs = List.length report.Orchestrator.found_bug_ids;
    cove_line_pct = O4a_coverage.Coverage.line_pct report.Orchestrator.coverage_cove;
  }

let render_modes ~title rows =
  Render.heading title
  ^ "\n"
  ^ Render.table
      ~header:[ "mode"; "bug-triggering"; "distinct bugs"; "cove line cov" ]
      (List.map
         (fun r ->
           [ r.mode; string_of_int r.findings; string_of_int r.distinct_bugs;
             Render.pct r.cove_line_pct ])
         rows)

let mixed_sorts ?(seed = 42) ?(budget = 1500) () =
  let campaign = Once4all.Campaign.prepare ~seed () in
  let seeds =
    Seeds.Corpus.filtered ~zeal:campaign.Once4all.Campaign.zeal
      ~cove:campaign.Once4all.Campaign.cove ()
  in
  let base = Once4all.Fuzz.default_config in
  let run_mode =
    run_mode ~campaign ~seeds ~seed:(seed + 1) ~budget
      ~shard_size:Orchestrator.default_shard_size
  in
  let rows =
    [
      run_mode ~mode:"boolean holes (paper)" ~config:base;
      run_mode ~mode:"mixed-sort holes (5.3)"
        ~config:{ base with Once4all.Fuzz.mixed_sorts = true };
    ]
  in
  { rows; text = render_modes ~title:"Extension A3: mixed-sort holes" rows }

let scheduling ?(seed = 42) ?(budget = 1500) () =
  let campaign = Once4all.Campaign.prepare ~seed () in
  let seeds =
    Seeds.Corpus.filtered ~zeal:campaign.Once4all.Campaign.zeal
      ~cove:campaign.Once4all.Campaign.cove ()
  in
  let base = Once4all.Fuzz.default_config in
  (* the bandit learns within a shard, so each arm runs as one shard: one
     feedback stream over the whole budget *)
  let run_mode =
    run_mode ~campaign ~seeds ~seed:(seed + 1) ~budget ~shard_size:budget
  in
  let rows =
    [
      run_mode ~mode:"uniform (paper)" ~config:base;
      run_mode ~mode:"coverage-guided (5.3)"
        ~config:{ base with Once4all.Fuzz.schedule = Once4all.Fuzz.Coverage_guided };
    ]
  in
  {
    rows;
    text = render_modes ~title:"Extension A4: coverage-guided generator scheduling" rows;
  }
