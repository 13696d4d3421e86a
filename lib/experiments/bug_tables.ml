module Bug_db = Solver.Bug_db
module Coverage = O4a_coverage.Coverage

type result = {
  report : Orchestrator.report;
  found : Bug_db.spec list;
  table1 : string;
  table2 : string;
  stats_text : string;
}

let count pred specs = List.length (List.filter pred specs)

let status_counts specs solver =
  let of_solver = List.filter (fun (s : Bug_db.spec) -> s.Bug_db.solver = solver) specs in
  let reported = List.length of_solver in
  let confirmed =
    count
      (fun (s : Bug_db.spec) ->
        match s.Bug_db.status with
        | Bug_db.Fixed | Bug_db.Confirmed -> true
        | Bug_db.Reported | Bug_db.Duplicate_of _ -> false)
      of_solver
  in
  let fixed = count (fun s -> s.Bug_db.status = Bug_db.Fixed) of_solver in
  let duplicate =
    count
      (fun (s : Bug_db.spec) ->
        match s.Bug_db.status with Bug_db.Duplicate_of _ -> true | _ -> false)
      of_solver
  in
  (reported, confirmed, fixed, duplicate)

let kind_counts specs solver =
  let of_solver = List.filter (fun (s : Bug_db.spec) -> s.Bug_db.solver = solver) specs in
  ( count (fun s -> s.Bug_db.kind = Bug_db.Crash) of_solver,
    count (fun s -> s.Bug_db.kind = Bug_db.Invalid_model) of_solver,
    count (fun s -> s.Bug_db.kind = Bug_db.Soundness) of_solver )

let render_table1 found =
  let zr, zc, zf, zd = status_counts found Coverage.Zeal in
  let cr, cc, cf, cd = status_counts found Coverage.Cove in
  let row label z c = [ label; string_of_int z; string_of_int c; string_of_int (z + c) ] in
  Render.heading "Table 1: Status of bugs found in the solvers"
  ^ "\n"
  ^ Render.table
      ~header:[ "Status"; "Zeal"; "Cove"; "Total" ]
      [
        row "Reported" zr cr;
        row "Confirmed" zc cc;
        row "Fixed" zf cf;
        row "Duplicate" zd cd;
      ]
  ^ "\n(paper: reported 27/18/45, confirmed 25/18/43, fixed 24/16/40, duplicate 2/0/2)"

let render_table2 found =
  let zcr, zim, zs = kind_counts found Coverage.Zeal in
  let ccr, cim, cs = kind_counts found Coverage.Cove in
  let row label z c = [ label; string_of_int z; string_of_int c; string_of_int (z + c) ] in
  Render.heading "Table 2: Bug types among the reported bugs"
  ^ "\n"
  ^ Render.table
      ~header:[ "Type"; "Zeal"; "Cove"; "Total" ]
      [
        row "Crash" zcr ccr;
        row "Invalid model" zim cim;
        row "Soundness" zs cs;
      ]
  ^ "\n(paper: crash 20/15/35, invalid model 4/2/6, soundness 3/1/4)"

let render_stats ~llm_calls ~llm_tokens (s : Once4all.Fuzz.stats) found =
  let extension = count Bug_db.is_extension_theory_bug found in
  Render.heading "Campaign statistics (paper 4.2)"
  ^ "\n"
  ^ String.concat "\n"
      [
        Printf.sprintf "test cases generated:        %d" s.Once4all.Fuzz.tests;
        Printf.sprintf "mean formula size:           %d bytes (paper: 4,828)"
          (if s.Once4all.Fuzz.tests = 0 then 0
           else s.Once4all.Fuzz.bytes_total / s.Once4all.Fuzz.tests);
        Printf.sprintf "bug-triggering formulas:     %d (paper: 727 over ~10M cases)"
          (List.length s.Once4all.Fuzz.findings);
        Printf.sprintf "distinct bugs hit:           %d of %d specimens"
          (List.length found)
          (List.length Bug_db.campaign_bugs);
        Printf.sprintf "extension-theory bugs:       %d (paper: 11)" extension;
        Printf.sprintf "LLM calls (one-time):        %d" llm_calls;
        Printf.sprintf "LLM tokens (one-time):       %d" llm_tokens;
      ]

let render ~llm_calls ~llm_tokens (report : Orchestrator.report) =
  let found =
    report.Orchestrator.found_bug_ids
    |> List.filter_map Bug_db.find
    |> List.filter (fun (s : Bug_db.spec) -> not s.Bug_db.historical)
  in
  {
    report;
    found;
    table1 = render_table1 found;
    table2 = render_table2 found;
    stats_text =
      render_stats ~llm_calls ~llm_tokens report.Orchestrator.stats found;
  }

let run ?(seed = 42) ?(budget = 6000) () =
  let campaign = Once4all.Campaign.prepare ~seed () in
  let seeds =
    Seeds.Corpus.filtered ~zeal:campaign.Once4all.Campaign.zeal
      ~cove:campaign.Once4all.Campaign.cove ()
  in
  let report =
    Orchestrator.run ~seed:(seed + 1) ~budget
      ~generators:campaign.Once4all.Campaign.generators ~seeds ()
  in
  let client = campaign.Once4all.Campaign.client in
  render ~llm_calls:(Llm_sim.Client.call_count client)
    ~llm_tokens:(Llm_sim.Client.token_count client) report
