module Faults = O4a_faults.Faults
module Health = O4a_health.Health
module Coverage = O4a_coverage.Coverage
module Checkpoint = Orchestrator.Checkpoint
module Analytics = O4a_analytics.Analytics

(* Every string built here is a pure function of the merged report — never of
   timing, worker count, or scheduling. The CLI prints these to stdout and
   the campaign server writes them to each job's report.txt, so one
   definition is what makes "server output = standalone output" a diff in
   check.sh rather than a hope. *)

let header ~generators ~seeds ~budget =
  Printf.sprintf "Generators ready (%d); fuzzing with %d seeds, budget %d...\n"
    generators seeds budget

let chaos_block ~chaos (r : Orchestrator.report) =
  let buf = Buffer.create 256 in
  (match chaos with
  | None -> ()
  | Some (plan : Faults.plan) ->
    Buffer.add_string buf
      (Printf.sprintf "\nchaos: profile %s  seed %d  rate %.2f\n"
         (Faults.profile_to_string plan.Faults.profile)
         plan.Faults.chaos_seed plan.Faults.rate));
  (match r.Orchestrator.quarantined with
  | [] -> ()
  | qs ->
    let ticks =
      List.fold_left (fun acc q -> acc + q.Checkpoint.q_ticks) 0 qs
    in
    Buffer.add_string buf
      (Printf.sprintf
         "quarantined: %d shard%s, %d tick%s excluded from merge\n"
         (List.length qs)
         (if List.length qs = 1 then "" else "s")
         ticks
         (if ticks = 1 then "" else "s"));
    List.iter
      (fun (q : Checkpoint.quarantine) ->
        Buffer.add_string buf
          (Printf.sprintf "  shard %d  ticks %d-%d  after %d attempt%s  [%s]\n"
             q.Checkpoint.q_shard q.Checkpoint.q_first_tick
             (q.Checkpoint.q_first_tick + q.Checkpoint.q_ticks - 1)
             q.Checkpoint.q_attempts
             (if q.Checkpoint.q_attempts = 1 then "" else "s")
             (String.concat " " q.Checkpoint.q_sites)))
      qs);
  Buffer.contents buf

let health_block (r : Orchestrator.report) =
  match r.Orchestrator.health with
  | [] -> ""
  | entries ->
    let buf = Buffer.create 256 in
    let total f = List.fold_left (fun acc e -> acc + f e) 0 entries in
    Buffer.add_string buf
      (Printf.sprintf "\nbreakers: trips %d  recloses %d  suppressed %d\n"
         (total (fun (e : Health.entry) -> e.Health.opened))
         (total (fun (e : Health.entry) -> e.Health.reclosed))
         (total (fun (e : Health.entry) -> e.Health.suppressed)));
    List.iter
      (fun (e : Health.entry) ->
        if e.Health.opened > 0 || e.Health.suppressed > 0 then
          Buffer.add_string buf
            (Printf.sprintf
               "  %s/%s  queries %d  timeouts %d  crashes %d  opened %d  \
                reclosed %d  suppressed %d  probes %d\n"
               e.Health.e_solver e.Health.e_theory e.Health.queries
               e.Health.timeouts e.Health.crashes e.Health.opened
               e.Health.reclosed e.Health.suppressed e.Health.probes))
      entries;
    Buffer.contents buf

let analytics_block (r : Orchestrator.report) =
  match Analytics.series r.Orchestrator.analytics with
  | [] -> ""
  | pts ->
    let last = List.nth pts (List.length pts - 1) in
    let buf = Buffer.create 256 in
    Buffer.add_string buf
      (Printf.sprintf
         "\nanalytics: %d sample%s  %d coverage points  %d cluster%s\n"
         (List.length pts)
         (if List.length pts = 1 then "" else "s")
         last.Analytics.p_cum_cov last.Analytics.p_cum_clusters
         (if last.Analytics.p_cum_clusters = 1 then "" else "s"));
    (match r.Orchestrator.plateaus with
    | [] ->
      Buffer.add_string buf "  no plateau: curves still growing at the end\n"
    | pls ->
      List.iter
        (fun (pl : Analytics.plateau) ->
          Buffer.add_string buf
            (Printf.sprintf
               "  %s plateaued at tick %d (flat at %d across a %d-shard \
                window)\n"
               pl.Analytics.pl_series pl.Analytics.pl_tick
               pl.Analytics.pl_value pl.Analytics.pl_window))
        pls);
    Buffer.contents buf

let campaign ?(show_formulas = false) ~chaos (r : Orchestrator.report) =
  let buf = Buffer.create 1024 in
  let stats = r.Orchestrator.stats in
  Buffer.add_string buf
    (Printf.sprintf "tests: %d  parse-ok: %d  solved: %d  bug-triggering: %d\n"
       stats.Once4all.Fuzz.tests stats.parse_ok stats.solved
       (List.length stats.findings));
  Buffer.add_string buf
    (Printf.sprintf "\n%d de-duplicated issues:\n"
       (List.length r.Orchestrator.clusters));
  List.iter
    (fun (c : Once4all.Dedup.cluster) ->
      Buffer.add_string buf
        (Printf.sprintf "  [%s] %s  x%d%s\n"
           (Solver.Bug_db.kind_to_string c.Once4all.Dedup.kind)
           c.Once4all.Dedup.key c.count
           (match c.bug_id with Some id -> "  -> " ^ id | None -> ""));
      if show_formulas then (
        Buffer.add_string buf
          (O4a_util.Strx.indent 6 c.representative.Once4all.Dedup.source);
        Buffer.add_char buf '\n'))
    r.Orchestrator.clusters;
  Buffer.add_string buf
    (Printf.sprintf "\ndistinct bugs: %s\n"
       (match r.Orchestrator.found_bug_ids with
       | [] -> "(none)"
       | ids -> String.concat " " ids));
  Buffer.add_string buf
    (Printf.sprintf
       "coverage: zeal %.2f%% lines %.2f%% funcs, cove %.2f%% lines %.2f%% \
        funcs\n"
       (Coverage.line_pct r.Orchestrator.coverage_zeal)
       (Coverage.func_pct r.Orchestrator.coverage_zeal)
       (Coverage.line_pct r.Orchestrator.coverage_cove)
       (Coverage.func_pct r.Orchestrator.coverage_cove));
  Buffer.add_string buf (chaos_block ~chaos r);
  Buffer.add_string buf (health_block r);
  Buffer.add_string buf (analytics_block r);
  Buffer.contents buf

let resumed_line n =
  if n <= 0 then ""
  else
    Printf.sprintf "resumed %d completed shard%s from checkpoint\n" n
      (if n = 1 then "" else "s")

let stopped_line ~checkpoint (r : Orchestrator.report) =
  Printf.sprintf
    "stopped%s after %d shard%s (%d of %d done); resume with: once4all \
     resume --checkpoint %s\n"
    (if r.Orchestrator.stopped then " gracefully" else "")
    r.Orchestrator.shards_run
    (if r.Orchestrator.shards_run = 1 then "" else "s")
    (r.Orchestrator.shards_run + r.Orchestrator.shards_resumed)
    r.Orchestrator.shards_total
    (Option.value checkpoint ~default:"CHECKPOINT")

let bundles_line ~dir n =
  Printf.sprintf "wrote %d repro bundle%s to %s\n" n
    (if n = 1 then "" else "s")
    dir

let finish ?show_formulas ?checkpoint ?trace_dir ~chaos
    (r : Orchestrator.report) =
  resumed_line r.Orchestrator.shards_resumed
  ^ (if r.Orchestrator.stopped || r.Orchestrator.interrupted then
       stopped_line ~checkpoint r
     else campaign ?show_formulas ~chaos r)
  ^
  match trace_dir with
  | Some dir -> bundles_line ~dir r.Orchestrator.bundles_written
  | None -> ""
