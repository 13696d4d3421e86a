module Shard = Orchestrator.Shard
module Checkpoint = Orchestrator.Checkpoint
module Campaign = Once4all.Campaign
module Dedup = Once4all.Dedup
module Oracle = Once4all.Oracle
module Fuzz = Once4all.Fuzz
module Bug_db = Solver.Bug_db
module Coverage = O4a_coverage.Coverage
module Telemetry = O4a_telemetry.Telemetry
module Sink = O4a_telemetry.Sink
module Event = O4a_telemetry.Event
module Json = O4a_telemetry.Json
module Hud = O4a_profile.Hud

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* shared engines and generator library, built once *)
let campaign = lazy (Campaign.prepare ~seed:3 ())
let generators () = (Lazy.force campaign).Campaign.generators
let seed_pool = lazy (O4a_util.Listx.take 25 (Seeds.Corpus.all ()))

(* [~resume:true] resumes from the checkpoint at [checkpoint_path]: the
   caller loads it and passes it to [Orchestrator.run] as its base *)
let resume_base ~resume checkpoint_path =
  match (resume, checkpoint_path) with
  | false, _ | true, None -> None
  | true, Some path -> (
    match Checkpoint.load ~path with
    | Ok cp -> Some cp
    | Error e -> failwith (Checkpoint.load_error_to_string ~path e))

let run ?jobs ?telemetry ?checkpoint_path ?(resume = false) ?stop_after
    ?trace_dir ?chaos ?health ?on_progress ?(budget = 300) ?(shard_size = 60)
    () =
  Orchestrator.run ?jobs ?telemetry ?checkpoint_path
    ?base:(resume_base ~resume checkpoint_path) ?stop_after
    ?trace_dir ?chaos ?health ?on_progress ~shard_size ~seed:91 ~budget
    ~generators:(generators ()) ~seeds:(Lazy.force seed_pool) ()

let report_key (r : Orchestrator.report) =
  ( r.Orchestrator.stats.Fuzz.tests,
    r.Orchestrator.stats.Fuzz.parse_ok,
    r.Orchestrator.stats.Fuzz.solved,
    List.map (fun c -> (c.Dedup.key, c.Dedup.count)) r.Orchestrator.clusters,
    r.Orchestrator.found_bug_ids,
    r.Orchestrator.coverage,
    r.Orchestrator.health )

(* ------------------------- shard plan ------------------------- *)

let test_plan_covers_budget () =
  let shards = Shard.plan ~budget:600 ~shard_size:250 in
  check_int "three shards" 3 (List.length shards);
  check_bool "contiguous" true
    (List.map (fun s -> (s.Shard.index, s.Shard.first_tick, s.Shard.ticks)) shards
    = [ (0, 0, 250); (1, 250, 250); (2, 500, 100) ]);
  check_int "sums to budget" 600
    (List.fold_left (fun acc s -> acc + s.Shard.ticks) 0 shards)

let test_plan_edges () =
  check_bool "empty budget" true (Shard.plan ~budget:0 ~shard_size:10 = []);
  check_int "single short shard" 1 (List.length (Shard.plan ~budget:5 ~shard_size:10));
  check_bool "negative budget raises" true
    (match Shard.plan ~budget:(-1) ~shard_size:10 with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check_bool "zero shard size raises" true
    (match Shard.plan ~budget:10 ~shard_size:0 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_shard_rng_depends_on_index_only () =
  let draw s = O4a_util.Rng.int (Shard.rng ~seed:7 s) 1_000_000 in
  let s1 = { Shard.index = 1; first_tick = 250; ticks = 250 } in
  let s1' = { Shard.index = 1; first_tick = 999; ticks = 3 } in
  let s2 = { Shard.index = 2; first_tick = 500; ticks = 100 } in
  check_bool "same index, same stream" true (draw s1 = draw s1');
  check_bool "different index, different stream" true (draw s1 <> draw s2)

(* ------------------------- determinism ------------------------- *)

let test_jobs_invariance () =
  let r1 = run ~jobs:1 () in
  let r4 = run ~jobs:4 () in
  check_int "budget honored" 300 r1.Orchestrator.stats.Fuzz.tests;
  check_bool "jobs:4 reproduces jobs:1 exactly" true
    (report_key r1 = report_key r4);
  check_bool "finds bugs at this budget" true (r1.Orchestrator.clusters <> [])

(* relative path -> file contents, for every regular file under [dir] *)
let dir_contents dir =
  let rec walk rel acc =
    let abs = if rel = "" then dir else Filename.concat dir rel in
    if Sys.is_directory abs then
      Array.fold_left
        (fun acc entry ->
          walk (if rel = "" then entry else Filename.concat rel entry) acc)
        acc
        (let es = Sys.readdir abs in
         Array.sort compare es;
         es)
    else (rel, In_channel.with_open_bin abs In_channel.input_all) :: acc
  in
  List.rev (walk "" [])

let with_temp_dir f =
  let dir = Filename.temp_file "o4a_bundles" "" in
  Sys.remove dir;
  let rec rm path =
    if Sys.is_directory path then (
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path)
    else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm dir) (fun () -> f dir)

let test_trace_bundles_jobs_invariant () =
  with_temp_dir (fun d1 ->
      with_temp_dir (fun d4 ->
          let r1 = run ~jobs:1 ~trace_dir:d1 () in
          let r4 = run ~jobs:4 ~trace_dir:d4 () in
          check_bool "campaign finds bugs at this budget" true
            (r1.Orchestrator.bundles_written > 0);
          check_int "same bundle count" r1.Orchestrator.bundles_written
            r4.Orchestrator.bundles_written;
          check_int "one bundle per promoted trace"
            (List.length r1.Orchestrator.promoted)
            r1.Orchestrator.bundles_written;
          (* the tentpole acceptance bar: trace trees are byte-identical *)
          check_bool "jobs:4 bundle tree byte-identical to jobs:1" true
            (dir_contents d1 = dir_contents d4);
          (* promoted traces are merged in campaign tick order *)
          let ticks =
            List.map
              (fun (p : O4a_trace.Trace.promoted) ->
                p.O4a_trace.Trace.trace.O4a_trace.Trace.tick)
              r4.Orchestrator.promoted
          in
          check_bool "promotions in tick order" true
            (List.sort compare ticks = ticks)))

let test_matches_sequential_campaign () =
  (* the sharded jobs:1 pipeline is itself reproducible run-to-run *)
  let r1 = run ~jobs:1 () in
  let r2 = run ~jobs:1 () in
  check_bool "stable across runs" true (report_key r1 = report_key r2)

(* ------------------------- checkpoint codec ------------------------- *)

let sample_checkpoint () =
  let finding =
    {
      Dedup.finding =
        {
          Oracle.kind = Bug_db.Crash;
          solver = Coverage.Zeal;
          solver_name = "zeal-trunk";
          signature = "site_A";
          bug_id = Some "zeal-018";
          theory = "strings";
          mode = Oracle.Degraded "cove-trunk";
        };
      source = "(assert true)(check-sat)";
    }
  in
  {
    Checkpoint.seed = 91;
    budget = 300;
    shard_size = 60;
    extra = [ ("profile", "trunk"); ("cli_seed", "90") ];
    completed =
      [
        {
          Checkpoint.shard = 0;
          tests = 60;
          parse_ok = 55;
          solved = 40;
          bytes_total = 12345;
          findings = [ finding ];
        };
        {
          Checkpoint.shard = 1;
          tests = 60;
          parse_ok = 60;
          solved = 41;
          bytes_total = 9999;
          findings = [];
        };
      ];
    coverage = [ ("zeal|core.ml|solve|l|0", 17); ("cove|eval.ml|step|f|", 3) ];
    quarantined =
      [
        {
          Checkpoint.q_shard = 2;
          q_first_tick = 120;
          q_ticks = 60;
          q_attempts = 4;
          q_sites = [ "solver-crash"; "worker-death" ];
        };
      ];
    health =
      [
        {
          O4a_health.Health.e_solver = "zeal-trunk";
          e_theory = "strings";
          queries = 40;
          timeouts = 9;
          errors = 1;
          crashes = 0;
          fuel = 123_456;
          suppressed = 12;
          probes = 2;
          opened = 1;
          reclosed = 1;
        };
      ];
    analytics =
      {
        O4a_analytics.Analytics.samples =
          [
            {
              O4a_analytics.Analytics.bucket = 0;
              first_tick = 0;
              ticks = 60;
              tests = 60;
              parse_ok = 55;
              solved = 40;
              findings = 1;
              consults = 120;
              fuel = 9_000;
              cov_points =
                [ "cove|eval.ml|step|f|"; "zeal|core.ml|solve|l|0" ];
              clusters = [ "crash:site_A" ];
            };
          ];
        yield =
          [
            {
              O4a_analytics.Analytics.y_theory = "strings";
              y_profile = "gpt-4";
              y_seed_cluster = "ab12cd34";
              y_tests = 60;
              y_parse_ok = 55;
              y_findings = 1;
            };
          ];
      };
    artifacts =
      { Checkpoint.a_telemetry = true; a_trace = false; a_analytics = true };
  }

let test_checkpoint_json_roundtrip () =
  let cp = sample_checkpoint () in
  match Checkpoint.codec.dec (Checkpoint.codec.enc cp) with
  | Error e -> Alcotest.fail ("decode failed: " ^ e)
  | Ok cp' -> check_bool "round-trips" true (cp = cp')

let test_checkpoint_save_load () =
  let path = Filename.temp_file "o4a_checkpoint" ".json" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let cp = sample_checkpoint () in
      Checkpoint.save ~path cp;
      (match Checkpoint.load ~path with
      | Error e ->
          Alcotest.fail
            ("load failed: " ^ Checkpoint.load_error_to_string ~path e)
      | Ok cp' -> check_bool "file round-trips" true (cp = cp'));
      check_bool "no tmp residue" false (Sys.file_exists (path ^ ".tmp")))

(* remove members that did not exist in an older checkpoint version, at any
   nesting depth (the "mode" member lives inside findings) *)
let rec strip_keys keys = function
  | Json.Obj fields ->
      Json.Obj
        (List.filter_map
           (fun (k, v) ->
             if List.mem k keys then None else Some (k, strip_keys keys v))
           fields)
  | Json.List l -> Json.List (List.map (strip_keys keys) l)
  | j -> j

let set_version v = function
  | Json.Obj fields ->
      Json.Obj
        (List.map
           (fun (k, x) -> if k = "version" then (k, Json.Int v) else (k, x))
           fields)
  | j -> j

(* what an old file decodes to: no quarantine/health, all-differential
   findings *)
let downgrade_expected cp =
  {
    cp with
    Checkpoint.health = [];
    completed =
      List.map
        (fun (sr : Checkpoint.shard_result) ->
          {
            sr with
            Checkpoint.findings =
              List.map
                (fun (fd : Dedup.found) ->
                  {
                    fd with
                    Dedup.finding =
                      {
                        fd.Dedup.finding with
                        Oracle.mode = Oracle.Differential;
                      };
                  })
                sr.Checkpoint.findings;
          })
        cp.Checkpoint.completed;
  }

let test_checkpoint_reads_v1 () =
  (* a version-1 checkpoint (no "quarantined", "health", or per-finding
     "mode" members) still loads *)
  let cp =
    downgrade_expected
      { (sample_checkpoint ()) with Checkpoint.quarantined = [] }
  in
  let json =
    set_version 1
      (strip_keys [ "quarantined"; "health"; "mode" ]
         (Checkpoint.codec.enc (sample_checkpoint ())))
  in
  match Checkpoint.codec.dec json with
  | Error e -> Alcotest.fail ("v1 decode failed: " ^ e)
  | Ok cp' ->
      check_bool "v1 loads with empty quarantine and health" true
        ({ cp with Checkpoint.quarantined = [] } = cp')

let test_checkpoint_reads_v2 () =
  (* a version-2 checkpoint has quarantine but no health ledger and no
     per-finding oracle mode *)
  let cp = downgrade_expected (sample_checkpoint ()) in
  let json =
    set_version 2
      (strip_keys [ "health"; "mode" ]
         (Checkpoint.codec.enc (sample_checkpoint ())))
  in
  match Checkpoint.codec.dec json with
  | Error e -> Alcotest.fail ("v2 decode failed: " ^ e)
  | Ok cp' ->
      check_bool "v2 loads with empty health, differential findings" true
        (cp = cp')

let test_checkpoint_rejects_future_version () =
  let json = set_version 99 (Checkpoint.codec.enc (sample_checkpoint ())) in
  check_bool "future version refused" true
    (Result.is_error (Checkpoint.codec.dec json))

let test_checkpoint_load_truncated () =
  (* torn write: load must produce Corrupt with a byte offset, not crash *)
  let path = Filename.temp_file "o4a_checkpoint" ".json" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      Checkpoint.save ~path (sample_checkpoint ());
      let whole = In_channel.with_open_bin path In_channel.input_all in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc
            (String.sub whole 0 (String.length whole / 2)));
      match Checkpoint.load ~path with
      | Ok _ -> Alcotest.fail "truncated checkpoint loaded"
      | Error (Checkpoint.Corrupt { offset; reason }) ->
          check_bool "offset within file" true
            (offset >= 0 && offset <= String.length whole / 2);
          check_bool "reason non-empty" true (reason <> "");
          let msg =
            Checkpoint.load_error_to_string ~path
              (Checkpoint.Corrupt { offset; reason })
          in
          check_bool "diagnostic names the byte offset" true
            (let needle = Printf.sprintf "byte offset %d" offset in
             let nl = String.length needle and ml = String.length msg in
             let rec find i =
               i + nl <= ml && (String.sub msg i nl = needle || find (i + 1))
             in
             find 0)
      | Error e ->
          Alcotest.fail
            ("expected Corrupt, got: " ^ Checkpoint.load_error_to_string ~path e))

let test_checkpoint_rejects_garbage () =
  check_bool "not an object" true
    (Result.is_error (Checkpoint.codec.dec (Json.Int 3)));
  check_bool "missing fields" true
    (Result.is_error (Checkpoint.codec.dec (Json.Obj [ ("version", Json.Int 1) ])));
  (* the error names the path to the offending member *)
  let json =
    Json.Obj
      [
        ("version", Json.Int 4); ("seed", Json.Int 1); ("budget", Json.Int 1);
        ("shard_size", Json.Int 1); ("extra", Json.Obj []); ("completed", Json.Int 3);
      ]
  in
  check_bool "mistyped member" true
    (Checkpoint.codec.dec json
    = Error {|checkpoint: field "completed": expected a list|})

(* the sample checkpoint (budget 300, shard size 60: shards 0-4), edited
   before it is encoded, then decoded again *)
let decode_edited edit =
  Checkpoint.codec.dec (Checkpoint.codec.enc (edit (sample_checkpoint ())))

let check_decode_error what expected result =
  Alcotest.(check (result unit string)) what (Error expected)
    (Result.map ignore result)

(* edits of the sample checkpoint: its first completed shard added again at
   another index, and its quarantined shard moved to another index *)
let complete_again idx cp =
  let first = List.hd cp.Checkpoint.completed in
  {
    cp with
    Checkpoint.completed =
      cp.Checkpoint.completed @ [ { first with Checkpoint.shard = idx } ];
  }

let quarantine_at idx cp =
  {
    cp with
    Checkpoint.quarantined =
      List.map
        (fun q -> { q with Checkpoint.q_shard = idx })
        cp.Checkpoint.quarantined;
  }

let test_checkpoint_rejects_duplicate_shard () =
  let twice = {|checkpoint: field "completed": shard 0 is listed twice|} in
  check_decode_error "completed shard listed twice" twice
    (decode_edited (complete_again 0));
  check_decode_error "quarantined shard also completed"
    {|checkpoint: field "quarantined": shard 1 is already listed in "completed"|}
    (decode_edited (quarantine_at 1));
  (* every loader decodes through the codec: the file is Invalid *)
  let path = Filename.temp_file "o4a_checkpoint" ".json" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      Checkpoint.save ~path (complete_again 0 (sample_checkpoint ()));
      check_bool "load reports Invalid" true
        (Checkpoint.load ~path = Error (Checkpoint.Invalid twice)))

let test_checkpoint_rejects_shard_outside_plan () =
  check_decode_error "completed shard 99"
    {|checkpoint: field "completed": shard 99 is outside the plan's 5 shards|}
    (decode_edited (complete_again 99));
  check_decode_error "negative completed shard"
    {|checkpoint: field "completed": shard -1 is outside the plan's 5 shards|}
    (decode_edited (complete_again (-1)));
  check_decode_error "quarantined shard one past the plan"
    {|checkpoint: field "quarantined": shard 5 is outside the plan's 5 shards|}
    (decode_edited (quarantine_at 5))

let test_checkpoint_rejects_empty_plan () =
  check_decode_error "zero shard size"
    {|checkpoint: field "shard_size": must be >= 1, got 0|}
    (decode_edited (fun cp -> { cp with Checkpoint.shard_size = 0 }));
  check_decode_error "zero budget"
    {|checkpoint: field "budget": must be >= 1, got 0|}
    (decode_edited (fun cp -> { cp with Checkpoint.budget = 0 }))

(* the settled set is sparse: a plan of any size costs only the shards it
   lists, so no budget makes decoding allocate per planned shard *)
let test_checkpoint_huge_plan () =
  List.iter
    (fun (budget, shard_size) ->
      let json =
        Checkpoint.codec.enc { (sample_checkpoint ()) with Checkpoint.budget; shard_size }
      in
      let before = Gc.allocated_bytes () in
      let decoded = Checkpoint.codec.dec json in
      let allocated = Gc.allocated_bytes () -. before in
      check_bool (Printf.sprintf "budget %d decodes" budget) true (Result.is_ok decoded);
      check_bool
        (Printf.sprintf "budget %d: %.0f bytes allocated" budget allocated)
        true (allocated < 1e6);
      Alcotest.(check (list int)) "its unlisted shards remain" [ 3; 4 ]
        (List.map
           (fun s -> s.Shard.index)
           (Checkpoint.remaining (Result.to_option decoded)
              (Shard.plan ~budget:300 ~shard_size:60))))
    [ (max_int, 60); (100_000_000, 1) ]

let test_checkpoint_matches () =
  let cp = sample_checkpoint () in
  let matches (seed, budget, shard_size) =
    Checkpoint.matches ~path:"cp.json" ~seed ~budget ~shard_size cp
  in
  Alcotest.(check (result unit string)) "same campaign" (Ok ())
    (matches (91, 300, 60));
  List.iter
    (fun (what, ((seed, budget, shard_size) as requested)) ->
      Alcotest.(check (result unit string)) what
        (Error
           (Printf.sprintf
              "cannot resume from cp.json: checkpoint is for seed 91 budget \
               300 shard-size 60, requested seed %d budget %d shard-size %d"
              seed budget shard_size))
        (matches requested))
    [
      ("seed differs", (92, 300, 60));
      ("budget differs", (91, 360, 60));
      ("shard size differs", (91, 300, 50));
    ]

let test_checkpoint_remaining () =
  let plan = Shard.plan ~budget:300 ~shard_size:60 in
  let indices base =
    List.map (fun s -> s.Shard.index) (Checkpoint.remaining base plan)
  in
  Alcotest.(check (list int)) "no checkpoint: the whole plan" [ 0; 1; 2; 3; 4 ]
    (indices None);
  (* completed 0-1, quarantined 2 *)
  Alcotest.(check (list int)) "completed and quarantined shards skipped"
    [ 3; 4 ]
    (indices (Some (sample_checkpoint ())));
  Alcotest.(check (list int)) "in the plan's own order" [ 4; 3 ]
    (List.map
       (fun s -> s.Shard.index)
       (Checkpoint.remaining (Some (sample_checkpoint ())) (List.rev plan)))

(* ------------------------- journal ------------------------- *)

module Faults = O4a_faults.Faults
module Merge = Orchestrator.Merge

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let with_temp_file f =
  let path = Filename.temp_file "o4a_journal" ".json" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

(* the file's newline-terminated lines *)
let journal_lines path =
  match List.rev (String.split_on_char '\n' (read_file path)) with
  | "" :: rest -> List.rev rest
  | _ -> Alcotest.fail "checkpoint does not end with a newline"

let load_ok path =
  match Checkpoint.load ~path with
  | Ok cp -> cp
  | Error e -> Alcotest.fail (Checkpoint.load_error_to_string ~path e)

(* A merge driven by hand over the 50-tick plan of 10-tick shards, left
   uncompacted: shards absorbed in [order], as a --jobs 2 run may complete
   them; [quarantine] shards come back quarantined *)
let journal_merge ?chaos ?(quarantine = []) ~path order =
  let env =
    Orchestrator.make_env ?chaos ~seed:91 ~generators:(generators ())
      ~seeds:(Lazy.force seed_pool) ()
  in
  let plan = Array.of_list (Shard.plan ~budget:50 ~shard_size:10) in
  Solver.Engine.prewarm ();
  let merge =
    Merge.create ~env ~tel:Telemetry.disabled ~checkpoint_path:path ~jobs:2
      ~budget:50 ~shard_size:10 ~extra:[] ()
  in
  Merge.checkpoint_now merge;
  let zeal = Solver.Engine.zeal () and cove = Solver.Engine.cove () in
  List.iter
    (fun i ->
      let outcome =
        if List.mem i quarantine then
          Orchestrator.Quarantined
            [ { Orchestrator.attempt = 0; fired = [ Faults.Worker_death ] } ]
        else Orchestrator.exec_shard ~env ~worker_id:0 ~zeal ~cove plan.(i)
      in
      Merge.absorb merge plan.(i) outcome)
    order;
  merge

(* The small plan's shards, each executed once: an outcome is a pure
   function of (env, shard), so every merge below may absorb them in any
   order. *)
let small_env =
  lazy
    (Orchestrator.make_env ~seed:91 ~generators:(generators ())
       ~seeds:(Lazy.force seed_pool) ())

let small_plan = Array.of_list (Shard.plan ~budget:50 ~shard_size:10)

let small_outcomes =
  lazy
    (Solver.Engine.prewarm ();
     let env = Lazy.force small_env in
     let zeal = Solver.Engine.zeal () and cove = Solver.Engine.cove () in
     Array.map
       (fun s -> Orchestrator.exec_shard ~env ~worker_id:0 ~zeal ~cove s)
       small_plan)

let small_merge ?base ?checkpoint_path () =
  Merge.create ~env:(Lazy.force small_env) ~tel:Telemetry.disabled ?base
    ?checkpoint_path ~jobs:2 ~budget:50 ~shard_size:10 ~extra:[] ()

let quarantined =
  Orchestrator.Quarantined
    [ { Orchestrator.attempt = 0; fired = [ Faults.Worker_death ] } ]

(* what absorbing outcome [i] adds to the state, as the journal records it *)
let small_entry ~quarantine i =
  let s = small_plan.(i) in
  if List.mem i quarantine then
    Checkpoint.Quarantined
      { Checkpoint.q_shard = i; q_first_tick = s.Shard.first_tick;
        q_ticks = s.Shard.ticks; q_attempts = 1;
        q_sites = [ Faults.site_name Faults.Worker_death ] }
  else
    match (Lazy.force small_outcomes).(i) with
    | Orchestrator.Merged (p, _, _) -> Checkpoint.Completed p.Orchestrator.merged
    | _ -> Alcotest.fail "a small-plan shard did not merge"

(* Any completion order, any quarantines, any cut: the uncompacted journal
   loads to the state folded from what was absorbed, to what finalize
   compacts, and to the report's merged state. *)
let prop_journal_folds_like_merge =
  let gen =
    QCheck.Gen.(
      let* order = shuffle_l (List.init (Array.length small_plan) Fun.id) in
      let* quarantine = list_size (int_bound 3) (int_bound 4) in
      let* cut = int_range 0 (Array.length small_plan) in
      return (O4a_util.Listx.take cut order, List.sort_uniq compare quarantine))
  in
  let print (absorbed, quarantine) =
    let ints l = String.concat "," (List.map string_of_int l) in
    Printf.sprintf "absorbed [%s], quarantined [%s]" (ints absorbed) (ints quarantine)
  in
  QCheck.Test.make ~name:"folds like the merge" ~count:25 (QCheck.make ~print gen)
    (fun (absorbed, quarantine) ->
      with_temp_file (fun path ->
          let outcomes = Lazy.force small_outcomes in
          let merge = small_merge ~checkpoint_path:path () in
          Merge.checkpoint_now merge;
          let header = load_ok path in
          List.iter
            (fun i ->
              Merge.absorb merge small_plan.(i)
                (if List.mem i quarantine then quarantined else outcomes.(i)))
            absorbed;
          check_int "a header, then one entry per absorbed shard"
            (1 + List.length absorbed) (List.length (journal_lines path));
          let journal = load_ok path in
          let folded =
            match Checkpoint.start header with
            | Error e -> Alcotest.fail e
            | Ok state ->
              List.iter
                (fun i ->
                  match Checkpoint.add state (small_entry ~quarantine i) with
                  | Ok () -> ()
                  | Error e -> Alcotest.fail e)
                absorbed;
              Checkpoint.current state
          in
          check_bool "journal = the state folded from what was absorbed" true
            (journal = folded);
          check_bool "journal analytics = the merge's" true
            (journal.Checkpoint.analytics = Merge.analytics_snapshot merge);
          let r = Merge.finalize ~interrupted:true ~stopped:false merge in
          check_int "finalize compacts to one line" 1
            (List.length (journal_lines path));
          check_bool "journal = its compaction" true (journal = load_ok path);
          (* the rest of the merge's state, as its report shows it *)
          check_bool "completed in shard order" true
            (List.map (fun r -> r.Checkpoint.shard) journal.Checkpoint.completed
            = List.filter
                (fun i -> List.mem i absorbed && not (List.mem i quarantine))
                (List.init (Array.length small_plan) Fun.id));
          check_bool "findings" true
            (List.concat_map
               (fun r -> r.Checkpoint.findings)
               journal.Checkpoint.completed
            = r.Orchestrator.stats.Fuzz.findings);
          check_bool "quarantine" true
            (journal.Checkpoint.quarantined = r.Orchestrator.quarantined);
          check_bool "coverage" true
            (journal.Checkpoint.coverage = r.Orchestrator.coverage);
          check_bool "health" true
            (journal.Checkpoint.health = r.Orchestrator.health);
          check_bool "analytics" true
            (journal.Checkpoint.analytics = r.Orchestrator.analytics);
          true))

(* a second outcome for a shard the state lists is refused whole: absorb
   raises naming the shard, and nothing reaches the journal *)
let test_merge_refuses_duplicates () =
  with_temp_file (fun path ->
      let outcomes = Lazy.force small_outcomes in
      let merge = small_merge ~checkpoint_path:path () in
      Merge.checkpoint_now merge;
      Merge.absorb merge small_plan.(1) outcomes.(1);
      let lines = journal_lines path in
      List.iter
        (fun (what, outcome, expected) ->
          match Merge.absorb merge small_plan.(1) outcome with
          | () -> Alcotest.failf "%s for shard 1 was absorbed" what
          | exception Failure msg ->
            Alcotest.(check string) (what ^ " names the shard") expected msg)
        [
          ( "a merged outcome", outcomes.(1),
            {|Merge.absorb: field "completed": shard 1 is listed twice|} );
          ( "a quarantine", quarantined,
            {|Merge.absorb: field "quarantined": shard 1 is already listed in "completed"|}
          );
        ];
      check_bool "nothing appended" true (journal_lines path = lines);
      check_int "one shard processed" 1 (Merge.processed merge);
      check_int "the journal loads with shard 1 once" 1
        (List.length (load_ok path).Checkpoint.completed))

(* merging sums coverage by identity and registers nothing: an identity no
   engine registers stays in the report's coverage, outside its
   percentages *)
let test_merge_registers_nothing () =
  let gone = "zeal|gone.ml|f|l|0" in
  let outcomes = Lazy.force small_outcomes in
  let totals () =
    (Coverage.total_points Coverage.Zeal, Coverage.total_points Coverage.Cove)
  in
  let before = totals () in
  let base =
    {
      Checkpoint.seed = 91;
      budget = 50;
      shard_size = 10;
      extra = [];
      completed = [];
      quarantined = [];
      coverage = [ (gone, 3) ];
      health = [];
      analytics = O4a_analytics.Analytics.empty;
      artifacts = Checkpoint.no_artifacts;
    }
  in
  let merge = small_merge ~base () in
  Merge.absorb merge small_plan.(0) outcomes.(0);
  let r = Merge.finalize ~interrupted:true ~stopped:false merge in
  check_bool "no point registered" true (totals () = before);
  Alcotest.(check (option int)) "the identity stays in the coverage" (Some 3)
    (List.assoc_opt gone r.Orchestrator.coverage);
  check_bool "the percentages count registered points only" true
    (r.Orchestrator.coverage_zeal
    = Coverage.snapshot_of_export
        (List.remove_assoc gone r.Orchestrator.coverage)
        Coverage.Zeal)

(* a remote result is vetted past its decoder: a quarantine from a job
   that injects no faults, a coverage count that is not positive, and an
   identity this process never registered are refused *)
let test_check_vets_remote_results () =
  let outcomes = Lazy.force small_outcomes in
  let merge = small_merge () in
  let shard = small_plan.(0) in
  let check what expected outcome =
    Alcotest.(check (result unit string)) what expected (Merge.check merge shard outcome)
  in
  let with_coverage f =
    match outcomes.(0) with
    | Orchestrator.Merged (p, logs, fired) ->
      let m = p.Orchestrator.merged in
      Orchestrator.Merged
        ( { p with
            Orchestrator.merged =
              { m with Checkpoint.m_coverage = f m.Checkpoint.m_coverage } },
          logs,
          fired )
    | _ -> Alcotest.fail "shard 0 did not merge"
  in
  check "a clean result" (Ok ()) outcomes.(0);
  check "a quarantine without chaos"
    (Error "shard 0 was quarantined, but the job injects no faults")
    quarantined;
  check "a zero count"
    (Error "the result's coverage has a count that is not positive")
    (with_coverage (function (k, _) :: rest -> (k, 0) :: rest | [] -> [ ("x", 0) ]));
  check "an unregistered identity"
    (Error {|the result's coverage names no point here: "zeal|gone.ml|f|l|0"|})
    (with_coverage (fun c -> c @ [ ("zeal|gone.ml|f|l|0", 1) ]));
  let chaos_env =
    Orchestrator.make_env
      ~chaos:(Faults.plan ~rate:0.5 ~chaos_seed:1 Faults.Workers)
      ~seed:91 ~generators:(generators ()) ~seeds:(Lazy.force seed_pool) ()
  in
  let chaos_merge =
    Merge.create ~env:chaos_env ~tel:Telemetry.disabled ~jobs:1 ~budget:50
      ~shard_size:10 ~extra:[] ()
  in
  Alcotest.(check (result unit string)) "a quarantine under chaos" (Ok ())
    (Merge.check chaos_merge shard quarantined)

(* a header and the entries of shards 1 and 0, in that order *)
let two_entry_journal path =
  ignore (journal_merge ~path [ 1; 0 ]);
  match journal_lines path with
  | [ header; e1; e0 ] -> (header, e1, e0)
  | lines -> Alcotest.failf "expected 3 lines, got %d" (List.length lines)

let test_journal_torn_tail () =
  with_temp_file (fun path ->
      let header, e1, e0 = two_entry_journal path in
      let prefix = header ^ "\n" ^ e1 ^ "\n" in
      write_file path prefix;
      let expected = load_ok path in
      check_bool "the prefix holds shard 1 only" true
        (List.map (fun r -> r.Checkpoint.shard) expected.Checkpoint.completed
        = [ 1 ]);
      (* a crash mid-append: the last line lacks its newline *)
      List.iter
        (fun cut ->
          write_file path (prefix ^ String.sub e0 0 cut);
          check_bool
            (Printf.sprintf "cut at %d loads as the prefix" cut)
            true
            (load_ok path = expected))
        [ 1; String.length e0 / 2; String.length e0 ])

let test_journal_damage () =
  with_temp_file (fun path ->
      let header, e1, e0 = two_entry_journal path in
      let prefix = header ^ "\n" ^ e1 ^ "\n" in
      let garbage = "{garbage" in
      write_file path (prefix ^ garbage ^ "\n" ^ e0 ^ "\n");
      let within =
        match Json.parse_located garbage with
        | Error (o, _) -> o
        | Ok _ -> Alcotest.fail "garbage parsed"
      in
      (match Checkpoint.load ~path with
      | Error (Checkpoint.Corrupt { offset; _ }) ->
        check_int "file-absolute offset" (String.length prefix + within) offset
      | Ok _ -> Alcotest.fail "a garbage line loaded"
      | Error e ->
        Alcotest.fail
          ("expected Corrupt, got: " ^ Checkpoint.load_error_to_string ~path e));
      (* a line that parses but is no entry *)
      write_file path (prefix ^ {|{"completed":3}|} ^ "\n");
      check_bool "an undecodable line is Invalid" true
        (match Checkpoint.load ~path with
        | Error (Checkpoint.Invalid _) -> true
        | _ -> false);
      (* an entry for a shard the header already lists *)
      write_file path (prefix ^ e1 ^ "\n");
      check_bool "a shard merged twice is Invalid" true
        (Checkpoint.load ~path
        = Error
            (Checkpoint.Invalid
               {|checkpoint: field "completed": shard 1 is listed twice|})))

let test_journal_chaos_tear () =
  (* rate 1.0: every append is torn on each attempt but the last *)
  let chaos = Faults.plan ~rate:1.0 ~chaos_seed:3 Faults.Io in
  with_temp_file (fun path ->
      ignore (journal_merge ~chaos ~path [ 1; 0 ]);
      check_int "torn appends were undone and made again" 3
        (List.length (journal_lines path));
      check_int "both shards load" 2
        (List.length (load_ok path).Checkpoint.completed);
      let full = run ~jobs:1 ~chaos ~budget:100 ~shard_size:20 () in
      let partial =
        run ~jobs:2 ~chaos ~checkpoint_path:path ~stop_after:2 ~budget:100
          ~shard_size:20 ()
      in
      check_int "each merged shard's append torn until its last attempt"
        (2 * Faults.max_retries) partial.Orchestrator.faults_injected;
      let resumed =
        run ~jobs:2 ~chaos ~checkpoint_path:path ~resume:true ~budget:100
          ~shard_size:20 ()
      in
      check_bool "resume lands on the jobs-1 report" true
        (report_key resumed = report_key full))

(* ------------------------- kill / resume ------------------------- *)

let test_stop_and_resume_round_trip () =
  let path = Filename.temp_file "o4a_resume" ".json" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let full = run ~jobs:1 () in
      (* run only 2 of the 5 shards, "crash", then resume on 2 domains *)
      let partial = run ~jobs:1 ~checkpoint_path:path ~stop_after:2 () in
      check_bool "interrupted" true partial.Orchestrator.interrupted;
      check_int "two shards ran" 2 partial.Orchestrator.shards_run;
      let resumed = run ~jobs:2 ~checkpoint_path:path ~resume:true () in
      check_bool "not interrupted" false resumed.Orchestrator.interrupted;
      check_int "resumed shards" 2 resumed.Orchestrator.shards_resumed;
      check_int "remaining shards ran" 3 resumed.Orchestrator.shards_run;
      check_bool "resume lands on the uninterrupted report" true
        (report_key full = report_key resumed))

let test_graceful_stop_then_resume () =
  let path = Filename.temp_file "o4a_stop" ".json" in
  Fun.protect
    ~finally:(fun () ->
      Orchestrator.Stop.reset ();
      if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let full = run ~jobs:1 () in
      (* raise the stop flag before the campaign starts: no shard is
         claimed, but the initial checkpoint still makes it resumable *)
      check_bool "first request wins" true (Orchestrator.Stop.request ());
      check_bool "second request reports already stopping" false
        (Orchestrator.Stop.request ());
      let stopped = run ~jobs:2 ~checkpoint_path:path () in
      check_bool "stopped" true stopped.Orchestrator.stopped;
      check_int "no shards ran" 0 stopped.Orchestrator.shards_run;
      check_bool "checkpoint written before drain" true (Sys.file_exists path);
      Orchestrator.Stop.reset ();
      let resumed = run ~jobs:2 ~checkpoint_path:path ~resume:true () in
      check_bool "not stopped" false resumed.Orchestrator.stopped;
      check_bool "resume lands on the uninterrupted report" true
        (report_key full = report_key resumed))

let test_resume_rejects_mismatched_provenance () =
  let path = Filename.temp_file "o4a_resume" ".json" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      ignore (run ~jobs:1 ~checkpoint_path:path ~stop_after:1 ());
      let refusal from =
        Printf.sprintf
          "cannot resume from %s: checkpoint is for seed 91 budget 300 \
           shard-size 60, requested seed 91 budget 360 shard-size 60"
          from
      in
      let refused what expected f =
        match f () with
        | (_ : Orchestrator.report) -> Alcotest.failf "%s: resumed" what
        | exception Failure msg -> Alcotest.(check string) what expected msg
      in
      refused "different budget refused, naming the file" (refusal path)
        (fun () -> run ~budget:360 ~checkpoint_path:path ~resume:true ());
      refused "without a path, naming the base" (refusal "the base checkpoint")
        (fun () ->
          Orchestrator.run ~base:(load_ok path) ~shard_size:60 ~seed:91
            ~budget:360 ~generators:(generators ())
            ~seeds:(Lazy.force seed_pool) ()))

(* a base with no checkpoint path: the run resumes from it, lands on the
   uninterrupted report, and writes nothing *)
let test_resume_base_without_path () =
  with_temp_file (fun path ->
      let full = run ~jobs:1 () in
      ignore (run ~jobs:1 ~checkpoint_path:path ~stop_after:2 ());
      let before = read_file path in
      let resumed =
        Orchestrator.run ~jobs:2 ~base:(load_ok path) ~shard_size:60 ~seed:91
          ~budget:300 ~generators:(generators ())
          ~seeds:(Lazy.force seed_pool) ()
      in
      check_int "resumed shards" 2 resumed.Orchestrator.shards_resumed;
      check_int "remaining shards ran" 3 resumed.Orchestrator.shards_run;
      check_bool "resume lands on the uninterrupted report" true
        (report_key full = report_key resumed);
      Alcotest.(check string) "the base's file is untouched" before
        (read_file path))

(* The HUD's coverage rate is the campaign state's: coverage points per
   1,000 ticks of the completed shards, at every snapshot once one has
   completed, and none before. Quarantined shards add to neither count. *)
let test_progress_cov_rate () =
  let snapshots f =
    let snaps = ref [] in
    let r = f (fun (p : Hud.progress) -> snaps := p :: !snaps) in
    (r, List.rev !snaps)
  in
  let check_rates what snaps =
    check_bool (what ^ ": a shard completed") true
      (List.exists (fun (p : Hud.progress) -> p.Hud.ticks_done > 0) snaps);
    List.iter
      (fun (p : Hud.progress) ->
        let expected =
          if p.Hud.ticks_done = 0 then None
          else
            Some
              (1000. *. float_of_int p.Hud.coverage_points
              /. float_of_int p.Hud.ticks_done)
        in
        check_bool
          (Printf.sprintf "%s: rate at %d ticks" what p.Hud.ticks_done)
          true (p.Hud.cov_rate = expected))
      snaps
  in
  let _, fresh = snapshots (fun on_progress -> run ~jobs:2 ~on_progress ()) in
  check_rates "fresh" fresh;
  with_temp_file (fun path ->
      ignore (run ~jobs:1 ~checkpoint_path:path ~stop_after:2 ());
      let _, resumed =
        snapshots (fun on_progress ->
            run ~jobs:2 ~checkpoint_path:path ~resume:true ~on_progress ())
      in
      check_int "resumed: the first snapshot counts the base" 120
        (List.hd resumed).Hud.ticks_done;
      check_rates "resumed" resumed);
  let r, chaotic =
    snapshots (fun on_progress ->
        run ~jobs:2 ~chaos:(Faults.plan ~chaos_seed:3 Faults.All) ~on_progress ())
  in
  check_int "chaos: one shard quarantined" 1 (List.length r.Orchestrator.quarantined);
  check_rates "chaos" chaotic

(* ------------------------- telemetry merge ------------------------- *)

let test_telemetry_merge () =
  let sink = Sink.memory () in
  let tel = Telemetry.create ~sink () in
  let r = run ~jobs:2 ~telemetry:tel () in
  let events = Sink.events sink in
  let named n = List.filter (fun e -> e.Event.name = n) events in
  check_int "campaign counter equals budget" 300
    (List.fold_left
       (fun acc e ->
         match Event.field "tests" e with Some (Json.Int n) -> acc + n | _ -> acc)
       0 (named "shard.end"));
  check_int "one campaign.start" 1 (List.length (named "campaign.start"));
  check_int "one campaign.end" 1 (List.length (named "campaign.end"));
  check_int "one fuzz.test event per test" 300 (List.length (named "fuzz.test"));
  check_int "one shard.end per shard" r.Orchestrator.shards_total
    (List.length (named "shard.end"));
  (* every forwarded worker event is tagged with its shard *)
  List.iter
    (fun e ->
      check_bool "shard field present" true (Event.field "shard" e <> None);
      check_bool "worker field present" true (Event.field "worker" e <> None))
    (named "fuzz.test")

(* A campaign's telemetry is the same at any --jobs once scheduling is
   taken out: grouped by the shard each event belongs to (events without a
   shard are the merge owner's), and stripped of timestamps, durations, the
   executor's [worker] label and campaign.start's [jobs], each group of a
   --jobs 2 run lists a --jobs 1 run's events in the same order. *)
let jobs_invariant_groups events =
  let strip (e : Event.t) =
    let dropped k =
      k = "dur_us" || k = "worker" || (e.Event.name = "campaign.start" && k = "jobs")
    in
    Json.to_string
      (Json.Obj
         (("event", Json.String e.Event.name)
         :: List.filter (fun (k, _) -> not (dropped k)) e.Event.fields))
  in
  let shard e =
    match Event.field "shard" e with Some (Json.Int n) -> Some n | _ -> None
  in
  events
  |> List.map (fun e -> (shard e, strip e))
  |> O4a_util.Listx.group_by fst
  |> List.map (fun (s, group) -> (s, List.map snd group))
  |> List.sort compare

let test_telemetry_jobs_invariant () =
  let groups jobs =
    let sink = Sink.memory () in
    ignore (run ~jobs ~telemetry:(Telemetry.create ~sink ()) ());
    jobs_invariant_groups (Sink.events sink)
  in
  let one = groups 1 and two = groups 2 in
  check_bool "one group per shard plus the merge owner's" true
    (List.map fst one = None :: List.init 5 Option.some);
  check_bool "the same groups" true (List.map fst two = List.map fst one);
  List.iter2
    (fun (s, a) (_, b) ->
      Alcotest.(check (list string))
        (match s with
        | Some n -> Printf.sprintf "shard %d's events" n
        | None -> "the merge owner's events")
        a b)
    one two

let test_ledger_isolation () =
  (* a parallel campaign must not leak coverage into the ambient ledger *)
  let probe = Coverage.make_ledger () in
  Coverage.with_ledger probe (fun () ->
      let before = Coverage.export probe in
      ignore (run ~jobs:2 ~budget:60 ~shard_size:30 ());
      check_bool "ambient ledger untouched" true (Coverage.export probe = before))

let test_parallel_map () =
  let xs = List.init 23 Fun.id in
  check_bool "order preserved" true
    (Orchestrator.parallel_map ~jobs:4 (fun x -> x * x) xs
    = List.map (fun x -> x * x) xs);
  check_bool "jobs:1 degrades" true
    (Orchestrator.parallel_map ~jobs:1 string_of_int xs = List.map string_of_int xs);
  check_bool "exceptions propagate" true
    (match
       Orchestrator.parallel_map ~jobs:3
         (fun x -> if x = 11 then failwith "boom" else x)
         xs
     with
    | _ -> false
    | exception Failure _ -> true)

(* ------------------------- executor pool ------------------------- *)

module Pool = Orchestrator.Pool

let task f ~worker_id ~zeal:_ ~cove:_ = f worker_id

let test_pool_inline () =
  let pool = Pool.create ~slots:0 in
  let ran = ref [] in
  List.iter
    (fun i ->
      Pool.submit pool
        (task (fun w ->
             ran := i :: !ran;
             (i, w, Domain.self ()))))
    [ 0; 1; 2; 3; 4 ];
  check_bool "nothing runs before take" true (!ran = []);
  let taken = List.init 5 (fun _ -> Pool.take pool) in
  check_bool "FIFO order" true
    (List.map (fun (i, _, _) -> i) taken = [ 0; 1; 2; 3; 4 ]);
  check_bool "worker 0, on the caller's domain" true
    (List.for_all (fun (_, w, d) -> w = 0 && d = Domain.self ()) taken);
  check_bool "close leaves nothing" true (Pool.close pool = [])

let test_pool_slots () =
  let slots = 3 and n = 40 in
  let pool = Pool.create ~slots in
  for i = 0 to n - 1 do
    Pool.submit pool (task (fun w -> (i, w, Domain.self ())))
  done;
  let taken = List.init n (fun _ -> Pool.take pool) in
  check_bool "every result taken exactly once" true
    (List.sort compare (List.map (fun (i, _, _) -> i) taken) = List.init n Fun.id);
  check_bool "worker ids in [0, slots)" true
    (List.for_all (fun (_, w, _) -> w >= 0 && w < slots) taken);
  check_bool "run off the caller's domain" true
    (List.for_all (fun (_, _, d) -> d <> Domain.self ()) taken);
  check_bool "nothing left to take" true (Pool.try_take pool = None);
  check_bool "close leaves nothing" true (Pool.close pool = [])

let test_pool_try_take () =
  let pool = Pool.create ~slots:0 in
  let ran = ref false in
  Pool.submit pool
    (task (fun _ ->
         ran := true;
         7));
  check_bool "nothing is ready" true (Pool.try_take pool = None);
  check_bool "the task did not run" false !ran;
  check_int "take runs it" 7 (Pool.take pool);
  ignore (Pool.close pool)

let test_pool_close () =
  let pool = Pool.create ~slots:0 in
  List.iter (fun i -> Pool.submit pool (task (fun _ -> i))) [ 1; 2; 3 ];
  check_bool "inline: the queue runs in order" true (Pool.close pool = [ 1; 2; 3 ]);
  let pool = Pool.create ~slots:2 in
  for i = 0 to 19 do
    Pool.submit pool
      (task (fun _ ->
           Unix.sleepf 0.002;
           i))
  done;
  let first = List.init 3 (fun _ -> Pool.take pool) in
  let rest = Pool.close pool in
  check_bool "executors: every task ran, its result taken once" true
    (List.sort compare (first @ rest) = List.init 20 Fun.id)

let test_pool_ready_fd () =
  let pool = Pool.create ~slots:1 in
  let fd = Pool.ready_fd pool in
  let readable timeout =
    match Unix.select [ fd ] [] [] timeout with [], _, _ -> false | _ -> true
  in
  check_bool "an idle pool is not readable" false (readable 0.);
  let gate = Atomic.make false in
  let held i =
    task (fun _ ->
        while not (Atomic.get gate) do
          Unix.sleepf 0.001
        done;
        i)
  in
  Pool.submit pool (held 1);
  Pool.submit pool (held 2);
  check_bool "not readable while the tasks run" false (readable 0.05);
  Atomic.set gate true;
  check_bool "readable once a result is queued" true (readable 10.);
  check_int "take the first" 1 (Pool.take pool);
  check_int "take the second" 2 (Pool.take pool);
  check_bool "not readable once all are taken" false (readable 0.);
  ignore (Pool.close pool)

let () =
  Alcotest.run "orchestrator"
    [
      ( "shard plan",
        [
          Alcotest.test_case "covers budget" `Quick test_plan_covers_budget;
          Alcotest.test_case "edges" `Quick test_plan_edges;
          Alcotest.test_case "rng by index" `Quick test_shard_rng_depends_on_index_only;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "jobs 1 = jobs 4" `Slow test_jobs_invariance;
          Alcotest.test_case "trace bundles jobs-invariant" `Slow
            test_trace_bundles_jobs_invariant;
          Alcotest.test_case "run-to-run stable" `Slow test_matches_sequential_campaign;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "json round-trip" `Quick test_checkpoint_json_roundtrip;
          Alcotest.test_case "save/load" `Quick test_checkpoint_save_load;
          Alcotest.test_case "reads v1" `Quick test_checkpoint_reads_v1;
          Alcotest.test_case "reads v2" `Quick test_checkpoint_reads_v2;
          Alcotest.test_case "rejects future version" `Quick
            test_checkpoint_rejects_future_version;
          Alcotest.test_case "load truncated" `Quick test_checkpoint_load_truncated;
          Alcotest.test_case "rejects garbage" `Quick test_checkpoint_rejects_garbage;
          Alcotest.test_case "rejects duplicate shard" `Quick
            test_checkpoint_rejects_duplicate_shard;
          Alcotest.test_case "rejects shard outside plan" `Quick
            test_checkpoint_rejects_shard_outside_plan;
          Alcotest.test_case "rejects empty plan" `Quick
            test_checkpoint_rejects_empty_plan;
          Alcotest.test_case "huge plan decodes sparsely" `Quick
            test_checkpoint_huge_plan;
          Alcotest.test_case "matches provenance" `Quick
            test_checkpoint_matches;
          Alcotest.test_case "remaining shards" `Quick
            test_checkpoint_remaining;
        ] );
      ( "journal",
        [
          QCheck_alcotest.to_alcotest prop_journal_folds_like_merge;
          Alcotest.test_case "a shard absorbed twice is refused" `Slow
            test_merge_refuses_duplicates;
          Alcotest.test_case "merging registers no point" `Slow
            test_merge_registers_nothing;
          Alcotest.test_case "check vets remote results" `Slow
            test_check_vets_remote_results;
          Alcotest.test_case "torn tail dropped" `Slow test_journal_torn_tail;
          Alcotest.test_case "damage is typed" `Slow test_journal_damage;
          Alcotest.test_case "chaos tear rewritten" `Slow
            test_journal_chaos_tear;
        ] );
      ( "resume",
        [
          Alcotest.test_case "stop then resume" `Slow test_stop_and_resume_round_trip;
          Alcotest.test_case "graceful stop then resume" `Slow
            test_graceful_stop_then_resume;
          Alcotest.test_case "provenance mismatch" `Slow
            test_resume_rejects_mismatched_provenance;
          Alcotest.test_case "a base without a path" `Slow
            test_resume_base_without_path;
          Alcotest.test_case "progress coverage rate" `Slow
            test_progress_cov_rate;
        ] );
      ( "merge",
        [
          Alcotest.test_case "telemetry merge" `Slow test_telemetry_merge;
          Alcotest.test_case "telemetry same at any jobs" `Slow
            test_telemetry_jobs_invariant;
          Alcotest.test_case "ledger isolation" `Quick test_ledger_isolation;
          Alcotest.test_case "parallel map" `Quick test_parallel_map;
        ] );
      ( "pool",
        [
          Alcotest.test_case "0 slots: take runs inline, in order" `Quick
            test_pool_inline;
          Alcotest.test_case "n slots: each result taken once" `Quick
            test_pool_slots;
          Alcotest.test_case "try_take never runs a task" `Quick
            test_pool_try_take;
          Alcotest.test_case "close runs every queued task" `Quick
            test_pool_close;
          Alcotest.test_case "ready_fd tracks ready results"
            `Quick test_pool_ready_fd;
        ] );
    ]
