open Smtlib
module Rng = O4a_util.Rng
module Telemetry = O4a_telemetry.Telemetry
module Json = O4a_telemetry.Json
module Trace = O4a_trace.Trace
module Analytics = O4a_analytics.Analytics

type schedule = Uniform | Coverage_guided

type config = {
  mutations_per_seed : int;
  keep_prob : float;
  adapt_prob : float;
  use_skeletons : bool;
  mixed_sorts : bool;
  schedule : schedule;
  direct_terms_max : int;
  max_steps : int;
  max_seed_growth : int;
}

let default_config =
  {
    mutations_per_seed = 10;
    keep_prob = 0.45;
    adapt_prob = 0.55;
    use_skeletons = true;
    mixed_sorts = false;
    schedule = Uniform;
    direct_terms_max = 3;
    max_steps = 60_000;
    max_seed_growth = 400;
  }

type stats = {
  tests : int;
  parse_ok : int;
  solved : int;
  bytes_total : int;
  findings : Dedup.found list;
}

let empty_stats = { tests = 0; parse_ok = 0; solved = 0; bytes_total = 0; findings = [] }

let record stats (filled : Synthesize.filled) (outcome : Oracle.outcome) =
  {
    tests = stats.tests + 1;
    parse_ok = (stats.parse_ok + if filled.Synthesize.parsed <> None then 1 else 0);
    solved = (stats.solved + if outcome.Oracle.solved then 1 else 0);
    bytes_total = stats.bytes_total + String.length filled.Synthesize.source;
    findings =
      (match outcome.Oracle.finding with
      | Some finding ->
        { Dedup.finding; source = filled.Synthesize.source } :: stats.findings
      | None -> stats.findings);
  }

(* Coverage-guided generator scheduling (paper 5.3: "incorporating
   solver-driven signals, such as coverage feedback"): an epsilon-greedy
   bandit over the generator pool, rewarding each pull with the number of new
   coverage points its formula reached. *)
module Bandit = struct
  type arm = { mutable plays : int; mutable gain : float }

  type t = {
    arms : (string, arm) Hashtbl.t;
    epsilon : float;
  }

  let create () = { arms = Hashtbl.create 16; epsilon = 0.2 }

  let arm t key =
    match Hashtbl.find_opt t.arms key with
    | Some a -> a
    | None ->
      let a = { plays = 0; gain = 0. } in
      Hashtbl.add t.arms key a;
      a

  let pick t ~rng generators =
    let unplayed =
      List.filter
        (fun g ->
          (arm t g.Gensynth.Generator.theory.Theories.Theory.key).plays = 0)
        generators
    in
    if unplayed <> [] then Rng.choose rng unplayed
    else if Rng.chance rng t.epsilon then Rng.choose rng generators
    else
      List.fold_left
        (fun best g ->
          let score g =
            let a = arm t g.Gensynth.Generator.theory.Theories.Theory.key in
            a.gain /. float_of_int (max 1 a.plays)
          in
          if score g > score best then g else best)
        (List.hd generators) generators

  let reward t keys gain =
    List.iter
      (fun key ->
        let a = arm t key in
        a.plays <- a.plays + 1;
        a.gain <- a.gain +. gain)
      keys
end

let coverage_hits () =
  let z = O4a_coverage.Coverage.snapshot O4a_coverage.Coverage.Zeal in
  let c = O4a_coverage.Coverage.snapshot O4a_coverage.Coverage.Cove in
  z.O4a_coverage.Coverage.lines_hit + c.O4a_coverage.Coverage.lines_hit

let one_mutation ~tel ~rng ~config ~generators current =
  let direct () =
    Telemetry.with_span tel "generate" (fun () ->
        Synthesize.direct ~rng ~generators
          ~terms:(1 + Rng.int rng config.direct_terms_max))
  in
  let note_skeletonized ~mode ~holes =
    if Trace.noting () then Trace.note (Trace.Skeletonized { mode; holes })
  in
  if not config.use_skeletons then direct ()
  else if config.mixed_sorts then (
    let supported sort =
      List.exists (fun g -> Gensynth.Generator.supports_sort g sort) generators
    in
    let skeleton, hole_sorts =
      Telemetry.with_span tel "skeletonize" (fun () ->
          Skeleton.skeletonize_typed ~rng ~keep_prob:config.keep_prob ~supported
            current)
    in
    note_skeletonized ~mode:"typed" ~holes:(List.length hole_sorts);
    if hole_sorts = [] then direct ()
    else
      Telemetry.with_span tel "synthesize" (fun () ->
          Synthesize.fill_typed ~swap_prob:config.adapt_prob ~rng ~generators
            ~skeleton ~hole_sorts ()))
  else (
    let skeleton, holes =
      Telemetry.with_span tel "skeletonize" (fun () ->
          Skeleton.skeletonize ~rng ~keep_prob:config.keep_prob current)
    in
    note_skeletonized ~mode:"boolean" ~holes;
    if holes = 0 then direct ()
    else
      Telemetry.with_span tel "synthesize" (fun () ->
          Synthesize.fill ~swap_prob:config.adapt_prob ~rng ~generators ~skeleton
            ~holes ()))

(* per-test telemetry: one ["fuzz.test"] event, the record every per-test
   and per-generator count is read back from *)
let record_test tel (filled : Synthesize.filled) (outcome : Oracle.outcome) =
  if Telemetry.enabled tel then
    Telemetry.emit tel "fuzz.test"
      [
        ( "gens",
          Json.List
            (List.map (fun k -> Json.String k) filled.Synthesize.theories_spliced)
        );
        ("parse_ok", Json.Bool (filled.Synthesize.parsed <> None));
        ("solved", Json.Bool outcome.Oracle.solved);
        ("bytes", Json.Int (String.length filled.Synthesize.source));
        ( "finding",
          match outcome.Oracle.finding with
          | Some f -> Json.String (Solver.Bug_db.kind_to_string f.Oracle.kind)
          | None -> Json.Null );
      ]

let stats_fields stats =
  [
    ("tests", Json.Int stats.tests);
    ("parse_ok", Json.Int stats.parse_ok);
    ("solved", Json.Int stats.solved);
    ("bytes_total", Json.Int stats.bytes_total);
    ("findings", Json.Int (List.length stats.findings));
  ]

(* the promoted-trace rendering of a finding, with the same dedup key the
   campaign report and [triage] print *)
let finding_info (f : Oracle.finding) =
  {
    Trace.kind = Solver.Bug_db.kind_to_string f.Oracle.kind;
    solver =
      (match f.Oracle.solver with
      | O4a_coverage.Coverage.Zeal -> "zeal"
      | O4a_coverage.Coverage.Cove -> "cove");
    solver_name = f.Oracle.solver_name;
    signature = f.Oracle.signature;
    bug_id = f.Oracle.bug_id;
    theory = f.Oracle.theory;
    dedup_key = Dedup.signature_to_string (Dedup.signature f);
    mode = Oracle.mode_to_string f.Oracle.mode;
  }

(* The Algorithm 2 loop over one shard's ticks. [first_tick] anchors them in
   the campaign-global tick stream, so trace ids are identical however the
   budget is sharded; [analytics] receives every test's yield row and solver
   work. *)
let run_shard ~rng ~config ~telemetry:tel ~analytics ~shard_index ~first_tick
    ~generators ~seeds ~zeal ~cove ~budget =
  if generators = [] then invalid_arg "Fuzz.run_shard: no generators";
  if seeds = [] then invalid_arg "Fuzz.run_shard: no seeds";
  Telemetry.emit tel "shard.start"
    [
      ("shard", Json.Int shard_index);
      ("first_tick", Json.Int first_tick);
      ("ticks", Json.Int budget);
    ];
  let bandit = Bandit.create () in
  let recorder = Trace.Recorder.ambient () in
  let stats = ref empty_stats in
  while !stats.tests < budget do
    let seed = Telemetry.with_span tel "seed.select" (fun () -> Rng.choose rng seeds) in
    (* yield-attribution key: the seed's cluster identity, hashed once per
       mutation batch — every test in the batch descends from this pick *)
    let seed_cluster =
      String.sub (Digest.to_hex (Digest.string (Printer.script seed))) 0 8
    in
    let current = ref seed in
    let rounds = min config.mutations_per_seed (budget - !stats.tests) in
    for _ = 1 to rounds do
      (* chaos probe: a planned worker death fires here, between two tests,
         so the killed attempt never leaves a half-recorded trace open *)
      O4a_faults.Faults.tick ();
      (* one profile tick per test: the denominator for bytes/tick and
         consults/tick in the campaign profile *)
      O4a_profile.Profile.tick ();
      Trace.Recorder.start recorder ~tick:(first_tick + !stats.tests);
      if Trace.noting () then (
        let printed = Printer.script !current in
        Trace.note
          (Trace.Seed_selected
             {
               hash = Digest.to_hex (Digest.string printed);
               bytes = String.length printed;
               size = Script.size !current;
             }));
      let mutation_generators =
        match config.schedule with
        | Uniform -> generators
        | Coverage_guided -> [ Bandit.pick bandit ~rng generators ]
      in
      (* the snapshot walk behind [coverage_hits] is only worth paying for
         when the schedule consumes the reward signal *)
      let before =
        match config.schedule with
        | Coverage_guided -> coverage_hits ()
        | Uniform -> 0
      in
      let filled =
        one_mutation ~tel ~rng ~config ~generators:mutation_generators !current
      in
      let outcome =
        Oracle.test ~max_steps:config.max_steps ~telemetry:tel
          ?parsed:filled.Synthesize.parsed ~zeal ~cove
          ~source:filled.Synthesize.source ()
      in
      (match outcome.Oracle.finding with
      | Some f when Trace.Recorder.enabled recorder ->
        Trace.Recorder.promote recorder ~source:filled.Synthesize.source
          ~finding:(finding_info f)
      | _ -> ());
      Trace.Recorder.finish recorder;
      (match config.schedule with
      | Coverage_guided ->
        Bandit.reward bandit filled.Synthesize.theories_spliced
          (float_of_int (coverage_hits () - before))
      | Uniform -> ());
      stats := record !stats filled outcome;
      Analytics.consult analytics ~consults:outcome.Oracle.consults
        ~fuel:outcome.Oracle.fuel;
      Analytics.record_test analytics ~theories:filled.Synthesize.theories_spliced
        ~seed_cluster ~parse_ok:(filled.Synthesize.parsed <> None)
        ~found:(outcome.Oracle.finding <> None);
      record_test tel filled outcome;
      (* Algorithm 2, line 9: the synthesized formula becomes the next seed *)
      (match filled.Synthesize.parsed with
      | Some script when Script.size script <= config.max_seed_growth ->
        current := script
      | _ -> current := seed)
    done
  done;
  let stats = { !stats with findings = List.rev !stats.findings } in
  Telemetry.emit tel "shard.end" (("shard", Json.Int shard_index) :: stats_fields stats);
  stats
