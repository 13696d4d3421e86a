let log_src = Logs.Src.create "once4all" ~doc:"Once4All campaign events"

module Log = (val Logs.src_log log_src : Logs.LOG)
module Telemetry = O4a_telemetry.Telemetry
module Json = O4a_telemetry.Json

type t = {
  generators : Gensynth.Generator.t list;
  generator_reports : Gensynth.Synthesis.report list;
  client : Llm_sim.Client.t;
  zeal : Solver.Engine.t;
  cove : Solver.Engine.t;
}

let prepare ?(seed = 42) ?(profile = Llm_sim.Profile.gpt4) ?theories () =
  let tel = Telemetry.global () in
  let zeal = Solver.Engine.zeal () in
  let cove = Solver.Engine.cove () in
  let theories = Option.value theories ~default:Theories.Theory.all in
  let client = Llm_sim.Client.create ~seed profile in
  Log.info (fun m ->
      m "constructing %d generators with %s (seed %d)" (List.length theories)
        profile.Llm_sim.Profile.name seed);
  let built =
    List.map
      (fun theory ->
        let result =
          Telemetry.with_span tel
            ~labels:[ ("theory", theory.Theories.Theory.key) ]
            "construct"
            (fun () ->
              Gensynth.Synthesis.construct ~client ~solvers:[ zeal; cove ] theory)
        in
        let report = snd result in
        Telemetry.emit tel "gen.construct"
          [
            ("theory", Json.String report.Gensynth.Synthesis.theory_key);
            ("initial_valid", Json.Int report.Gensynth.Synthesis.initial_valid);
            ("final_valid", Json.Int report.Gensynth.Synthesis.final_valid);
            ("samples", Json.Int report.Gensynth.Synthesis.sample_num);
            ("iterations", Json.Int report.Gensynth.Synthesis.iterations);
            ("llm_calls", Json.Int report.Gensynth.Synthesis.llm_calls);
          ];
        Log.info (fun m ->
            m "generator %-14s initial %2d/%d final %2d/%d iterations %d"
              report.Gensynth.Synthesis.theory_key report.initial_valid
              report.sample_num report.final_valid report.sample_num
              report.iterations);
        result)
      theories
  in
  {
    generators = List.map fst built;
    generator_reports = List.map snd built;
    client;
    zeal;
    cove;
  }
