open Smtlib
module Bug_db = Solver.Bug_db
module Engine = Solver.Engine

type t = {
  title : string;
  body : string;
}

let kind_label = function
  | Bug_db.Crash -> "Crash"
  | Bug_db.Soundness -> "Soundness issue"
  | Bug_db.Invalid_model -> "Invalid model"

let affected_versions (spec : Bug_db.spec) =
  let history = Solver.Version.history_of spec.Bug_db.solver in
  let affected =
    List.filter
      (fun (r : Solver.Version.release) ->
        spec.Bug_db.introduced <= r.Solver.Version.commit
        &&
        match spec.Bug_db.fixed_commit with
        | None -> true
        | Some f -> r.Solver.Version.commit < f)
      history.Solver.Version.releases
  in
  match affected with
  | [] -> "trunk only"
  | rs ->
    Printf.sprintf "%s .. trunk"
      (String.concat ", " (List.map (fun r -> r.Solver.Version.version) rs))

let reduce_representative ?(max_probes = 300) ~zeal ~cove (cluster : Dedup.cluster) =
  match Parser.parse_script cluster.Dedup.representative.Dedup.source with
  | Error _ -> (cluster.Dedup.representative.Dedup.source, None)
  | Ok script ->
    let signature_of s =
      match Oracle.test ~zeal ~cove ~source:(Printer.script s) () with
      | { Oracle.finding = Some f; _ } -> Some f.Oracle.signature
      | _ -> None
    in
    (match signature_of script with
    | None -> (cluster.Dedup.representative.Dedup.source, None)
    | Some signature ->
      let reduced, stats =
        Reduce_kit.Ddsmt.reduce ~max_probes
          ~still_triggers:(fun c -> signature_of c = Some signature)
          script
      in
      (Printer.script reduced, Some stats))

let observed_behavior ~zeal ~cove source =
  match Parser.parse_script source with
  | Error e -> [ ("parser", Parser.error_message e) ]
  | Ok script ->
    let formula = Solver.Formula.of_script script in
    [ zeal; cove ]
    |> List.filter (fun e -> Engine.supports_script e script)
    |> List.map (fun e ->
           ( Engine.name e,
             Solver.Runner.result_to_string (Solver.Runner.run e formula) ))

let of_cluster ?max_probes ~zeal ~cove (cluster : Dedup.cluster) =
  let spec = Option.bind cluster.Dedup.bug_id Bug_db.find in
  let solver_label =
    match cluster.Dedup.solver with
    | O4a_coverage.Coverage.Zeal -> "zeal"
    | O4a_coverage.Coverage.Cove -> "cove"
  in
  let title =
    match spec with
    | Some s -> Printf.sprintf "[%s] %s: %s" solver_label (kind_label s.Bug_db.kind) s.Bug_db.summary
    | None ->
      Printf.sprintf "[%s] %s in theory %s" solver_label (kind_label cluster.Dedup.kind)
        cluster.Dedup.theory
  in
  let reduced_source, reduction = reduce_representative ?max_probes ~zeal ~cove cluster in
  let buf = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "### Reproducer";
  line "```smt2";
  line "%s" reduced_source;
  line "```";
  (match reduction with
  | Some stats when stats.Reduce_kit.Ddsmt.final_size < stats.Reduce_kit.Ddsmt.initial_size ->
    line "(reduced from %d to %d nodes in %d probes)" stats.Reduce_kit.Ddsmt.initial_size
      stats.Reduce_kit.Ddsmt.final_size stats.Reduce_kit.Ddsmt.probes
  | _ -> ());
  line "";
  line "### Observed behavior";
  List.iter
    (fun (name, result) -> line "- `%s`: %s" name result)
    (observed_behavior ~zeal ~cove reduced_source);
  line "";
  line "### Details";
  line "- kind: %s" (Bug_db.kind_to_string cluster.Dedup.kind);
  line "- theory: %s" cluster.Dedup.theory;
  line "- oracle mode: %s"
    (Oracle.mode_to_string
       cluster.Dedup.representative.Dedup.finding.Oracle.mode);
  line "- crash/cluster signature: `%s`"
    (Dedup.signature_to_string cluster.Dedup.signature);
  line "- occurrences in this campaign: %d" cluster.Dedup.count;
  (match spec with
  | Some s ->
    line "- affected releases: %s" (affected_versions s);
    line "- triage status: %s" (Bug_db.status_to_string s.Bug_db.status)
  | None -> line "- triage status: unattributed (new behavior?)");
  { title; body = Buffer.contents buf }

let render t = Printf.sprintf "## %s\n\n%s" t.title t.body

let render_campaign ?max_probes ~zeal ~cove clusters =
  let crashes, others =
    List.partition (fun c -> c.Dedup.kind = Bug_db.Crash) clusters
  in
  crashes @ others
  |> List.map (fun c -> render (of_cluster ?max_probes ~zeal ~cove c))
  |> String.concat "\n\n---\n\n"
