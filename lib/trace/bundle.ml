module Json = O4a_telemetry.Json

let rec ensure_dir path =
  if not (Sys.file_exists path) then (
    ensure_dir (Filename.dirname path);
    try Sys.mkdir path 0o755 with Sys_error _ when Sys.file_exists path -> ())

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | contents -> Ok contents
  | exception Sys_error msg -> Error msg

let shell_quote s =
  "'" ^ String.concat "'\\''" (String.split_on_char '\'' s) ^ "'"

let meta_json (p : Trace.promoted) =
  Json.Obj
    [
      ("id", Json.String p.Trace.trace.Trace.id);
      ("campaign_seed", Json.Int p.Trace.trace.Trace.campaign_seed);
      ("tick", Json.Int p.Trace.trace.Trace.tick);
      ("finding", Trace.finding_codec.enc p.Trace.finding);
      ( "solvers",
        Json.List
          (List.map
             (fun (name, commit) ->
               Json.Obj [ ("name", Json.String name); ("commit", Json.Int commit) ])
             (Trace.solvers_run p.Trace.trace)) );
      ("source_bytes", Json.Int (String.length p.Trace.source));
    ]

let repro_sh (p : Trace.promoted) =
  let f = p.Trace.finding in
  Printf.sprintf
    "#!/bin/sh\n\
     # Repro bundle %s: %s in %s (signature %s)\n\
     # Re-runs the differential oracle on formula.smt2 and checks that the\n\
     # same finding signature reproduces. Point ONCE4ALL at the CLI if it is\n\
     # not on PATH, e.g.:\n\
     #   ONCE4ALL=/path/to/once4all_cli.exe ./repro.sh\n\
     cd \"$(dirname \"$0\")\"\n\
     exec ${ONCE4ALL:-once4all} replay formula.smt2 --expect %s\n"
    p.Trace.trace.Trace.id f.Trace.kind f.Trace.solver_name f.Trace.signature
    (shell_quote f.Trace.signature)

let write ~dir (p : Trace.promoted) =
  let bdir = Filename.concat dir p.Trace.trace.Trace.id in
  ensure_dir bdir;
  write_file (Filename.concat bdir "formula.smt2") p.Trace.source;
  write_file
    (Filename.concat bdir "trace.json")
    (Json.to_string (Trace.codec.enc p.Trace.trace) ^ "\n");
  write_file (Filename.concat bdir "meta.json") (Json.to_string (meta_json p) ^ "\n");
  let repro = Filename.concat bdir "repro.sh" in
  write_file repro (repro_sh p);
  Unix.chmod repro 0o755;
  bdir

let load ~path =
  let open Json.Codec in
  let read name dec =
    let* text = read_file (Filename.concat path name) in
    Result.map_error (( ^ ) (name ^ ": "))
      (Result.bind (Json.parse (String.trim text)) dec)
  in
  let* source = read_file (Filename.concat path "formula.smt2") in
  let* trace = read "trace.json" Trace.codec.dec in
  let* finding = read "meta.json" (field "finding" Trace.finding_codec) in
  Ok { Trace.trace; source; finding }

let scan ~dir =
  let entries =
    match Sys.readdir dir with
    | entries -> Array.to_list entries
    | exception Sys_error _ -> []
  in
  let bundle_dirs =
    entries
    |> List.filter (fun e ->
           let path = Filename.concat dir e in
           Sys.is_directory path
           && Sys.file_exists (Filename.concat path "meta.json"))
    |> List.sort compare
  in
  List.fold_left
    (fun (bundles, warnings) e ->
      match load ~path:(Filename.concat dir e) with
      | Ok p -> (p :: bundles, warnings)
      | Error msg ->
        (bundles, Printf.sprintf "unreadable bundle %s: %s" e msg :: warnings))
    ([], []) bundle_dirs
  |> fun (bundles, warnings) -> (List.rev bundles, List.rev warnings)
