module Json = O4a_telemetry.Json

type record =
  | Seed_selected of { hash : string; bytes : int; size : int }
  | Skeletonized of { mode : string; holes : int }
  | Skeleton_hole of { hole : int; path : string; sort : string option }
  | Hole_filled of { hole : int; theory : string; sort : string option; raw : bool }
  | Adapted of { substitutions : (string * string) list }
  | Direct_generated of { terms : int; theories : string list }
  | Synthesized of { bytes : int; parse_ok : bool; theories : string list }
  | Parse_rejected of { error : string }
  | Solver_run of {
      solver : string;
      commit : int;
      verdict : string;
      steps : int;
      decisions : int;
      propagations : int;
    }
  | Oracle_verdict of {
      kind : string option;
      solver : string option;
      signature : string option;
      bug_id : string option;
      theory : string option;
      mode : string option;
    }
  | Fault_injected of { site : string }

type t = {
  id : string;
  campaign_seed : int;
  tick : int;
  records : record list;
}

type finding_info = {
  kind : string;
  solver : string;
  solver_name : string;
  signature : string;
  bug_id : string option;
  theory : string;
  dedup_key : string;
  mode : string;
}

type promoted = {
  trace : t;
  source : string;
  finding : finding_info;
}

let id_of ~seed ~tick =
  let bits = O4a_util.Rng.bits64 (O4a_util.Rng.split_indexed ~seed ~index:tick) in
  Printf.sprintf "t%06d-%08Lx" tick (Int64.logand bits 0xFFFF_FFFFL)

let solvers_run t =
  List.filter_map
    (function Solver_run { solver; commit; _ } -> Some (solver, commit) | _ -> None)
    t.records

(* ------------------------------------------------------------------ *)
(* JSON codec                                                          *)
(* ------------------------------------------------------------------ *)

module C = Json.Codec

let opt_str = C.(nullable string)
let strings = C.(list string)

let record_to_json r =
  let stage name fields = Json.Obj (("stage", Json.String name) :: fields) in
  match r with
  | Seed_selected { hash; bytes; size } ->
    stage "seed"
      [ ("hash", Json.String hash); ("bytes", Json.Int bytes); ("size", Json.Int size) ]
  | Skeletonized { mode; holes } ->
    stage "skeletonize" [ ("mode", Json.String mode); ("holes", Json.Int holes) ]
  | Skeleton_hole { hole; path; sort } ->
    stage "hole"
      [ ("hole", Json.Int hole); ("path", Json.String path); ("sort", opt_str.enc sort) ]
  | Hole_filled { hole; theory; sort; raw } ->
    stage "fill"
      [
        ("hole", Json.Int hole);
        ("theory", Json.String theory);
        ("sort", opt_str.enc sort);
        ("raw", Json.Bool raw);
      ]
  | Adapted { substitutions } ->
    stage "adapt" [ ("substitutions", C.(assoc string).enc substitutions) ]
  | Direct_generated { terms; theories } ->
    stage "direct" [ ("terms", Json.Int terms); ("theories", strings.enc theories) ]
  | Synthesized { bytes; parse_ok; theories } ->
    stage "synthesize"
      [
        ("bytes", Json.Int bytes);
        ("parse_ok", Json.Bool parse_ok);
        ("theories", strings.enc theories);
      ]
  | Parse_rejected { error } -> stage "parse_rejected" [ ("error", Json.String error) ]
  | Solver_run { solver; commit; verdict; steps; decisions; propagations } ->
    stage "solver"
      [
        ("solver", Json.String solver);
        ("commit", Json.Int commit);
        ("verdict", Json.String verdict);
        ("steps", Json.Int steps);
        ("decisions", Json.Int decisions);
        ("propagations", Json.Int propagations);
      ]
  | Oracle_verdict { kind; solver; signature; bug_id; theory; mode } ->
    stage "verdict"
      [
        ("kind", opt_str.enc kind);
        ("solver", opt_str.enc solver);
        ("signature", opt_str.enc signature);
        ("bug_id", opt_str.enc bug_id);
        ("theory", opt_str.enc theory);
        ("mode", opt_str.enc mode);
      ]
  | Fault_injected { site } -> stage "fault" [ ("site", Json.String site) ]

let record_of_json json =
  let open C in
  (* nullable members decode absent as [None], as they always have *)
  let opt name = field_or name opt_str ~default:None json in
  let* stage = field "stage" string json in
  match stage with
  | "seed" ->
    let* hash = field "hash" string json in
    let* bytes = field "bytes" int json in
    let* size = field "size" int json in
    Ok (Seed_selected { hash; bytes; size })
  | "skeletonize" ->
    let* mode = field "mode" string json in
    let* holes = field "holes" int json in
    Ok (Skeletonized { mode; holes })
  | "hole" ->
    let* hole = field "hole" int json in
    let* path = field "path" string json in
    let* sort = opt "sort" in
    Ok (Skeleton_hole { hole; path; sort })
  | "fill" ->
    let* hole = field "hole" int json in
    let* theory = field "theory" string json in
    let* sort = opt "sort" in
    let* raw = field "raw" bool json in
    Ok (Hole_filled { hole; theory; sort; raw })
  | "adapt" ->
    let* substitutions = field "substitutions" (assoc string) json in
    Ok (Adapted { substitutions })
  | "direct" ->
    let* terms = field "terms" int json in
    let* theories = field "theories" strings json in
    Ok (Direct_generated { terms; theories })
  | "synthesize" ->
    let* bytes = field "bytes" int json in
    let* parse_ok = field "parse_ok" bool json in
    let* theories = field "theories" strings json in
    Ok (Synthesized { bytes; parse_ok; theories })
  | "parse_rejected" ->
    let* error = field "error" string json in
    Ok (Parse_rejected { error })
  | "solver" ->
    let* solver = field "solver" string json in
    let* commit = field "commit" int json in
    let* verdict = field "verdict" string json in
    let* steps = field "steps" int json in
    let* decisions = field "decisions" int json in
    let* propagations = field "propagations" int json in
    Ok (Solver_run { solver; commit; verdict; steps; decisions; propagations })
  | "verdict" ->
    let* kind = opt "kind" in
    let* solver = opt "solver" in
    let* signature = opt "signature" in
    let* bug_id = opt "bug_id" in
    let* theory = opt "theory" in
    let* mode = opt "mode" in
    Ok (Oracle_verdict { kind; solver; signature; bug_id; theory; mode })
  | "fault" ->
    let* site = field "site" string json in
    Ok (Fault_injected { site })
  | other -> Error (Printf.sprintf "unknown stage %S" other)

let record_codec = { C.enc = record_to_json; dec = record_of_json }

let codec =
  C.(
    obj (fun id campaign_seed tick records -> { id; campaign_seed; tick; records })
    |> mem "id" string (fun t -> t.id)
    |> mem "campaign_seed" int (fun t -> t.campaign_seed)
    |> mem "tick" int (fun t -> t.tick)
    |> mem "records" (list record_codec) (fun t -> t.records)
    |> finish)

let finding_codec =
  C.(
    obj (fun kind solver solver_name signature bug_id theory dedup_key mode ->
        { kind; solver; solver_name; signature; bug_id; theory; dedup_key; mode })
    |> mem "kind" string (fun f -> f.kind)
    |> mem "solver" string (fun f -> f.solver)
    |> mem "solver_name" string (fun f -> f.solver_name)
    |> mem "signature" string (fun f -> f.signature)
    |> opt_mem "bug_id" opt_str ~default:None (fun f -> f.bug_id)
    |> mem "theory" string (fun f -> f.theory)
    |> mem "dedup_key" string (fun f -> f.dedup_key)
    (* bundles written before oracle modes existed carry no "mode" member;
       they were all full differential comparisons *)
    |> opt_mem "mode" string ~default:"differential" (fun f -> f.mode)
    |> finish)

let promoted_codec =
  C.(
    obj (fun trace source finding -> { trace; source; finding })
    |> mem "trace" codec (fun p -> p.trace)
    |> mem "source" string (fun p -> p.source)
    |> mem "finding" finding_codec (fun p -> p.finding)
    |> finish)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let render t =
  let buf = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "trace %s  (campaign seed %d, tick %d)" t.id t.campaign_seed t.tick;
  (* an Adapted record belongs to the Hole_filled that follows it *)
  let pending_adapt = ref [] in
  List.iter
    (fun r ->
      match r with
      | Seed_selected { hash; bytes; size } ->
        line "  seed         %s  %d bytes, %d nodes" hash bytes size
      | Skeletonized { mode; holes } ->
        line "  skeletonize  %s mode, %d hole%s" mode holes
          (if holes = 1 then "" else "s")
      | Skeleton_hole { hole; path; sort } ->
        line "    hole %-3d   at %s%s" hole
          (if path = "" then "(root)" else path)
          (match sort with Some s -> "  : " ^ s | None -> "")
      | Adapted { substitutions } -> pending_adapt := substitutions
      | Hole_filled { hole; theory; sort; raw } ->
        line "  fill %-3d     theory %s%s  (%s)" hole theory
          (match sort with Some s -> " : " ^ s | None -> "")
          (if raw then "raw splice" else "ast");
        List.iter
          (fun (a, b) -> line "    adapted    %s -> %s" a b)
          !pending_adapt;
        pending_adapt := []
      | Direct_generated { terms; theories } ->
        line "  direct       %d term%s  [%s]" terms
          (if terms = 1 then "" else "s")
          (String.concat " " theories)
      | Synthesized { bytes; parse_ok; theories } ->
        line "  synthesize   %d bytes, parse %s  [%s]" bytes
          (if parse_ok then "ok" else "FAILED")
          (String.concat " " theories)
      | Parse_rejected { error } -> line "  parse        REJECTED: %s" error
      | Solver_run { solver; commit; verdict; steps; decisions; propagations } ->
        line "  %-12s %-8s steps=%d decisions=%d propagations=%d  (commit %d)"
          solver verdict steps decisions propagations commit
      | Oracle_verdict { kind; solver; signature; bug_id; mode; _ } -> (
        let degraded_tag =
          match mode with
          | Some m when m <> "differential" -> "  (" ^ m ^ ")"
          | _ -> ""
        in
        match kind with
        | None -> line "  verdict      agreement (no finding)%s" degraded_tag
        | Some k ->
          line "  verdict      %s in %s  [%s]%s%s" k
            (Option.value solver ~default:"?")
            (Option.value signature ~default:"?")
            (match bug_id with Some id -> "  -> " ^ id | None -> "")
            degraded_tag)
      | Fault_injected { site } -> line "  fault        INJECTED %s (chaos)" site)
    t.records;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* The flight recorder                                                 *)
(* ------------------------------------------------------------------ *)

module Recorder = struct
  type t = {
    enabled : bool;
    seed : int;
    mutable in_trace : bool;
    mutable current_tick : int;
    mutable current_records : record list;  (* reversed *)
    mutable promoted_rev : promoted list;
  }

  let disabled =
    {
      enabled = false;
      seed = 0;
      in_trace = false;
      current_tick = 0;
      current_records = [];
      promoted_rev = [];
    }

  let create ~seed = { disabled with enabled = true; seed }

  let enabled r = r.enabled
  let active r = r.enabled && r.in_trace

  let start r ~tick =
    if r.enabled then (
      r.in_trace <- true;
      r.current_tick <- tick;
      r.current_records <- [])

  let record r rec_ =
    if active r then r.current_records <- rec_ :: r.current_records

  let assemble r =
    {
      id = id_of ~seed:r.seed ~tick:r.current_tick;
      campaign_seed = r.seed;
      tick = r.current_tick;
      records = List.rev r.current_records;
    }

  let promote r ~source ~finding =
    if active r then
      r.promoted_rev <- { trace = assemble r; source; finding } :: r.promoted_rev

  let finish r =
    if active r then (
      r.in_trace <- false;
      r.current_records <- [])

  let promoted r = List.rev r.promoted_rev

  (* Domain-local, like the ambient telemetry handle: a worker installing its
     private recorder never disturbs another domain's. *)
  let ambient_key : t Domain.DLS.key = Domain.DLS.new_key (fun () -> disabled)

  let ambient () = Domain.DLS.get ambient_key

  let using r f =
    let saved = Domain.DLS.get ambient_key in
    Domain.DLS.set ambient_key r;
    Fun.protect ~finally:(fun () -> Domain.DLS.set ambient_key saved) f
end

let note rec_ = Recorder.record (Recorder.ambient ()) rec_
let noting () = Recorder.active (Recorder.ambient ())
