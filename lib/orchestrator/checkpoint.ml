module Json = O4a_telemetry.Json
module Coverage = O4a_coverage.Coverage
module Bug_db = Solver.Bug_db

type shard_result = {
  shard : int;
  tests : int;
  parse_ok : int;
  solved : int;
  bytes_total : int;
  findings : Once4all.Dedup.found list;
}

type quarantine = {
  q_shard : int;
  q_first_tick : int;
  q_ticks : int;
  q_attempts : int;
  q_sites : string list;
}

type artifacts = {
  a_telemetry : bool;
  a_trace : bool;
  a_analytics : bool;
}

let no_artifacts = { a_telemetry = false; a_trace = false; a_analytics = false }

type t = {
  seed : int;
  budget : int;
  shard_size : int;
  extra : (string * string) list;
  completed : shard_result list;
  quarantined : quarantine list;
  coverage : (string * int) list;
  health : O4a_health.Health.entry list;
  analytics : O4a_analytics.Analytics.t;
  artifacts : artifacts;
}

type merged_shard = {
  m_result : shard_result;
  m_coverage : (string * int) list;
  m_health : O4a_health.Health.entry list;
  m_analytics : O4a_analytics.Analytics.t;
}

type entry = Completed of merged_shard | Quarantined of quarantine

(* version 2 added the quarantine list; version 3 added the merged health
   ledger and the per-finding oracle mode; version 4 the analytics series
   and the observability-artifact flags; version 5 the journal entries
   after the first line. Older files still load: version 1 gets an empty
   quarantine, versions 1-2 an empty health ledger and Differential
   findings, versions 1-3 an empty analytics series and all-false artifact
   flags. *)
let version = 5
let min_version = 1

(* ------------------------------------------------------------------ *)
(* Codecs                                                              *)
(* ------------------------------------------------------------------ *)

module C = Json.Codec
module Oracle = Once4all.Oracle

let named what to_s of_s =
  C.conv to_s
    (fun s ->
      match of_s s with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "unknown %s %S" what s))
    C.string

let finding_codec =
  C.(
    obj (fun kind solver solver_name signature bug_id theory mode ->
        { Oracle.kind; solver; solver_name; signature; bug_id; theory; mode })
    |> mem "kind"
         (named "bug kind" Bug_db.kind_to_string Bug_db.kind_of_string)
         (fun f -> f.Oracle.kind)
    |> mem "solver"
         (named "solver" Coverage.tag_to_string Coverage.tag_of_string)
         (fun f -> f.Oracle.solver)
    |> mem "solver_name" string (fun f -> f.Oracle.solver_name)
    |> mem "signature" string (fun f -> f.Oracle.signature)
    |> opt_mem "bug_id" (nullable string) ~default:None (fun f -> f.Oracle.bug_id)
    |> mem "theory" string (fun f -> f.Oracle.theory)
    (* pre-v3 findings carry no mode; they were all full differential runs *)
    |> opt_mem "mode"
         (named "oracle mode" Oracle.mode_to_string Oracle.mode_of_string)
         ~default:Oracle.Differential (fun f -> f.Oracle.mode)
    |> finish)

let found_codec =
  C.(
    obj (fun finding source -> { Once4all.Dedup.finding; source })
    |> mem "finding" finding_codec (fun f -> f.Once4all.Dedup.finding)
    |> mem "source" string (fun f -> f.Once4all.Dedup.source)
    |> finish)

let shard_result_codec =
  C.(
    obj (fun shard tests parse_ok solved bytes_total findings ->
        { shard; tests; parse_ok; solved; bytes_total; findings })
    |> mem "shard" int (fun r -> r.shard)
    |> mem "tests" int (fun r -> r.tests)
    |> mem "parse_ok" int (fun r -> r.parse_ok)
    |> mem "solved" int (fun r -> r.solved)
    |> mem "bytes_total" int (fun r -> r.bytes_total)
    |> mem "findings" (list found_codec) (fun r -> r.findings)
    |> finish)

let quarantine_codec =
  C.(
    obj (fun q_shard q_first_tick q_ticks q_attempts q_sites ->
        { q_shard; q_first_tick; q_ticks; q_attempts; q_sites })
    |> mem "shard" int (fun q -> q.q_shard)
    |> mem "first_tick" int (fun q -> q.q_first_tick)
    |> mem "ticks" int (fun q -> q.q_ticks)
    |> mem "attempts" int (fun q -> q.q_attempts)
    |> mem "sites" (list string) (fun q -> q.q_sites)
    |> finish)

let artifacts_codec =
  C.(
    obj (fun a_telemetry a_trace a_analytics -> { a_telemetry; a_trace; a_analytics })
    |> mem "telemetry" bool (fun a -> a.a_telemetry)
    |> mem "trace" bool (fun a -> a.a_trace)
    |> mem "analytics" bool (fun a -> a.a_analytics)
    |> finish)

let version_codec =
  C.conv Fun.id
    (fun v ->
      if v >= min_version && v <= version then Ok v
      else Error (Printf.sprintf "unsupported version %d" v))
    C.int

let sorted key l = List.sort (fun a b -> compare (key a) (key b)) l

(* A checkpoint must agree with its own shard plan: resume skips every
   listed shard and sums the listed results, so an index outside the plan
   or listed twice would report ticks the campaign never ran. *)
let validate t =
  let ( let* ) = Result.bind in
  let positive field v =
    if v >= 1 then Ok ()
    else Error (Printf.sprintf "field %S: must be >= 1, got %d" field v)
  in
  let* () = positive "budget" t.budget in
  let* () = positive "shard_size" t.shard_size in
  let shards = ((t.budget - 1) / t.shard_size) + 1 in
  let listed = Hashtbl.create 16 in
  let place field i =
    let fail fmt =
      Printf.ksprintf
        (fun why -> Error (Printf.sprintf "field %S: shard %d %s" field i why))
        fmt
    in
    if i < 0 || i >= shards then fail "is outside the plan's %d shards" shards
    else
      match Hashtbl.find_opt listed i with
      | Some first when first = field -> fail "is listed twice"
      | Some first -> fail "is already listed in %S" first
      | None ->
        Hashtbl.add listed i field;
        Ok ()
  in
  let place_all field =
    List.fold_left
      (fun acc i -> Result.bind acc (fun () -> place field i))
      (Ok ())
  in
  let* () = place_all "completed" (List.map (fun r -> r.shard) t.completed) in
  let* () =
    place_all "quarantined" (List.map (fun q -> q.q_shard) t.quarantined)
  in
  Ok t

(* members added after version 1 are [opt_mem]s whose defaults are the
   ones [version] above lists *)
let codec =
  C.(
    context "checkpoint"
      (conv Fun.id validate
         (obj
            (fun _version seed budget shard_size extra completed quarantined
                 coverage health analytics artifacts ->
              { seed; budget; shard_size; extra; completed; quarantined;
                coverage; health; analytics; artifacts })
         |> mem "version" version_codec (fun _ -> version)
         |> mem "seed" int (fun t -> t.seed)
         |> mem "budget" int (fun t -> t.budget)
         |> mem "shard_size" int (fun t -> t.shard_size)
         |> mem "extra" (assoc string) (fun t -> t.extra)
         |> mem "completed" (list shard_result_codec) (fun t ->
                sorted (fun r -> r.shard) t.completed)
         |> opt_mem "quarantined" (list quarantine_codec) ~default:[] (fun t ->
                sorted (fun q -> q.q_shard) t.quarantined)
         |> mem "coverage" (assoc int) (fun t -> t.coverage)
         |> opt_mem "health" (list O4a_health.Health.entry_codec) ~default:[]
              (fun t -> t.health)
         |> opt_mem "analytics" O4a_analytics.Analytics.codec
              ~default:O4a_analytics.Analytics.empty (fun t -> t.analytics)
         |> opt_mem "artifacts" artifacts_codec ~default:no_artifacts (fun t ->
                t.artifacts)
         |> finish)))

(* a journal line: the header's own members, for one shard *)
let entry_codec =
  let completed =
    C.(
      obj (fun m_result m_coverage m_health m_analytics ->
          { m_result; m_coverage; m_health; m_analytics })
      |> mem "completed" shard_result_codec (fun m -> m.m_result)
      |> mem "coverage" (assoc int) (fun m -> m.m_coverage)
      |> mem "health" (list O4a_health.Health.entry_codec) (fun m -> m.m_health)
      |> mem "analytics" O4a_analytics.Analytics.codec (fun m -> m.m_analytics)
      |> finish)
  in
  let quarantined =
    C.(obj Fun.id |> mem "quarantined" quarantine_codec Fun.id |> finish)
  in
  C.context "checkpoint entry"
    {
      C.enc =
        (function
        | Completed m -> completed.enc m
        | Quarantined q -> quarantined.enc q);
      dec =
        (fun json ->
          match Json.member "quarantined" json with
          | Some _ -> Result.map (fun q -> Quarantined q) (quarantined.dec json)
          | None -> Result.map (fun m -> Completed m) (completed.dec json));
    }

let matches ~path ~seed ~budget ~shard_size t =
  if t.seed = seed && t.budget = budget && t.shard_size = shard_size then Ok ()
  else
    Error
      (Printf.sprintf
         "cannot resume from %s: checkpoint is for seed %d budget %d \
          shard-size %d, requested seed %d budget %d shard-size %d"
         path t.seed t.budget t.shard_size seed budget shard_size)

let remaining base plan =
  match base with
  | None -> plan
  | Some t ->
    let size =
      List.fold_left (fun n (s : Shard.t) -> max n (s.Shard.index + 1)) 0 plan
    in
    let settled = Array.make size false in
    let settle i = if i >= 0 && i < size then settled.(i) <- true in
    List.iter (fun r -> settle r.shard) t.completed;
    List.iter (fun q -> settle q.q_shard) t.quarantined;
    List.filter (fun (s : Shard.t) -> not settled.(s.Shard.index)) plan

(* ------------------------------------------------------------------ *)
(* Files                                                               *)
(* ------------------------------------------------------------------ *)

let save ~path t =
  (* write-then-rename so a crash mid-write never leaves a torn checkpoint *)
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string (codec.enc t));
      output_char oc '\n');
  Sys.rename tmp path

type load_error =
  | Io of string
  | Corrupt of { offset : int; reason : string }
  | Invalid of string

let load_error_to_string ~path = function
  | Io msg -> Printf.sprintf "cannot read checkpoint %s: %s" path msg
  | Corrupt { offset; reason } ->
    Printf.sprintf
      "checkpoint %s is truncated or corrupted: %s at byte offset %d\n\
       (likely a torn write from a crash mid-save; delete the file or restore \
       a backup, then re-run)"
      path reason offset
  | Invalid msg -> Printf.sprintf "checkpoint %s is not usable: %s" path msg

(* one line of the file, which starts at byte [offset], without its
   newline *)
let decode_line dec ~offset line =
  match Json.parse_located line with
  | Error (o, reason) -> Error (Corrupt { offset = offset + o; reason })
  | Ok json -> Result.map_error (fun msg -> Invalid msg) (dec json)

let append ~path ~tear entry =
  let line = Json.to_string (entry_codec.enc entry) ^ "\n" in
  let written =
    if tear then String.sub line 0 (max 1 (String.length line / 2)) else line
  in
  match
    let offset =
      Out_channel.with_open_gen
        [ Open_wronly; Open_append; Open_creat; Open_binary ]
        0o644 path
        (fun oc ->
          let offset = Int64.to_int (Out_channel.length oc) in
          Out_channel.output_string oc written;
          offset)
    in
    (* read back what landed after [offset]: one whole line that decodes,
       or the append is undone *)
    let back =
      In_channel.with_open_bin path (fun ic ->
          In_channel.seek ic (Int64.of_int offset);
          In_channel.input_all ic)
    in
    let verified =
      match String.index_opt back '\n' with
      | Some i when i = String.length back - 1 ->
        Result.map ignore
          (decode_line entry_codec.dec ~offset (String.sub back 0 i))
      | _ ->
        Error
          (Corrupt
             { offset = offset + String.length back;
               reason = "the appended line did not land whole" })
    in
    if Result.is_error verified then Unix.truncate path offset;
    verified
  with
  | verified -> verified
  | exception Sys_error msg -> Error (Io msg)
  | exception Unix.Unix_error (e, _, _) -> Error (Io (Unix.error_message e))

(* What the entries add to the header, merged as [Orchestrator.Merge.absorb]
   merges them. Coverage sums by identity without registering points:
   [Orchestrator.run] loads its base before [Engine.prewarm], and
   registration order assigns point ids. *)
let fold_entries header entries =
  let module Keys = Map.Make (String) in
  let add_counts m l =
    List.fold_left
      (fun m (k, n) -> Keys.update k (fun c -> Some (n + Option.value c ~default:0)) m)
      m l
  in
  let cp, coverage, analytics =
    List.fold_left
      (fun (cp, coverage, analytics) -> function
        | Completed m ->
          ( { cp with
              completed = m.m_result :: cp.completed;
              health = O4a_health.Health.merge cp.health m.m_health },
            add_counts coverage m.m_coverage,
            O4a_analytics.Analytics.add analytics m.m_analytics )
        | Quarantined q ->
          ({ cp with quarantined = q :: cp.quarantined }, coverage, analytics))
      ( header,
        add_counts Keys.empty header.coverage,
        O4a_analytics.Analytics.(add acc_empty header.analytics) )
      entries
  in
  validate
    { cp with
      completed = sorted (fun r -> r.shard) cp.completed;
      quarantined = sorted (fun q -> q.q_shard) cp.quarantined;
      coverage = Keys.bindings coverage;
      analytics = O4a_analytics.Analytics.of_acc analytics }

type info = { i_version : int; i_checkpoint : t }

let inspect ~path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error (Io msg)
  | contents -> (
    let ( let* ) = Result.bind in
    let len = String.length contents in
    let line_end from =
      Option.value (String.index_from_opt contents from '\n') ~default:len
    in
    let header_end = line_end 0 in
    let* i_version, header =
      decode_line
        (fun json ->
          (* the codec checks the version's presence and range *)
          Result.map
            (fun t ->
              (Result.value (C.field "version" C.int json) ~default:version, t))
            (codec.dec json))
        ~offset:0
        (String.sub contents 0 header_end)
    in
    (* every later line is one entry; a last line without its newline is
       an append a crash cut short, so its shard simply runs again *)
    let rec entries from acc =
      let stop = if from >= len then len else line_end from in
      if stop = len then Ok (List.rev acc)
      else
        let line = String.sub contents from (stop - from) in
        if String.trim line = "" then entries (stop + 1) acc
        else
          let* e = decode_line entry_codec.dec ~offset:from line in
          entries (stop + 1) (e :: acc)
    in
    let* journal = entries (header_end + 1) [] in
    let* i_checkpoint =
      match journal with
      | [] -> Ok header
      | _ ->
        Result.map_error
          (fun msg -> Invalid ("checkpoint: " ^ msg))
          (fold_entries header journal)
    in
    Ok { i_version; i_checkpoint })

let load ~path = Result.map (fun i -> i.i_checkpoint) (inspect ~path)
