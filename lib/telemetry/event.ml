type t = {
  ts : float;
  name : string;
  fields : (string * Json.t) list;
}

let make ~ts ~name fields = { ts; name; fields }

let to_json { ts; name; fields } =
  Json.Obj (("ts", Json.Float ts) :: ("event", Json.String name) :: fields)

let of_json json =
  match json with
  | Json.Obj fields -> (
    let ts = Option.bind (List.assoc_opt "ts" fields) Json.to_float in
    let name = Option.bind (List.assoc_opt "event" fields) Json.to_str in
    match (ts, name) with
    | Some ts, Some name ->
      Ok
        {
          ts;
          name;
          fields = List.filter (fun (k, _) -> k <> "ts" && k <> "event") fields;
        }
    | None, _ -> Error "event is missing a numeric \"ts\" field"
    | _, None -> Error "event is missing a string \"event\" field")
  | _ -> Error "event is not a JSON object"

let codec = { Json.Codec.enc = to_json; dec = of_json }

let to_line event = Json.to_string (to_json event)

let of_line line =
  match Json.parse line with
  | Error e -> Error e
  | Ok json -> of_json json

let parse_log content =
  let ends_nl =
    String.length content > 0 && content.[String.length content - 1] = '\n'
  in
  let lines =
    String.split_on_char '\n' content
    |> List.filter (fun l -> String.trim l <> "")
  in
  let last = List.length lines - 1 in
  let events = ref [] in
  let malformed = ref 0 in
  let torn = ref false in
  List.iteri
    (fun i line ->
      match of_line line with
      | Ok e -> events := e :: !events
      | Error _ ->
        (* an unparseable, unterminated final line is a torn write (the
           emitter died mid-line), not log corruption *)
        if i = last && not ends_nl then torn := true else incr malformed)
    lines;
  (List.rev !events, !malformed, !torn)

let field key event = List.assoc_opt key event.fields

(* The JSONL log format's version. Bumped when an event's wire shape changes
   incompatibly; the ["telemetry.schema"] header event (written once, first
   line of every log [Sink.open_jsonl] creates) lets readers reject logs
   newer than themselves instead of misparsing. Logs with no header predate
   versioning and are read as version 1. *)
let schema_version = 1
let schema_event_name = "telemetry.schema"

let schema_event ~ts =
  make ~ts ~name:schema_event_name [ ("version", Json.Int schema_version) ]

let log_schema_version events =
  List.find_map
    (fun e ->
      if e.name = schema_event_name then
        Option.bind (field "version" e) Json.to_int
      else None)
    events

let equal a b =
  a.name = b.name
  && Json.equal (Json.Float a.ts) (Json.Float b.ts)
  && List.length a.fields = List.length b.fields
  && List.for_all2
       (fun (k, v) (k', v') -> k = k' && Json.equal v v')
       a.fields b.fields
