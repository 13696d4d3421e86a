module Json = O4a_telemetry.Json
module Event = O4a_telemetry.Event

let version = 1

(* ------------------------------------------------------------------ *)
(* Handshake                                                           *)
(* ------------------------------------------------------------------ *)

(* Mirrors the telemetry schema-header convention: the first line on every
   accepted connection declares the wire versions, and clients refuse to talk
   to a server whose protocol is newer than they understand rather than
   misparse it. *)
let hello_event = "server.hello"

let hello =
  Json.Obj
    [
      ("event", Json.String hello_event);
      ("proto", Json.Int version);
      ("schema", Json.Int Event.schema_version);
    ]

let check_hello json =
  match
    ( Option.bind (Json.member "event" json) Json.to_str,
      Option.bind (Json.member "proto" json) Json.to_int )
  with
  | Some ev, Some proto when ev = hello_event ->
    if proto > version then
      Error
        (Printf.sprintf
           "server speaks protocol %d, newer than this client understands \
            (%d); refusing to misparse it"
           proto version)
    else Ok proto
  | _ -> Error "not a once4all server (no hello header on connect)"

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)
(* ------------------------------------------------------------------ *)

type request =
  | Hello of int
  | Submit of Jobspec.t
  | Jobs
  | Watch of { job : string; from : int }
  | Pause of string
  | Resume_job of string
  | Cancel of string
  | Metrics of string
  | Shutdown
  | Worker_register of { slots : int }
  | Worker_heartbeat of { leases : int list }
  | Worker_result of { lease : int; outcome : Json.t }

module C = Json.Codec

let request_to_json r =
  let verb name fields = Json.Obj (("req", Json.String name) :: fields) in
  match r with
  | Hello proto -> verb "hello" [ ("proto", Json.Int proto) ]
  | Submit spec -> verb "submit" [ ("spec", Jobspec.codec.enc spec) ]
  | Jobs -> verb "jobs" []
  | Watch { job; from } ->
    verb "watch" [ ("job", Json.String job); ("from", Json.Int from) ]
  | Pause job -> verb "pause" [ ("job", Json.String job) ]
  | Resume_job job -> verb "resume" [ ("job", Json.String job) ]
  | Cancel job -> verb "cancel" [ ("job", Json.String job) ]
  | Metrics job -> verb "metrics" [ ("job", Json.String job) ]
  | Shutdown -> verb "shutdown" []
  | Worker_register { slots } -> verb "worker" [ ("slots", Json.Int slots) ]
  | Worker_heartbeat { leases } ->
    verb "heartbeat" [ ("leases", C.(list int).enc leases) ]
  | Worker_result { lease; outcome } ->
    verb "result" [ ("lease", Json.Int lease); ("outcome", outcome) ]

let request_of_json json =
  let open C in
  let job make = Result.map make (field "job" string json) in
  let* verb = field "req" string json in
  match verb with
  | "hello" -> Result.map (fun p -> Hello p) (field "proto" int json)
  | "submit" -> Result.map (fun s -> Submit s) (field "spec" Jobspec.codec json)
  | "jobs" -> Ok Jobs
  | "watch" ->
    let* job = field "job" string json in
    let* from = field_or "from" int ~default:0 json in
    Ok (Watch { job; from = max 0 from })
  | "pause" -> job (fun j -> Pause j)
  | "resume" -> job (fun j -> Resume_job j)
  | "cancel" -> job (fun j -> Cancel j)
  | "metrics" -> job (fun j -> Metrics j)
  | "shutdown" -> Ok Shutdown
  | "worker" ->
    let* slots = field_or "slots" int ~default:1 json in
    if slots < 1 then Error "worker registration needs slots >= 1"
    else Ok (Worker_register { slots })
  | "heartbeat" ->
    let* leases = field_or "leases" (list int) ~default:[] json in
    Ok (Worker_heartbeat { leases })
  | "result" ->
    let* lease = field "lease" int json in
    (* the outcome stays raw here: the coordinator decodes it with
       {!Wire} once it knows the lease is live *)
    let* outcome = field "outcome" { enc = Fun.id; dec = Result.ok } json in
    Ok (Worker_result { lease; outcome })
  | other -> Error (Printf.sprintf "unknown verb %S" other)

let request_codec =
  C.context "request" { C.enc = request_to_json; dec = request_of_json }

(* ------------------------------------------------------------------ *)
(* Job views                                                           *)
(* ------------------------------------------------------------------ *)

type job_state =
  | Queued
  | Running
  | Paused
  | Done
  | Failed of string
  | Cancelled

let job_state_to_string = function
  | Queued -> "queued"
  | Running -> "running"
  | Paused -> "paused"
  | Done -> "done"
  | Failed _ -> "failed"
  | Cancelled -> "cancelled"

let job_state_terminal = function
  | Done | Failed _ | Cancelled -> true
  | Queued | Running | Paused -> false

type job_view = {
  v_id : string;
  v_name : string;
  v_state : job_state;
  v_shards_done : int;
  v_shards_total : int;
  v_findings : int;
  v_quota : int;
}

let job_view_codec =
  let enc v =
    Json.Obj
      ([
         ("id", Json.String v.v_id);
         ("name", Json.String v.v_name);
         ("state", Json.String (job_state_to_string v.v_state));
         ("shards_done", Json.Int v.v_shards_done);
         ("shards_total", Json.Int v.v_shards_total);
         ("findings", Json.Int v.v_findings);
         ("quota", Json.Int v.v_quota);
       ]
      @ match v.v_state with Failed msg -> [ ("error", Json.String msg) ] | _ -> [])
  in
  let dec json =
    let open C in
    let* v_id = field "id" string json in
    let* v_name = field "name" string json in
    let* v_state =
      let* state = field "state" string json in
      match state with
      | "queued" -> Ok Queued
      | "running" -> Ok Running
      | "paused" -> Ok Paused
      | "done" -> Ok Done
      | "cancelled" -> Ok Cancelled
      | "failed" ->
        Result.map
          (fun msg -> Failed msg)
          (field_or "error" string ~default:"unknown failure" json)
      | other -> Error (Printf.sprintf "unknown state %S" other)
    in
    let* v_shards_done = field "shards_done" int json in
    let* v_shards_total = field "shards_total" int json in
    let* v_findings = field "findings" int json in
    let* v_quota = field "quota" int json in
    Ok { v_id; v_name; v_state; v_shards_done; v_shards_total; v_findings; v_quota }
  in
  C.context "job view" { C.enc; dec }

(* ------------------------------------------------------------------ *)
(* Replies and stream lines                                            *)
(* ------------------------------------------------------------------ *)

let ok fields = Json.Obj (("ok", Json.Bool true) :: fields)
let error msg = Json.Obj [ ("ok", Json.Bool false); ("error", Json.String msg) ]

(* typed errors carry a machine-readable code next to the prose, so clients
   (and tests) can distinguish e.g. an oversized-line disconnect from a
   malformed request without parsing English *)
let error_coded ~code msg =
  Json.Obj
    [
      ("ok", Json.Bool false);
      ("code", Json.String code);
      ("error", Json.String msg);
    ]

let code_line_too_long = "line_too_long"
let code_handshake_timeout = "handshake_timeout"
let code_idle_timeout = "idle_timeout"

let error_code json = Option.bind (Json.member "code" json) Json.to_str

let reply_error json =
  match Option.bind (Json.member "ok" json) Json.to_bool with
  | Some true -> None
  | _ ->
    Some
      (Option.value ~default:"malformed reply from server"
         (Option.bind (Json.member "error" json) Json.to_str))

let stream_line ~job ~kind data =
  Json.Obj [ ("job", Json.String job); ("kind", Json.String kind); ("data", data) ]

(* ------------------------------------------------------------------ *)
(* Coordinator -> worker push messages                                  *)
(* ------------------------------------------------------------------ *)

(* Replies carry an ["ok"] field and pushes a ["msg"] field, so the two can
   share a registered worker's connection without ambiguity. *)

module Shard = Orchestrator.Shard

type worker_msg =
  | Grant of {
      lease : int;
      job : string;
      grant_attempt : int;
      shard : Shard.t;
      spec : Jobspec.t;
    }
  | Drain
  | Retire of string

let worker_msg_to_json = function
  | Grant { lease; job; grant_attempt; shard; spec } ->
    Json.Obj
      [
        ("msg", Json.String "grant");
        ("lease", Json.Int lease);
        ("job", Json.String job);
        ("attempt", Json.Int grant_attempt);
        ("shard", Shard.codec.enc shard);
        ("spec", Jobspec.codec.enc spec);
      ]
  | Drain -> Json.Obj [ ("msg", Json.String "drain") ]
  | Retire job -> Json.Obj [ ("msg", Json.String "retire"); ("job", Json.String job) ]

let worker_msg_of_json json =
  let open C in
  let* kind = field "msg" string json in
  match kind with
  | "drain" -> Ok Drain
  | "retire" ->
    let* job = field "job" string json in
    Ok (Retire job)
  | "grant" ->
    let* lease = field "lease" int json in
    let* job = field "job" string json in
    let* grant_attempt = field_or "attempt" int ~default:0 json in
    let* shard = field "shard" Shard.codec json in
    let* spec = field "spec" Jobspec.codec json in
    Ok (Grant { lease; job; grant_attempt; shard; spec })
  | other -> Error (Printf.sprintf "unknown kind %S" other)

let worker_msg_codec =
  C.context "worker message"
    { C.enc = worker_msg_to_json; dec = worker_msg_of_json }
