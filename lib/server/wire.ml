module Json = O4a_telemetry.Json
module C = Json.Codec
module Faults = O4a_faults.Faults
module O = Orchestrator

(* A complete shard outcome as a remote worker streams it back. Every part
   is encoded by the codec that sits next to its type — the checkpoint's
   shard result, telemetry events, trace bundles, health, profile, and
   analytics exports — so the wire only composes them and can never drift
   from the formats it reuses. A payload from an older worker may still
   carry a "metrics" member; the decoder reads members by name, so it is
   ignored. *)

let payload_codec =
  let module Cp = O.Checkpoint in
  C.(
    obj
      (fun m_result events m_coverage promoted m_health profile_export
           m_analytics ->
        { O.merged = { Cp.m_result; m_coverage; m_health; m_analytics };
          events; promoted; profile_export })
    |> mem "sr" Cp.shard_result_codec (fun p -> p.O.merged.Cp.m_result)
    |> mem "events" (list O4a_telemetry.Event.codec) (fun p -> p.O.events)
    |> mem "coverage" (assoc int) (fun p -> p.O.merged.Cp.m_coverage)
    |> mem "promoted" (list O4a_trace.Trace.promoted_codec) (fun p -> p.O.promoted)
    |> mem "health" (list O4a_health.Health.entry_codec) (fun p ->
           p.O.merged.Cp.m_health)
    |> mem "profile" O4a_profile.Profile.codec (fun p -> p.O.profile_export)
    |> mem "analytics" O4a_analytics.Analytics.codec (fun p ->
           p.O.merged.Cp.m_analytics)
    |> finish)

let sites =
  C.(
    list
      (conv Faults.site_name
         (fun s ->
           Option.to_result ~none:(Printf.sprintf "unknown fault site %S" s)
             (Faults.site_of_name s))
         string))

let attempts =
  C.(
    list
      (obj (fun attempt fired -> { O.attempt; fired })
      |> mem "attempt" int (fun l -> l.O.attempt)
      |> mem "fired" sites (fun l -> l.O.fired)
      |> finish))

let outcome_to_json o =
  let outcome kind fields = Json.Obj (("outcome", Json.String kind) :: fields) in
  match o with
  | O.Merged (payload, retries, fired) ->
    outcome "merged"
      [
        ("payload", payload_codec.enc payload);
        ("retries", attempts.enc retries);
        ("fired", sites.enc fired);
      ]
  | O.Quarantined logs -> outcome "quarantined" [ ("attempts", attempts.enc logs) ]
  | O.Failed msg -> outcome "failed" [ ("error", Json.String msg) ]

let decode_outcome json =
  let open C in
  let* kind = field "outcome" string json in
  match kind with
  | "merged" ->
    let* payload = field "payload" payload_codec json in
    let* retries = field "retries" attempts json in
    let* fired = field "fired" sites json in
    Ok (O.Merged (payload, retries, fired))
  | "quarantined" -> Result.map (fun l -> O.Quarantined l) (field "attempts" attempts json)
  | "failed" -> Result.map (fun msg -> O.Failed msg) (field "error" string json)
  | other -> Error (Printf.sprintf "unknown outcome kind %S" other)

let outcome_codec = C.context "wire" { C.enc = outcome_to_json; dec = decode_outcome }
let outcome_of_json = outcome_codec.dec
