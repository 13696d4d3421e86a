type t = {
  enabled : bool;
  metrics : Metrics.t;
  sink : Sink.t;
  clock : unit -> float;
  labels : (string * string) list;
  mutable span_stack : string list;
}

let disabled =
  {
    enabled = false;
    metrics = Metrics.create ();
    sink = Sink.null;
    clock = Unix.gettimeofday;
    labels = [];
    span_stack = [];
  }

let create ?(sink = Sink.null) ?(clock = Unix.gettimeofday) ?(labels = []) () =
  { enabled = true; metrics = Metrics.create (); sink; clock; labels; span_stack = [] }

let monotonic_clock () =
  (* Wall-clock time nudged forward so successive reads never tie or go
     backwards — keeps per-worker event streams totally ordered even if the
     system clock steps. *)
  let last = ref neg_infinity in
  fun () ->
    let t = Unix.gettimeofday () in
    let t = if t <= !last then !last +. 1e-6 else t in
    last := t;
    t

let enabled t = t.enabled
let metrics t = t.metrics
let sink t = t.sink
let now t = t.clock ()

let label_fields t fields =
  fields @ List.map (fun (k, v) -> (k, Json.String v)) t.labels

let emit t name fields =
  if t.enabled then
    Sink.emit t.sink (Event.make ~ts:(t.clock ()) ~name (label_fields t fields))

let forward t event = if t.enabled then Sink.emit t.sink event

(* Counters stay unlabeled by the handle's base labels so that absorbing
   several workers' registries sums them into one campaign total; a span's
   histogram carries the base labels so per-worker cells never collide. *)
let incr t ?(labels = []) ?(by = 1) name =
  if t.enabled then Metrics.incr_named t.metrics ~labels ~by name

(* Span hooks are domain-local and independent of any handle, so a profiling
   layer can observe every span boundary on its domain — including spans taken
   through the [disabled] handle — without the telemetry pipeline itself being
   live, and without this library depending on the profiler. *)
type span_hook = { on_enter : string -> unit; on_leave : string -> unit }

let span_hook_key : span_hook option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let with_span_hook hook f =
  let saved = Domain.DLS.get span_hook_key in
  Domain.DLS.set span_hook_key (Some hook);
  Fun.protect ~finally:(fun () -> Domain.DLS.set span_hook_key saved) f

let instrumented_span t labels stage f =
  let parent = match t.span_stack with [] -> None | p :: _ -> Some p in
  let depth = List.length t.span_stack in
  t.span_stack <- stage :: t.span_stack;
  let start = t.clock () in
  let finish () =
    let dur = t.clock () -. start in
    t.span_stack <- (match t.span_stack with _ :: rest -> rest | [] -> []);
    Metrics.observe_named t.metrics
      ~labels:(("stage", stage) :: (labels @ t.labels))
      "stage.duration" dur;
    emit t "span"
      (("stage", Json.String stage)
      :: ("dur_us", Json.Float (dur *. 1e6))
      :: (match parent with
         | Some p -> [ ("parent", Json.String p); ("depth", Json.Int depth) ]
         | None -> [])
      @ List.map (fun (k, v) -> (k, Json.String v)) labels)
  in
  Fun.protect ~finally:finish f

let with_span t ?(labels = []) stage f =
  let body () =
    if not t.enabled then f () else instrumented_span t labels stage f
  in
  match Domain.DLS.get span_hook_key with
  | None -> body ()
  | Some h ->
    h.on_enter stage;
    Fun.protect ~finally:(fun () -> h.on_leave stage) body

let snapshot t = Metrics.snapshot t.metrics

let absorb_metrics t entries = if t.enabled then Metrics.absorb t.metrics entries

let counter_value t ?(labels = []) name = Metrics.get_counter t.metrics ~labels name

let flush t = Sink.close t.sink

(* Domain-local so a worker installing its private handle with [using] never
   disturbs the main domain's (or another worker's) ambient handle. *)
let ambient : t Domain.DLS.key = Domain.DLS.new_key (fun () -> disabled)

let global () = Domain.DLS.get ambient
let set_global t = Domain.DLS.set ambient t

let using t f =
  let saved = Domain.DLS.get ambient in
  Domain.DLS.set ambient t;
  Fun.protect ~finally:(fun () -> Domain.DLS.set ambient saved) f
