module Json = O4a_telemetry.Json
module Faults = O4a_faults.Faults
module Health = O4a_health.Health
module Checkpoint = Orchestrator.Checkpoint

type t = {
  name : string;
  seed : int;
  budget : int;
  shard_size : int;
  quota : int;
  profile : string;
  use_skeletons : bool;
  trace : bool;
  telemetry : bool;
  chaos_profile : string;
  chaos_seed : int;
  chaos_rate : float;
  breakers : bool;
  breaker_window : int;
  breaker_threshold : int;
}

let default ~name =
  {
    name;
    seed = 42;
    budget = 2000;
    shard_size = Orchestrator.default_shard_size;
    quota = 1;
    profile = "gpt-4";
    use_skeletons = true;
    trace = false;
    telemetry = false;
    chaos_profile = "off";
    chaos_seed = 1;
    chaos_rate = Faults.default_rate;
    breakers = true;
    breaker_window = Health.default_config.Health.window;
    breaker_threshold = Health.default_config.Health.threshold;
  }

(* job names become state-directory names and wire identifiers, so keep them
   to a filesystem- and JSON-safe alphabet *)
let name_ok name =
  name <> ""
  && String.length name <= 64
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> true
         | _ -> false)
       name
  && name.[0] <> '.'

let validate t =
  if not (name_ok t.name) then
    Error
      (Printf.sprintf
         "invalid job name %S (want 1-64 chars of [a-zA-Z0-9._-], not \
          starting with a dot)"
         t.name)
  else if t.budget < 1 then Error "budget must be >= 1"
  else if t.shard_size < 1 then Error "shard_size must be >= 1"
  else if t.quota < 1 then Error "quota must be >= 1"
  else if t.breaker_window < 1 || t.breaker_threshold < 1 then
    Error "breaker_window and breaker_threshold must be >= 1"
  else if Option.is_none (Llm_sim.Profile.find t.profile) then
    Error (Printf.sprintf "unknown LLM profile %S" t.profile)
  else (
    match Faults.profile_of_string t.chaos_profile with
    | None -> Error (Printf.sprintf "unknown chaos profile %S" t.chaos_profile)
    | Some _ -> Ok ())

let llm_profile t =
  match Llm_sim.Profile.find t.profile with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Jobspec.llm_profile: %S" t.profile)

let chaos t =
  match Faults.profile_of_string t.chaos_profile with
  | None | Some Faults.Off -> None
  | Some profile ->
    Some (Faults.plan ~rate:t.chaos_rate ~chaos_seed:t.chaos_seed profile)

let health t =
  if not t.breakers then None
  else
    Some
      {
        Health.window = t.breaker_window;
        threshold = t.breaker_threshold;
      }

let config t =
  { Once4all.Fuzz.default_config with Once4all.Fuzz.use_skeletons = t.use_skeletons }

let fuzz_seed t = t.seed + 1

type campaign = {
  generators : Gensynth.Generator.t list;
  seeds : Smtlib.Script.t list;
}

let prepare t =
  let c = Once4all.Campaign.prepare ~seed:t.seed ~profile:(llm_profile t) () in
  {
    generators = c.Once4all.Campaign.generators;
    seeds =
      Seeds.Corpus.filtered ~zeal:c.Once4all.Campaign.zeal
        ~cove:c.Once4all.Campaign.cove ();
  }

let env t c =
  Orchestrator.make_env ~config:(config t) ~tel_enabled:true ~tracing:t.trace
    ?chaos:(chaos t) ?health:(health t)
    ~gen_profile:(llm_profile t).Llm_sim.Profile.name ~seed:(fuzz_seed t)
    ~generators:c.generators ~seeds:c.seeds ()

(* Checkpoint provenance. This list IS the campaign's identity beyond
   (seed, budget, shard_size): the CLI and the server both derive it from a
   spec through this one function, which is what makes their checkpoints
   interchangeable — a campaign submitted to the server can be resumed by
   `once4all resume` and vice versa. *)
let extra t =
  [
    ("cli_seed", string_of_int t.seed);
    ("profile", (llm_profile t).Llm_sim.Profile.name);
    ("use_skeletons", if t.use_skeletons then "true" else "false");
  ]
  @ (match chaos t with
    | None -> []
    | Some (plan : Faults.plan) ->
      [
        ("chaos_profile", Faults.profile_to_string plan.Faults.profile);
        ("chaos_seed", string_of_int plan.Faults.chaos_seed);
        ("chaos_rate", Printf.sprintf "%g" plan.Faults.rate);
      ])
  @
  match health t with
  | None -> [ ("breakers", "off") ]
  | Some (cfg : Health.config) ->
    [
      ("breakers", "on");
      ("breaker_window", string_of_int cfg.Health.window);
      ("breaker_threshold", string_of_int cfg.Health.threshold);
    ]

(* The inverse derivation: rebuild the spec a checkpoint was written under,
   from its provenance record — how `resume`, `resume-job`, and a restarted
   server re-arm the exact generator pool, fault plan, and breaker config. *)
let of_checkpoint ~name (cp : Checkpoint.t) =
  let d = default ~name in
  let find key parse ~default =
    Option.value ~default
      (Option.bind (List.assoc_opt key cp.Checkpoint.extra) parse)
  in
  {
    d with
    seed = find "cli_seed" int_of_string_opt ~default:(cp.Checkpoint.seed - 1);
    budget = cp.Checkpoint.budget;
    shard_size = cp.Checkpoint.shard_size;
    profile = find "profile" Option.some ~default:d.profile;
    use_skeletons =
      find "use_skeletons"
        (fun v -> Some (v <> "false"))
        ~default:d.use_skeletons;
    chaos_profile = find "chaos_profile" Option.some ~default:d.chaos_profile;
    chaos_seed = find "chaos_seed" int_of_string_opt ~default:d.chaos_seed;
    chaos_rate = find "chaos_rate" float_of_string_opt ~default:d.chaos_rate;
    (* provenance without a "breakers" entry predates the breakers, so the
       campaign ran without them *)
    breakers = find "breakers" (fun v -> Some (v = "on")) ~default:false;
    breaker_window =
      find "breaker_window" int_of_string_opt ~default:d.breaker_window;
    breaker_threshold =
      find "breaker_threshold" int_of_string_opt ~default:d.breaker_threshold;
  }

(* Every member but "name" is optional and defaults to {!default} — a
   submission can be as terse as {"name":"smoke","budget":500} — but a
   member that is present must have its type ({"budget":"500"} is an
   error). Decoded specs are {!validate}d. *)
let codec =
  let d = default ~name:"" in
  let fields =
    Json.Codec.(
      obj
        (fun name seed budget shard_size quota profile use_skeletons trace
             telemetry chaos_profile chaos_seed chaos_rate breakers
             breaker_window breaker_threshold ->
          { name; seed; budget; shard_size; quota; profile; use_skeletons;
            trace; telemetry; chaos_profile; chaos_seed; chaos_rate; breakers;
            breaker_window; breaker_threshold })
      |> mem "name" string (fun t -> t.name)
      |> opt_mem "seed" int ~default:d.seed (fun t -> t.seed)
      |> opt_mem "budget" int ~default:d.budget (fun t -> t.budget)
      |> opt_mem "shard_size" int ~default:d.shard_size (fun t -> t.shard_size)
      |> opt_mem "quota" int ~default:d.quota (fun t -> t.quota)
      |> opt_mem "profile" string ~default:d.profile (fun t -> t.profile)
      |> opt_mem "use_skeletons" bool ~default:d.use_skeletons (fun t ->
             t.use_skeletons)
      |> opt_mem "trace" bool ~default:d.trace (fun t -> t.trace)
      |> opt_mem "telemetry" bool ~default:d.telemetry (fun t -> t.telemetry)
      |> opt_mem "chaos" string ~default:d.chaos_profile (fun t ->
             t.chaos_profile)
      |> opt_mem "chaos_seed" int ~default:d.chaos_seed (fun t -> t.chaos_seed)
      |> opt_mem "chaos_rate" float ~default:d.chaos_rate (fun t -> t.chaos_rate)
      |> opt_mem "breakers" bool ~default:d.breakers (fun t -> t.breakers)
      |> opt_mem "breaker_window" int ~default:d.breaker_window (fun t ->
             t.breaker_window)
      |> opt_mem "breaker_threshold" int ~default:d.breaker_threshold (fun t ->
             t.breaker_threshold)
      |> finish)
  in
  Json.Codec.conv Fun.id
    (fun t -> Result.map (fun () -> t) (validate t))
    (Json.Codec.context "job spec" fields)
