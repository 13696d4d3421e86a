module Json = O4a_telemetry.Json

type sample = {
  bucket : int;
  first_tick : int;
  ticks : int;
  tests : int;
  parse_ok : int;
  solved : int;
  findings : int;
  consults : int;
  fuel : int;
  cov_points : string list;
  clusters : string list;
}

type yield_row = {
  y_theory : string;
  y_profile : string;
  y_seed_cluster : string;
  y_tests : int;
  y_parse_ok : int;
  y_findings : int;
}

type t = { samples : sample list; yield : yield_row list }

let empty = { samples = []; yield = [] }

(* ------------------------------ merge ------------------------------ *)

let union_sorted a b = List.sort_uniq compare (List.rev_append a b)

let add_sample a b =
  {
    bucket = a.bucket;
    first_tick = min a.first_tick b.first_tick;
    ticks = max a.ticks b.ticks;
    tests = a.tests + b.tests;
    parse_ok = a.parse_ok + b.parse_ok;
    solved = a.solved + b.solved;
    findings = a.findings + b.findings;
    consults = a.consults + b.consults;
    fuel = a.fuel + b.fuel;
    cov_points = union_sorted a.cov_points b.cov_points;
    clusters = union_sorted a.clusters b.clusters;
  }

let canon_sample s =
  { s with
    cov_points = List.sort_uniq compare s.cov_points;
    clusters = List.sort_uniq compare s.clusters }

let ykey r = (r.y_theory, r.y_profile, r.y_seed_cluster)

let add_yield a b =
  { a with
    y_tests = a.y_tests + b.y_tests;
    y_parse_ok = a.y_parse_ok + b.y_parse_ok;
    y_findings = a.y_findings + b.y_findings }

let merge a b =
  let stbl = Hashtbl.create 31 in
  let absorb_sample s =
    let s = canon_sample s in
    match Hashtbl.find_opt stbl s.bucket with
    | None -> Hashtbl.replace stbl s.bucket s
    | Some prev -> Hashtbl.replace stbl s.bucket (add_sample prev s)
  in
  List.iter absorb_sample a.samples;
  List.iter absorb_sample b.samples;
  let samples =
    Hashtbl.fold (fun _ s acc -> s :: acc) stbl []
    |> List.sort (fun x y -> compare x.bucket y.bucket)
  in
  let ytbl = Hashtbl.create 31 in
  let absorb_yield r =
    match Hashtbl.find_opt ytbl (ykey r) with
    | None -> Hashtbl.replace ytbl (ykey r) r
    | Some prev -> Hashtbl.replace ytbl (ykey r) (add_yield prev r)
  in
  List.iter absorb_yield a.yield;
  List.iter absorb_yield b.yield;
  let yield =
    Hashtbl.fold (fun _ r acc -> r :: acc) ytbl []
    |> List.sort (fun x y -> compare (ykey x) (ykey y))
  in
  { samples; yield }

let total_tests t = List.fold_left (fun acc s -> acc + s.tests) 0 t.samples
let total_findings t =
  List.fold_left (fun acc s -> acc + s.findings) 0 t.samples

(* ------------------------------ json ------------------------------- *)

let sample_codec =
  Json.Codec.(
    obj
      (fun bucket first_tick ticks tests parse_ok solved findings consults fuel
           cov_points clusters ->
        { bucket; first_tick; ticks; tests; parse_ok; solved; findings;
          consults; fuel; cov_points; clusters })
    |> mem "bucket" int (fun s -> s.bucket)
    |> mem "first_tick" int (fun s -> s.first_tick)
    |> mem "ticks" int (fun s -> s.ticks)
    |> mem "tests" int (fun s -> s.tests)
    |> mem "parse_ok" int (fun s -> s.parse_ok)
    |> mem "solved" int (fun s -> s.solved)
    |> mem "findings" int (fun s -> s.findings)
    |> mem "consults" int (fun s -> s.consults)
    |> mem "fuel" int (fun s -> s.fuel)
    |> mem "cov_points" (list string) (fun s -> s.cov_points)
    |> mem "clusters" (list string) (fun s -> s.clusters)
    |> finish)

let yield_codec =
  Json.Codec.(
    obj
      (fun y_theory y_profile y_seed_cluster y_tests y_parse_ok y_findings ->
        { y_theory; y_profile; y_seed_cluster; y_tests; y_parse_ok; y_findings })
    |> mem "theory" string (fun r -> r.y_theory)
    |> mem "profile" string (fun r -> r.y_profile)
    |> mem "seed_cluster" string (fun r -> r.y_seed_cluster)
    |> mem "tests" int (fun r -> r.y_tests)
    |> mem "parse_ok" int (fun r -> r.y_parse_ok)
    |> mem "findings" int (fun r -> r.y_findings)
    |> finish)

(* decoding re-canonicalises, so hand-edited or reordered checkpoints still
   merge and render deterministically *)
let codec =
  Json.Codec.(
    obj (fun samples yield -> merge { samples; yield } empty)
    |> mem "samples" (list sample_codec) (fun t -> t.samples)
    |> mem "yield" (list yield_codec) (fun t -> t.yield)
    |> finish)

(* ------------------------- derived series -------------------------- *)

type point = {
  p_bucket : int;
  p_first_tick : int;
  p_ticks : int;
  p_tests : int;
  p_parse_ok : int;
  p_solved : int;
  p_findings : int;
  p_consults : int;
  p_fuel : int;
  p_new_cov : int;
  p_cum_cov : int;
  p_new_clusters : int;
  p_cum_clusters : int;
}

let series t =
  let seen_cov = Hashtbl.create 256 and seen_cl = Hashtbl.create 32 in
  let first_seen tbl keys =
    List.fold_left
      (fun acc k ->
        if Hashtbl.mem tbl k then acc
        else (Hashtbl.replace tbl k (); acc + 1))
      0 keys
  in
  List.map
    (fun s ->
      let new_cov = first_seen seen_cov s.cov_points in
      let new_cl = first_seen seen_cl s.clusters in
      {
        p_bucket = s.bucket;
        p_first_tick = s.first_tick;
        p_ticks = s.ticks;
        p_tests = s.tests;
        p_parse_ok = s.parse_ok;
        p_solved = s.solved;
        p_findings = s.findings;
        p_consults = s.consults;
        p_fuel = s.fuel;
        p_new_cov = new_cov;
        p_cum_cov = Hashtbl.length seen_cov;
        p_new_clusters = new_cl;
        p_cum_clusters = Hashtbl.length seen_cl;
      })
    t.samples

(* ------------------------ plateau detection ------------------------ *)

type plateau = {
  pl_series : string;
  pl_bucket : int;
  pl_tick : int;
  pl_window : int;
  pl_value : int;
}

let default_window = 4
let plateau_event_name = "analytics.plateau"

let plateaus ?(window = default_window) t =
  if window <= 0 then invalid_arg "Analytics.plateaus: window must be > 0";
  let pts = Array.of_list (series t) in
  let find name value =
    let rec go i =
      if i >= Array.length pts then None
      else if value pts.(i) = value pts.(i - window) then
        Some
          {
            pl_series = name;
            pl_bucket = pts.(i).p_bucket;
            pl_tick = pts.(i).p_first_tick + pts.(i).p_ticks;
            pl_window = window;
            pl_value = value pts.(i);
          }
      else go (i + 1)
    in
    if Array.length pts <= window then None else go window
  in
  List.filter_map Fun.id
    [
      find "coverage" (fun p -> p.p_cum_cov);
      find "clusters" (fun p -> p.p_cum_clusters);
    ]

(* ----------------------------- rendering --------------------------- *)

let sparkline values =
  let levels = " .:-=+*#@" in
  let n = String.length levels in
  match values with
  | [] -> ""
  | _ ->
    let hi = List.fold_left max 0. values in
    let cell v =
      if hi <= 0. then levels.[0]
      else
        let i = int_of_float (v /. hi *. float_of_int (n - 1) +. 0.5) in
        levels.[max 0 (min (n - 1) i)]
    in
    String.init (List.length values) (fun i -> cell (List.nth values i))

let to_csv t =
  let b = Buffer.create 512 in
  Buffer.add_string b
    "bucket,first_tick,ticks,tests,parse_ok,solved,findings,consults,fuel,\
     new_cov,cum_cov,new_clusters,cum_clusters\n";
  List.iter
    (fun p ->
      Buffer.add_string b
        (Printf.sprintf "%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d\n" p.p_bucket
           p.p_first_tick p.p_ticks p.p_tests p.p_parse_ok p.p_solved
           p.p_findings p.p_consults p.p_fuel p.p_new_cov p.p_cum_cov
           p.p_new_clusters p.p_cum_clusters))
    (series t);
  Buffer.contents b

let escape_label s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_prometheus t =
  let b = Buffer.create 1024 in
  let metric ?(kind = "counter") ?help name value =
    Option.iter
      (fun h -> Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" name h))
      help;
    Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" name kind);
    Buffer.add_string b (Printf.sprintf "%s %d\n" name value)
  in
  let total f = List.fold_left (fun acc s -> acc + f s) 0 t.samples in
  let pts = series t in
  let last f = match List.rev pts with [] -> 0 | p :: _ -> f p in
  metric "once4all_ticks_total" ~help:"Planned ticks merged so far."
    (total (fun s -> s.ticks));
  metric "once4all_tests_total" ~help:"Tests executed." (total (fun s -> s.tests));
  metric "once4all_parse_ok_total" (total (fun s -> s.parse_ok));
  metric "once4all_solved_total" (total (fun s -> s.solved));
  metric "once4all_findings_total" (total (fun s -> s.findings));
  metric "once4all_consults_total" (total (fun s -> s.consults));
  metric "once4all_fuel_total" (total (fun s -> s.fuel));
  metric ~kind:"gauge" "once4all_samples" (List.length t.samples);
  metric ~kind:"gauge" "once4all_coverage_points"
    ~help:"Distinct coverage points over merged buckets."
    (last (fun p -> p.p_cum_cov));
  metric ~kind:"gauge" "once4all_dedup_clusters" (last (fun p -> p.p_cum_clusters));
  List.iter
    (fun pl ->
      Buffer.add_string b
        (Printf.sprintf "# TYPE once4all_plateau_tick gauge\n");
      Buffer.add_string b
        (Printf.sprintf "once4all_plateau_tick{series=\"%s\",window=\"%d\"} %d\n"
           (escape_label pl.pl_series) pl.pl_window pl.pl_tick))
    (plateaus t);
  let yield_metric name f =
    Buffer.add_string b (Printf.sprintf "# TYPE %s counter\n" name);
    List.iter
      (fun r ->
        Buffer.add_string b
          (Printf.sprintf
             "%s{theory=\"%s\",profile=\"%s\",seed_cluster=\"%s\"} %d\n" name
             (escape_label r.y_theory) (escape_label r.y_profile)
             (escape_label r.y_seed_cluster) (f r)))
      t.yield
  in
  if t.yield <> [] then begin
    yield_metric "once4all_yield_tests" (fun r -> r.y_tests);
    yield_metric "once4all_yield_findings" (fun r -> r.y_findings)
  end;
  Buffer.contents b

(* ------------------------------ ledger ----------------------------- *)

type ycell = {
  mutable c_tests : int;
  mutable c_parse_ok : int;
  mutable c_findings : int;
}

type ledger = {
  profile : string;
  mutable l_consults : int;
  mutable l_fuel : int;
  ytbl : (string * string, ycell) Hashtbl.t;  (** (theory, seed cluster) *)
}

let make_ledger ~profile () =
  { profile; l_consults = 0; l_fuel = 0; ytbl = Hashtbl.create 31 }

let consult l ~consults ~fuel =
  l.l_consults <- l.l_consults + consults;
  l.l_fuel <- l.l_fuel + fuel

let record_test l ~theories ~seed_cluster ~parse_ok ~found =
  let theories =
    match List.sort_uniq compare theories with [] -> [ "none" ] | ts -> ts
  in
  List.iter
    (fun theory ->
      let cell =
        match Hashtbl.find_opt l.ytbl (theory, seed_cluster) with
        | Some c -> c
        | None ->
          let c = { c_tests = 0; c_parse_ok = 0; c_findings = 0 } in
          Hashtbl.replace l.ytbl (theory, seed_cluster) c;
          c
      in
      cell.c_tests <- cell.c_tests + 1;
      if parse_ok then cell.c_parse_ok <- cell.c_parse_ok + 1;
      if found then cell.c_findings <- cell.c_findings + 1)
    theories

let export l ~bucket ~first_tick ~ticks ~tests ~parse_ok ~solved ~findings
    ~cov_points ~clusters =
  let sample =
    canon_sample
      { bucket; first_tick; ticks; tests; parse_ok; solved; findings;
        consults = l.l_consults; fuel = l.l_fuel; cov_points; clusters }
  in
  let yield =
    Hashtbl.fold
      (fun (theory, cluster) c acc ->
        { y_theory = theory; y_profile = l.profile; y_seed_cluster = cluster;
          y_tests = c.c_tests; y_parse_ok = c.c_parse_ok;
          y_findings = c.c_findings }
        :: acc)
      l.ytbl []
    |> List.sort (fun a b -> compare (ykey a) (ykey b))
  in
  { samples = [ sample ]; yield }
