module Rng = O4a_util.Rng

type t = { index : int; first_tick : int; ticks : int }

let plan ~budget ~shard_size =
  if budget < 0 then invalid_arg "Shard.plan: negative budget";
  if shard_size <= 0 then invalid_arg "Shard.plan: shard_size must be positive";
  let rec go acc index first =
    if first >= budget then List.rev acc
    else (
      let ticks = min shard_size (budget - first) in
      go ({ index; first_tick = first; ticks } :: acc) (index + 1) (first + ticks))
  in
  go [] 0 0

let rng ~seed t = Rng.split_indexed ~seed ~index:t.index

let codec =
  O4a_telemetry.Json.Codec.(
    obj (fun index first_tick ticks -> { index; first_tick; ticks })
    |> mem "index" int (fun s -> s.index)
    |> mem "first_tick" int (fun s -> s.first_tick)
    |> mem "ticks" int (fun s -> s.ticks)
    |> finish)
