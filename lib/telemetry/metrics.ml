type cell =
  | C_counter of { mutable count : int }
  | C_hist of {
      bounds : float array;
      counts : int array;  (* length bounds + 1; last = overflow *)
      mutable sum : float;
      mutable n : int;
    }

type key = { k_name : string; k_labels : (string * string) list }

(* The registry (cell lookup + creation) is mutex-guarded so workers on
   different domains may share one registry safely. Updates through a cell
   HANDLE obtained from {!counter}/{!histogram} are deliberately
   unsynchronized: a handle is meant to have a single owner (one domain). *)
type t = { cells : (key, cell) Hashtbl.t; lock : Mutex.t }

type counter = cell
type histogram = cell

let create () = { cells = Hashtbl.create 64; lock = Mutex.create () }

let normalize_labels labels = List.sort compare labels

let key name labels = { k_name = name; k_labels = normalize_labels labels }

let kind_name = function
  | C_counter _ -> "counter"
  | C_hist _ -> "histogram"

let register_unlocked t name labels fresh check =
  let key = key name labels in
  match Hashtbl.find_opt t.cells key with
  | Some cell ->
    if not (check cell) then
      invalid_arg
        (Printf.sprintf "Metrics: %s already registered as a %s" name
           (kind_name cell));
    cell
  | None ->
    let cell = fresh () in
    Hashtbl.add t.cells key cell;
    cell

let register t name labels fresh check =
  Mutex.protect t.lock (fun () -> register_unlocked t name labels fresh check)

let counter t ?(labels = []) name =
  register t name labels
    (fun () -> C_counter { count = 0 })
    (function C_counter _ -> true | _ -> false)

let add cell by =
  if by < 0 then invalid_arg "Metrics.add: counters are monotonic";
  match cell with
  | C_counter c -> c.count <- c.count + by
  | _ -> assert false

let inc cell = add cell 1

let counter_value = function C_counter c -> c.count | _ -> assert false

(* 1µs .. 10s in a 1-2.5-5 progression, in seconds *)
let default_latency_bounds =
  [|
    1e-6; 2.5e-6; 5e-6; 1e-5; 2.5e-5; 5e-5; 1e-4; 2.5e-4; 5e-4; 1e-3; 2.5e-3;
    5e-3; 1e-2; 2.5e-2; 5e-2; 0.1; 0.25; 0.5; 1.; 2.5; 5.; 10.;
  |]

let validate_bounds bounds =
  if Array.length bounds = 0 then
    invalid_arg "Metrics.histogram: empty bounds";
  for i = 1 to Array.length bounds - 1 do
    if bounds.(i) <= bounds.(i - 1) then
      invalid_arg "Metrics.histogram: bounds must be strictly increasing"
  done

let histogram t ?(labels = []) ?(bounds = default_latency_bounds) name =
  validate_bounds bounds;
  register t name labels
    (fun () ->
      C_hist
        {
          bounds = Array.copy bounds;
          counts = Array.make (Array.length bounds + 1) 0;
          sum = 0.;
          n = 0;
        })
    (function
      | C_hist h -> h.bounds = bounds || Array.to_list h.bounds = Array.to_list bounds
      | _ -> false)

let observe cell x =
  match cell with
  | C_hist h ->
    let nb = Array.length h.bounds in
    let rec bucket i = if i >= nb || x <= h.bounds.(i) then i else bucket (i + 1) in
    let i = bucket 0 in
    h.counts.(i) <- h.counts.(i) + 1;
    h.sum <- h.sum +. x;
    h.n <- h.n + 1
  | _ -> assert false

(* the named conveniences keep lookup and update inside one critical section,
   so they are safe to call concurrently from several domains *)
let counter_unlocked t labels name =
  register_unlocked t name labels
    (fun () -> C_counter { count = 0 })
    (function C_counter _ -> true | _ -> false)

let incr_named t ?(labels = []) ?(by = 1) name =
  Mutex.protect t.lock (fun () -> add (counter_unlocked t labels name) by)

let observe_named t ?(labels = []) name x =
  Mutex.protect t.lock (fun () ->
      observe
        (register_unlocked t name labels
           (fun () ->
             C_hist
               {
                 bounds = Array.copy default_latency_bounds;
                 counts = Array.make (Array.length default_latency_bounds + 1) 0;
                 sum = 0.;
                 n = 0;
               })
           (function
             | C_hist h ->
               Array.to_list h.bounds = Array.to_list default_latency_bounds
             | _ -> false))
        x)

type hist_snapshot = {
  bounds : float array;
  counts : int array;
  sum : float;
  count : int;
}

type value =
  | Counter of int
  | Histogram of hist_snapshot

type entry = { name : string; labels : (string * string) list; value : value }

let snapshot t =
  Mutex.protect t.lock @@ fun () ->
  Hashtbl.fold
    (fun key cell acc ->
      let value =
        match cell with
        | C_counter c -> Counter c.count
        | C_hist h ->
          Histogram
            {
              bounds = Array.copy h.bounds;
              counts = Array.copy h.counts;
              sum = h.sum;
              count = h.n;
            }
      in
      { name = key.k_name; labels = key.k_labels; value } :: acc)
    t.cells []
  |> List.sort (fun a b ->
         match compare a.name b.name with
         | 0 -> compare a.labels b.labels
         | c -> c)

let get_counter t ?(labels = []) name =
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.cells (key name labels) with
      | Some (C_counter c) -> c.count
      | _ -> 0)

(* Fold a snapshot from another registry (e.g. a finished worker's) into [t]:
   counters add, histograms with identical bounds add bucket-wise. Both
   commute, so the merged registry is independent of worker completion
   order. *)
let absorb t entries =
  Mutex.protect t.lock @@ fun () ->
  List.iter
    (fun e ->
      match e.value with
      | Counter n ->
        if n > 0 then
          add (counter_unlocked t e.labels e.name) n
      | Histogram h -> (
        let cell =
          register_unlocked t e.name e.labels
            (fun () ->
              C_hist
                {
                  bounds = Array.copy h.bounds;
                  counts = Array.make (Array.length h.bounds + 1) 0;
                  sum = 0.;
                  n = 0;
                })
            (function
              | C_hist existing ->
                Array.to_list existing.bounds = Array.to_list h.bounds
              | _ -> false)
        in
        match cell with
        | C_hist dst ->
          Array.iteri (fun i c -> dst.counts.(i) <- dst.counts.(i) + c) h.counts;
          dst.sum <- dst.sum +. h.sum;
          dst.n <- dst.n + h.count
        | _ -> assert false))
    entries

(* The precondition of [absorb], decided by absorbing into a copy of [t]'s
   cells with their counts zeroed, so [t] itself is untouched. *)
let fits t entries =
  let shadow = create () in
  Mutex.protect t.lock (fun () ->
      Hashtbl.iter
        (fun k cell ->
          Hashtbl.add shadow.cells k
            (match cell with
            | C_counter _ -> C_counter { count = 0 }
            | C_hist h ->
              C_hist { h with counts = Array.map (fun _ -> 0) h.counts }))
        t.cells);
  match absorb shadow entries with
  | () -> Ok ()
  | exception Invalid_argument msg -> Error msg

let entry_to_json e =
  let base =
    [
      ("name", Json.String e.name);
      ("labels", Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) e.labels));
    ]
  in
  let value =
    match e.value with
    | Counter n -> [ ("counter", Json.Int n) ]
    | Histogram h ->
      [
        ( "histogram",
          Json.Obj [ ("sum", Json.Float h.sum); ("count", Json.Int h.count) ] );
      ]
  in
  Json.Obj (base @ value)

(* The lossless form, full histogram buckets included: what a shard's
   metrics travel in between hosts. *)
let entry_codec =
  let module C = Json.Codec in
  let array c = C.conv Array.to_list (fun l -> Ok (Array.of_list l)) (C.list c) in
  let hist =
    C.(
      obj (fun bounds counts sum count -> { bounds; counts; sum; count })
      |> mem "bounds" (array float) (fun h -> h.bounds)
      |> mem "counts" (array int) (fun h -> h.counts)
      |> mem "sum" float (fun h -> h.sum)
      |> mem "count" int (fun h -> h.count)
      |> finish)
  in
  let enc e =
    let value =
      match e.value with
      | Counter n -> ("counter", Json.Int n)
      | Histogram h -> ("histogram", hist.enc h)
    in
    Json.Obj
      [ ("name", Json.String e.name); ("labels", C.(assoc string).enc e.labels); value ]
  in
  let dec j =
    let open C in
    let* name = field "name" string j in
    let* labels = field "labels" (assoc string) j in
    let* value =
      match Json.member "counter" j with
      | Some _ -> Result.map (fun n -> Counter n) (field "counter" int j)
      | None -> Result.map (fun h -> Histogram h) (field "histogram" hist j)
    in
    Ok { name; labels; value }
  in
  { C.enc; dec }

let hist_quantile h q =
  if h.count = 0 then 0.
  else (
    let q = Float.max 0. (Float.min 1. q) in
    let rank = int_of_float (ceil (q *. float_of_int h.count)) in
    let rank = max 1 rank in
    let nb = Array.length h.bounds in
    let rec walk i seen =
      if i > nb then h.bounds.(nb - 1)
      else (
        let seen = seen + h.counts.(i) in
        if seen >= rank then (if i >= nb then h.bounds.(nb - 1) else h.bounds.(i))
        else walk (i + 1) seen)
    in
    walk 0 0)
