type solver_tag = Zeal | Cove

let tag_to_string = function Zeal -> "zeal" | Cove -> "cove"

let tag_of_string = function
  | "zeal" -> Some Zeal
  | "cove" -> Some Cove
  | _ -> None

type kind = Line | Function

(* Point metadata is global and immutable once registered; hit COUNTS live in
   ledgers (below) so parallel workers can accumulate in isolation. *)
type point = {
  id : int;
  solver : solver_tag;
  file : string;
  func : string;
  kind : kind;
  label : string;
  identity : string; (* the registry key, built once and shared by every export *)
  mutable chained : point option; (* function point hit alongside line 0 *)
}

let registry : (string, point) Hashtbl.t = Hashtbl.create 1024
let all_points : point list ref = ref []
let next_id = ref 0
let reg_mutex = Mutex.create ()

let identity ~solver ~file ~func ~kind label =
  let s = tag_to_string solver in
  let k = match kind with Line -> "l" | Function -> "f" in
  Printf.sprintf "%s|%s|%s|%s|%s" s file func k label

let register ~solver ~file ~func ~kind label =
  let key = identity ~solver ~file ~func ~kind label in
  Mutex.protect reg_mutex (fun () ->
      match Hashtbl.find_opt registry key with
      | Some p -> p
      | None ->
        let p =
          { id = !next_id; solver; file; func; kind; label; identity = key; chained = None }
        in
        incr next_id;
        Hashtbl.add registry key p;
        all_points := p :: !all_points;
        p)

let points () = Mutex.protect reg_mutex (fun () -> !all_points)

let register_lines ~solver ~file ~func n =
  let fpoint = register ~solver ~file ~func ~kind:Function "entry" in
  let lines =
    Array.init n (fun i ->
        register ~solver ~file ~func ~kind:Line (string_of_int i))
  in
  if n > 0 then lines.(0).chained <- Some fpoint;
  lines

(* ------------------------------------------------------------------ *)
(* Ledgers: hit-count buffers over the shared point registry           *)
(* ------------------------------------------------------------------ *)

type ledger = { mutable counts : int array }

let make_ledger () = { counts = Array.make (max 64 !next_id) 0 }

let global_ledger = make_ledger ()

(* The ambient ledger is domain-local: a parallel worker installs its own
   with {!with_ledger} and every [hit] it performs lands there, while code
   outside any [with_ledger] scope keeps the historical global behavior. *)
let ambient_key : ledger Domain.DLS.key =
  Domain.DLS.new_key (fun () -> global_ledger)

let ambient () = Domain.DLS.get ambient_key

let with_ledger ledger f =
  let prev = Domain.DLS.get ambient_key in
  Domain.DLS.set ambient_key ledger;
  Fun.protect ~finally:(fun () -> Domain.DLS.set ambient_key prev) f

let ensure ledger id =
  let n = Array.length ledger.counts in
  if id >= n then (
    let counts = Array.make (max (id + 1) (2 * n)) 0 in
    Array.blit ledger.counts 0 counts 0 n;
    ledger.counts <- counts)

let bump ledger p by =
  ensure ledger p.id;
  ledger.counts.(p.id) <- ledger.counts.(p.id) + by

let hit_n p n =
  let l = ambient () in
  bump l p n;
  match p.chained with Some f -> bump l f n | None -> ()

let hit p = hit_n p 1

let count_in ledger p =
  if p.id < Array.length ledger.counts then ledger.counts.(p.id) else 0

let resolve = function Some l -> l | None -> ambient ()

let hit_count ?ledger p = count_in (resolve ledger) p

type snapshot = {
  lines_total : int;
  lines_hit : int;
  funcs_total : int;
  funcs_hit : int;
}

(* totals over the registered points of [solver]; [hit p] says whether
   [p] counts as hit *)
let tally solver hit =
  let init = { lines_total = 0; lines_hit = 0; funcs_total = 0; funcs_hit = 0 } in
  List.fold_left
    (fun acc p ->
      if p.solver <> solver then acc
      else (
        let hit = hit p in
        match p.kind with
        | Line ->
          {
            acc with
            lines_total = acc.lines_total + 1;
            lines_hit = (acc.lines_hit + if hit then 1 else 0);
          }
        | Function ->
          {
            acc with
            funcs_total = acc.funcs_total + 1;
            funcs_hit = (acc.funcs_hit + if hit then 1 else 0);
          }))
    init (points ())

let snapshot ?ledger solver =
  let l = resolve ledger in
  tally solver (fun p -> count_in l p > 0)

let pct hit total = if total = 0 then 0. else 100. *. float_of_int hit /. float_of_int total

let line_pct s = pct s.lines_hit s.lines_total
let func_pct s = pct s.funcs_hit s.funcs_total

let reset ?ledger () = Array.fill (resolve ledger).counts 0 (Array.length (resolve ledger).counts) 0

let total_points solver =
  List.length (List.filter (fun p -> p.solver = solver) (points ()))

let hit_point_labels ?ledger solver =
  let l = resolve ledger in
  points ()
  |> List.filter (fun p -> p.solver = solver && count_in l p > 0)
  |> List.map (fun p -> Printf.sprintf "%s:%s:%s" p.file p.func p.label)
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Exports — what a shard hands the merge owner                       *)
(* ------------------------------------------------------------------ *)

let export ledger =
  points ()
  |> List.filter_map (fun p ->
         let c = count_in ledger p in
         if c > 0 then Some (p.identity, c) else None)
  |> List.sort compare

let snapshot_of_export entries solver =
  let hit = Hashtbl.create (List.length entries) in
  List.iter (fun (key, count) -> if count > 0 then Hashtbl.replace hit key ()) entries;
  tally solver (fun p -> Hashtbl.mem hit p.identity)

let unregistered entries =
  Mutex.protect reg_mutex (fun () ->
      List.find_map
        (fun (key, _) -> if Hashtbl.mem registry key then None else Some key)
        entries)
