module Shard = Orchestrator.Shard

(* Fair round-robin over jobs with per-job quotas. Plain data, no locking —
   only the daemon's main domain touches its instance, and the tests drive
   one directly.

   A *round* gives every runnable job up to [quota] shard dispatches; within
   a round, picks rotate job-to-job (not quota-at-a-time), so two jobs with
   equal quotas interleave shard-for-shard. When no job can be picked under
   the current round's spends but runnable work remains, a new round begins.
   Every runnable job with pending work therefore dispatches at least one
   shard per round regardless of the other jobs' quotas — no job can be
   starved — and jobs with equal quotas and equal shard counts finish within
   one round of each other. *)

type slot = {
  key : string;
  quota : int;
  mutable pending : Shard.t list;  (* in dispatch order *)
  mutable runnable : bool;
  mutable round_spent : int;
  mutable dispatched : int;
}

type t = { mutable slots : slot list; mutable cursor : int }

let create () = { slots = []; cursor = 0 }

let find t key = List.find_opt (fun s -> s.key = key) t.slots

let add t ~key ~quota shards =
  if quota < 1 then invalid_arg "Scheduler.add: quota must be >= 1";
  match find t key with
  | Some _ -> invalid_arg (Printf.sprintf "Scheduler.add: duplicate key %S" key)
  | None ->
    t.slots <-
      t.slots
      @ [
          {
            key;
            quota;
            pending = shards;
            runnable = true;
            round_spent = 0;
            dispatched = 0;
          };
        ]

let set_runnable t ~key runnable =
  match find t key with Some s -> s.runnable <- runnable | None -> ()

let remove t ~key =
  t.slots <- List.filter (fun s -> s.key <> key) t.slots;
  if t.cursor >= List.length t.slots then t.cursor <- 0

let pending t ~key =
  match find t key with Some s -> List.length s.pending | None -> 0

(* An expired lease hands its shard back; it goes to the queue's front so a
   reassignment is the very next dispatch for that job. The shard's result
   is a pure function of (env, shard), so where it lands in the dispatch
   order cannot perturb the campaign. *)
let requeue t ~key shard =
  match find t key with
  | Some s -> s.pending <- shard :: s.pending
  | None -> ()

let has_work s = s.runnable && s.pending <> []
let eligible s = has_work s && s.round_spent < s.quota

let idle t = not (List.exists has_work t.slots)

let pick_from slot =
  match slot.pending with
  | [] -> assert false
  | shard :: rest ->
    slot.pending <- rest;
    slot.round_spent <- slot.round_spent + 1;
    slot.dispatched <- slot.dispatched + 1;
    Some (slot.key, shard)

(* scan the rotation starting after the cursor; [pred] selects candidates *)
let scan t pred =
  let arr = Array.of_list t.slots in
  let n = Array.length arr in
  let rec go i =
    if i >= n then None
    else (
      let idx = (t.cursor + i) mod n in
      if pred arr.(idx) then (
        t.cursor <- (idx + 1) mod n;
        pick_from arr.(idx))
      else go (i + 1))
  in
  if n = 0 then None else go 0

let next t =
  match scan t eligible with
  | Some pick -> Some pick
  | None ->
    if idle t then None
    else (
      (* new round: everyone's fair share resets *)
      List.iter (fun s -> s.round_spent <- 0) t.slots;
      scan t eligible)

let stats t ~key =
  match find t key with
  | Some s -> Some (List.length s.pending, s.dispatched)
  | None -> None
