(* Shared NDJSON framing for every listener and client the server library
   owns. TCP (and even Unix-socket) reads deliver arbitrary byte chunks: a
   frame can arrive torn across several reads, or several frames can land in
   one. The framer carries the partial tail between feeds and enforces the
   inbound line cap — the mirror of the daemon's outbound [max_out] bound —
   so a peer that streams an endless line cannot grow a buffer without
   limit. *)

type error = Line_too_long of int

let error_to_string = function
  | Line_too_long cap ->
    Printf.sprintf "request line exceeds the %d-byte frame cap" cap

(* matches the daemon's outbound cap. Requests stay far below it, but a
   shard-outcome result line does not always: remote shards record
   telemetry, about 2 KB per tick, so a shard of more than roughly 500
   ticks overflows. The remote worker reports such an outcome as a failed
   shard (Worker.result_line) rather than sending the line. *)
let default_max_line = 1 lsl 20

type t = {
  max_line : int;
  buf : Buffer.t;  (* the partial line carried between feeds *)
  mutable dead : bool;
}

let create ?(max_line = default_max_line) () =
  { max_line; buf = Buffer.create 256; dead = false }

let max_line t = t.max_line
let pending t = Buffer.length t.buf

(* Feed a chunk; complete lines out, partial tail carried. Once a line
   exceeds the cap the stream can never be re-synchronized (the rest of the
   oversized line would parse as garbage frames), so the framer goes dead
   and every later feed keeps failing — callers drop the connection. *)
let feed t chunk =
  if t.dead then Error (Line_too_long t.max_line)
  else (
    Buffer.add_string t.buf chunk;
    let data = Buffer.contents t.buf in
    let len = String.length data in
    let lines = ref [] in
    let start = ref 0 in
    let overflow = ref false in
    let continue = ref true in
    while !continue && not !overflow do
      match String.index_from_opt data !start '\n' with
      | None -> continue := false
      | Some nl ->
        if nl - !start > t.max_line then overflow := true
        else (
          lines := String.sub data !start (nl - !start) :: !lines;
          start := nl + 1)
    done;
    if !overflow || len - !start > t.max_line then (
      t.dead <- true;
      Buffer.clear t.buf;
      Error (Line_too_long t.max_line))
    else (
      Buffer.clear t.buf;
      Buffer.add_substring t.buf data !start (len - !start);
      Ok (List.rev !lines)))
