module Json = O4a_telemetry.Json

type t = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

(* Blocking line-oriented client over the daemon's Unix socket or TCP
   listener. One request per line out, one JSON document per line in — the
   only subtlety is the hello handshake: the first line on every connection
   is the server's versioned header, checked before anything else is sent. *)

let fd t = t.fd

(* once, through [oc] so pending output is flushed: [ic] shares the fd,
   and a second close could hit a descriptor another domain just opened *)
let close t = close_out_noerr t.oc

let read_json t =
  match input_line t.ic with
  | exception End_of_file -> Error "server closed the connection"
  | exception Sys_error msg -> Error msg
  | line -> Json.parse line

(* The two ways a connect can fail before the server is even involved get
   distinct diagnostics, because they call for opposite reactions:
   - no socket file yet: the daemon is not running (or is still binding) —
     waiting can help, so say so;
   - the file exists but nothing accepts: a dead server left its socket
     behind — waiting is useless, the file needs removing (a fresh server
     unlinks it itself). *)
let diagnose addr err =
  match (addr, err) with
  | Addr.Unix_path path, Unix.ENOENT ->
    Printf.sprintf
      "cannot connect to %s: no such socket file (server not running, or \
       still starting — --connect-timeout waits for it)"
      path
  | Addr.Unix_path path, Unix.ECONNREFUSED when Sys.file_exists path ->
    Printf.sprintf
      "socket file %s exists but nothing is accepting on it — stale socket \
       left by a dead server? remove it or restart the server"
      path
  | addr, err ->
    Printf.sprintf "cannot connect to %s: %s (is the server running?)"
      (Addr.to_string addr) (Unix.error_message err)

let sockaddr_of = function
  | Addr.Unix_path path -> Ok (Unix.PF_UNIX, Unix.ADDR_UNIX path)
  | Addr.Tcp (host, port) ->
    Result.map
      (fun sa -> (Unix.domain_of_sockaddr sa, sa))
      (Addr.resolve ~host ~port)

let transient = function
  | Unix.ENOENT | Unix.ECONNREFUSED | Unix.ECONNRESET | Unix.ETIMEDOUT
  | Unix.EHOSTUNREACH | Unix.ENETUNREACH | Unix.EAGAIN | Unix.EINTR ->
    true
  | _ -> false

let connect_once addr =
  match sockaddr_of addr with
  | Error msg -> Error (`Fatal msg)
  | Ok (domain, sa) -> (
    let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
    match Unix.connect fd sa with
    | exception Unix.Unix_error (err, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      if transient err then Error (`Transient err) else Error (`Fatal (diagnose addr err))
    | () -> (
      let t =
        {
          fd;
          ic = Unix.in_channel_of_descr fd;
          oc = Unix.out_channel_of_descr fd;
        }
      in
      match Result.bind (read_json t) Protocol.check_hello with
      | Error msg ->
        close t;
        Error (`Fatal msg)
      | Ok _proto -> Ok t))

(* Bounded retry with backoff: [timeout] is the total budget in seconds
   (0 = exactly one attempt). Only pre-handshake transport errors retry — a
   server that answers with a bad hello is not going to get better. *)
let connect ?(timeout = 0.) addr =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go delay =
    match connect_once addr with
    | Ok t -> Ok t
    | Error (`Fatal msg) -> Error msg
    | Error (`Transient err) ->
      let now = Unix.gettimeofday () in
      if now >= deadline then Error (diagnose addr err)
      else (
        let sleep = Float.min delay (Float.max 0. (deadline -. now)) in
        Unix.sleepf sleep;
        go (Float.min (delay *. 2.) 0.5))
  in
  go 0.05

let send_line t line =
  match
    output_string t.oc line;
    output_char t.oc '\n';
    flush t.oc
  with
  | () -> Ok ()
  | exception Sys_error msg -> Error msg

let send t req = send_line t (Json.to_string (Protocol.request_codec.enc req))

(* one request, one reply; Error for transport failures AND ok:false replies *)
let request t req =
  Result.bind (send t req) (fun () ->
      Result.bind (read_json t) (fun reply ->
          match Protocol.reply_error reply with
          | Some msg -> Error msg
          | None -> Ok reply))

(* A watch on a finished job replays the backlog past [from] and stops
   there: the server neither subscribes the connection nor closes it, so the
   reply's [state] and [backlog] bound what is left to read, and the
   connection stays usable for the next request. *)
let stream t req ~on_line =
  Result.bind (request t req) (fun reply ->
      let field name decode = Option.bind (Json.member name reply) decode in
      let remaining =
        match (req, field "state" Json.to_str, field "backlog" Json.to_int) with
        | Protocol.Watch { from; _ }, Some ("done" | "failed" | "cancelled"),
          Some backlog ->
          Some (max 0 (backlog - max 0 from))
        | _ -> None
      in
      let rec go remaining =
        if remaining = Some 0 then Ok ()
        else
          match read_json t with
          | Error _ -> Ok ()  (* stream ended: server closed or drained *)
          | Ok json ->
            if on_line json then go (Option.map pred remaining) else Ok ()
      in
      Result.map (fun () -> reply) (go remaining))
