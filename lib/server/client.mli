(** Blocking client for the campaign server's socket protocol — what the
    [submit]/[jobs]/[watch]/[pause]/[resume-job]/[cancel] subcommands and
    the server tests are built on. Speaks the identical protocol over a
    Unix-domain socket ({!Addr.Unix_path}) or TCP ({!Addr.Tcp}). *)

type t

val connect : ?timeout:float -> Addr.t -> (t, string) result
(** Connect and validate the server's hello header ({!Protocol.check_hello});
    refuses servers speaking a newer protocol.

    [timeout] (default 0 = one attempt) is a total retry budget in seconds:
    transient transport errors — no socket file yet, connection refused,
    host briefly unreachable — retry with doubling backoff until the budget
    runs out. The final error distinguishes a socket file that does not
    exist (server not running / still starting: waiting can help) from one
    that exists but refuses connections (stale socket left by a dead
    server: waiting cannot). *)

val send : t -> Protocol.request -> (unit, string) result
(** Write one request line without reading a reply — building block for
    asymmetric exchanges (the remote worker's result/heartbeat pushes). *)

val send_line : t -> string -> (unit, string) result
(** {!send} for a request already encoded on one line (no newline). *)

val request :
  t -> Protocol.request -> (O4a_telemetry.Json.t, string) result
(** Send one request, read its one-line reply. [Error] covers transport
    failures and [ok:false] replies alike (the server's error message). *)

val stream :
  t ->
  Protocol.request ->
  on_line:(O4a_telemetry.Json.t -> bool) ->
  (O4a_telemetry.Json.t, string) result
(** Send a streaming request (Watch): after its [ok] reply — returned on
    success — every subsequent line is handed to [on_line] until it returns
    [false] or the server closes the stream. A watch on a job the reply
    names as finished ([done]/[failed]/[cancelled]) ends after the
    [backlog - from] replayed lines, and the connection stays open for
    further requests. *)

val fd : t -> Unix.file_descr
(** The underlying descriptor, for callers that multiplex the connection
    with [select] after the handshake (the remote worker's socket loop).
    Mixing raw-fd reads with {!request} is only safe once no buffered reply
    can be pending — the hello header is the last line this module reads on
    the worker path. *)

val close : t -> unit
