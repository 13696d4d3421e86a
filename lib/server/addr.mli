(** Endpoint addressing shared by the daemon's TCP listener, the client, and
    the remote worker. *)

type t =
  | Unix_path of string  (** local Unix-domain socket file *)
  | Tcp of string * int  (** remote coordinator: host, port *)

val to_string : t -> string

val default_host : string
(** ["127.0.0.1"] — the daemon binds loopback unless told otherwise. *)

val parse_tcp : string -> (string * int, string) result
(** Parse a ["PORT"] (on {!default_host}) or ["HOST:PORT"] spec. Ports
    must be in [0..65535]; port [0] asks the kernel for an ephemeral port
    (the daemon writes the one it got to [state_dir/tcp.port]). *)

val resolve : host:string -> port:int -> (Unix.sockaddr, string) result
(** Numeric addresses parse directly; anything else goes through
    [getaddrinfo]. *)
