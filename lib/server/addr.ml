(* Endpoint addressing shared by the daemon's TCP listener, the client, and
   the remote worker: one parser for "PORT" / "HOST:PORT" specs so every
   subcommand accepts the same notation, and one resolver so numeric
   addresses never touch the resolver while hostnames still work. *)

type t = Unix_path of string | Tcp of string * int

let to_string = function
  | Unix_path p -> p
  | Tcp (host, port) -> Printf.sprintf "%s:%d" host port

let default_host = "127.0.0.1"

let parse_tcp spec =
  let fail () =
    Error
      (Printf.sprintf "invalid TCP endpoint %S (expected PORT or HOST:PORT)"
         spec)
  in
  let parse_port s =
    match int_of_string_opt s with
    | Some p when p >= 0 && p <= 65535 -> Some p
    | Some _ | None -> None
  in
  match String.rindex_opt spec ':' with
  | None -> (
    match parse_port spec with
    | Some p -> Ok (default_host, p)
    | None -> fail ())
  | Some i -> (
    let host = String.sub spec 0 i in
    let port = String.sub spec (i + 1) (String.length spec - i - 1) in
    match parse_port port with
    | Some p when host <> "" -> Ok (host, p)
    | Some _ | None -> fail ())

let resolve ~host ~port =
  match Unix.inet_addr_of_string host with
  | addr -> Ok (Unix.ADDR_INET (addr, port))
  | exception Failure _ -> (
    match Unix.getaddrinfo host "" [ Unix.AI_SOCKTYPE Unix.SOCK_STREAM ] with
    | { Unix.ai_addr = Unix.ADDR_INET (addr, _); _ } :: _ ->
      Ok (Unix.ADDR_INET (addr, port))
    | _ -> Error (Printf.sprintf "cannot resolve host %S" host)
    | exception Not_found -> Error (Printf.sprintf "cannot resolve host %S" host))
