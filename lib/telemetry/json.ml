type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------- printing ------------------------------- *)

let escape_into buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let float_repr f =
  if Float.is_nan f || f = Float.infinity || f = Float.neg_infinity then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else (
    (* shortest representation that round-trips *)
    let s = Printf.sprintf "%.12g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f)

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f -> Buffer.add_string buf (float_repr f)
  | String s ->
    Buffer.add_char buf '"';
    escape_into buf s;
    Buffer.add_char buf '"'
  | List xs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        write buf x)
      xs;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_char buf '"';
        escape_into buf k;
        Buffer.add_string buf "\":";
        write buf v)
      fields;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 128 in
  write buf v;
  Buffer.contents buf

(* ------------------------------- parsing -------------------------------- *)

exception Bad of int * string

let parse_located input =
  let n = String.length input in
  let pos = ref 0 in
  let fail msg = raise (Bad (!pos, msg)) in
  let peek () = if !pos < n then Some input.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && (match input.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word value =
    let m = String.length word in
    if !pos + m <= n && String.sub input !pos m = word then (
      pos := !pos + m;
      value)
    else fail (Printf.sprintf "expected '%s'" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else (
        let c = input.[!pos] in
        advance ();
        match c with
        | '"' -> Buffer.contents buf
        | '\\' ->
          (if !pos >= n then fail "unterminated escape"
           else (
             let e = input.[!pos] in
             advance ();
             match e with
             | '"' -> Buffer.add_char buf '"'
             | '\\' -> Buffer.add_char buf '\\'
             | '/' -> Buffer.add_char buf '/'
             | 'n' -> Buffer.add_char buf '\n'
             | 'r' -> Buffer.add_char buf '\r'
             | 't' -> Buffer.add_char buf '\t'
             | 'b' -> Buffer.add_char buf '\b'
             | 'f' -> Buffer.add_char buf '\012'
             | 'u' ->
               if !pos + 4 > n then fail "truncated \\u escape"
               else (
                 let hex = String.sub input !pos 4 in
                 pos := !pos + 4;
                 match int_of_string_opt ("0x" ^ hex) with
                 | None -> fail "bad \\u escape"
                 | Some code ->
                   (* encode the code point as UTF-8 (BMP only) *)
                   if code < 0x80 then Buffer.add_char buf (Char.chr code)
                   else if code < 0x800 then (
                     Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                     Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F))))
                   else (
                     Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                     Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                     Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))))
             | _ -> fail "unknown escape"));
          go ()
        | c -> Buffer.add_char buf c; go ())
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char input.[!pos] do
      advance ()
    done;
    let text = String.sub input start (!pos - start) in
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> (
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail (Printf.sprintf "bad number '%s'" text))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then (advance (); Obj [])
      else (
        let rec fields acc =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let value = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); fields ((key, value) :: acc)
          | Some '}' -> advance (); Obj (List.rev ((key, value) :: acc))
          | _ -> fail "expected ',' or '}'"
        in
        fields [])
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then (advance (); List [])
      else (
        let rec elements acc =
          let value = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); elements (value :: acc)
          | Some ']' -> advance (); List (List.rev (value :: acc))
          | _ -> fail "expected ',' or ']'"
        in
        elements [])
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  match parse_value () with
  | value ->
    skip_ws ();
    if !pos <> n then Error (!pos, "trailing garbage") else Ok value
  | exception Bad (offset, msg) -> Error (offset, msg)

let parse input =
  match parse_located input with
  | Ok v -> Ok v
  | Error (offset, msg) -> Error (Printf.sprintf "%s at offset %d" msg offset)

(* ------------------------------ accessors ------------------------------- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_float = function
  | Int n -> Some (float_of_int n)
  | Float f -> Some f
  | _ -> None

let to_int = function Int n -> Some n | _ -> None
let to_str = function String s -> Some s | _ -> None
let to_bool = function Bool b -> Some b | _ -> None

let rec equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool x, Bool y -> x = y
  | Int x, Int y -> x = y
  | Float x, Float y -> x = y
  | (Int _ | Float _), (Int _ | Float _) -> to_float a = to_float b
  | String x, String y -> x = y
  | List xs, List ys ->
    List.length xs = List.length ys && List.for_all2 equal xs ys
  | Obj xs, Obj ys ->
    List.length xs = List.length ys
    && List.for_all2 (fun (k, v) (k', v') -> k = k' && equal v v') xs ys
  | _ -> false

(* -------------------------------- codecs -------------------------------- *)

module Codec = struct
  type json = t
  type 'a t = { enc : 'a -> json; dec : json -> ('a, string) result }

  let ( let* ) = Result.bind

  (* errors are built only on failure: the decode path of a large
     checkpoint stays allocation-lean *)
  let in_field name = function
    | Ok _ as ok -> ok
    | Error e -> Error (Printf.sprintf "field %S: %s" name e)

  let int =
    let dec = function Int n -> Ok n | _ -> Error "expected an int" in
    { enc = (fun n -> Int n); dec }

  let float =
    let dec = function
      | Float f -> Ok f
      | Int n -> Ok (float_of_int n)
      | _ -> Error "expected a number"
    in
    { enc = (fun f -> Float f); dec }

  let string =
    let dec = function String s -> Ok s | _ -> Error "expected a string" in
    { enc = (fun s -> String s); dec }

  let bool =
    let dec = function Bool b -> Ok b | _ -> Error "expected a bool" in
    { enc = (fun b -> Bool b); dec }

  let list c =
    let dec = function
      | List l ->
        let rec go i acc = function
          | [] -> Ok (List.rev acc)
          | x :: rest -> (
            match c.dec x with
            | Ok v -> go (i + 1) (v :: acc) rest
            | Error e -> Error (Printf.sprintf "element %d: %s" i e))
        in
        go 0 [] l
      | _ -> Error "expected a list"
    in
    { enc = (fun l -> List (List.map c.enc l)); dec }

  let assoc c =
    let dec = function
      | Obj kvs ->
        let rec go acc = function
          | [] -> Ok (List.rev acc)
          | (k, v) :: rest -> (
            match c.dec v with
            | Ok v -> go ((k, v) :: acc) rest
            | Error e -> in_field k (Error e))
        in
        go [] kvs
      | _ -> Error "expected an object"
    in
    { enc = (fun kvs -> Obj (List.map (fun (k, v) -> (k, c.enc v)) kvs)); dec }

  let nullable c =
    {
      enc = (function Some v -> c.enc v | None -> Null);
      dec = (function Null -> Ok None | j -> Result.map Option.some (c.dec j));
    }

  let conv enc dec c =
    { enc = (fun v -> c.enc (enc v)); dec = (fun j -> Result.bind (c.dec j) dec) }

  let context name c =
    let dec j =
      match c.dec j with
      | Ok _ as ok -> ok
      | Error e -> Error (Printf.sprintf "%s: %s" name e)
    in
    { c with dec }

  let field name c = function
    | Obj kvs -> (
      match List.assoc_opt name kvs with
      | Some v -> in_field name (c.dec v)
      | None -> Error (Printf.sprintf "field %S: missing" name))
    | _ -> Error "expected an object"

  let field_or name c ~default = function
    | Obj kvs -> (
      match List.assoc_opt name kvs with
      | Some v -> in_field name (c.dec v)
      | None -> Ok default)
    | _ -> Error "expected an object"

  (* a record under construction: the encoders so far (reversed) and a
     decoder yielding the constructor applied to the members decoded so far *)
  type ('r, 'k) fields = {
    encs : (string * ('r -> json)) list;
    fdec : json -> ('k, string) result;
  }

  let obj make = { encs = []; fdec = (fun _ -> Ok make) }

  let member decode name c get r =
    {
      encs = (name, fun v -> c.enc (get v)) :: r.encs;
      fdec =
        (fun j ->
          match r.fdec j with
          | Ok k -> Result.map k (decode name c j)
          | Error _ as e -> e);
    }

  let mem name c get r = member field name c get r
  let opt_mem name c ~default get r = member (field_or ~default) name c get r

  let finish r =
    let encs = List.rev r.encs in
    {
      enc = (fun v -> Obj (List.map (fun (name, enc) -> (name, enc v)) encs));
      dec = (function Obj _ as j -> r.fdec j | _ -> Error "expected an object");
    }
end
