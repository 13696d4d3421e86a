type atom =
  | Sym of string
  | Kw of string
  | Num of string
  | Dec of string
  | Hex of string
  | Bin of string
  | Str of string

type sexp = Atom of atom | List of sexp list

exception Lex_error of string

let is_digit = function '0' .. '9' -> true | _ -> false

let is_symbol_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9'
  | '~' | '!' | '@' | '$' | '%' | '^' | '&' | '*' | '_' | '-' | '+' | '=' | '<' | '>'
  | '.' | '?' | '/' ->
    true
  | _ -> false

let is_hex_digit = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false

let is_bin_digit = function '0' | '1' -> true | _ -> false

(* One index walks the input; each atom is read where it starts and nested
   lists are built as they close. *)
let read_sexps input =
  let n = String.length input in
  let i = ref 0 in
  let skip_while pred =
    while !i < n && pred (String.unsafe_get input !i) do
      incr i
    done
  in
  let rec skip_blank () =
    if !i < n then
      match String.unsafe_get input !i with
      | ' ' | '\t' | '\n' | '\r' ->
        incr i;
        skip_blank ()
      | ';' ->
        skip_while (fun c -> c <> '\n');
        skip_blank ()
      | _ -> ()
  in
  let slice start = String.sub input start (!i - start) in
  (* a string literal's body from just past its opening quote; a doubled
     quote is an escaped quote *)
  let string_body () =
    let buf = Buffer.create 16 in
    let rec go start =
      match String.index_from_opt input start '"' with
      | None -> raise (Lex_error "unterminated string literal")
      | Some q ->
        Buffer.add_substring buf input start (q - start);
        if q + 1 < n && input.[q + 1] = '"' then (
          Buffer.add_char buf '"';
          go (q + 2))
        else i := q + 1
    in
    go !i;
    Buffer.contents buf
  in
  (* the atom at [!i], which is neither blank nor a parenthesis *)
  let atom () =
    let start = !i in
    match input.[start] with
    | '"' ->
      incr i;
      Str (string_body ())
    | '|' -> (
      match String.index_from_opt input (start + 1) '|' with
      | None -> raise (Lex_error "unterminated quoted symbol")
      | Some close ->
        i := close + 1;
        Sym (String.sub input (start + 1) (close - start - 1)))
    | ':' ->
      incr i;
      skip_while is_symbol_char;
      if !i = start + 1 then raise (Lex_error "empty keyword after ':'");
      Kw (String.sub input (start + 1) (!i - start - 1))
    | '#' -> (
      let digits pred empty make =
        i := start + 2;
        skip_while pred;
        if !i = start + 2 then raise (Lex_error empty);
        make (String.sub input (start + 2) (!i - start - 2))
      in
      match if start + 1 < n then input.[start + 1] else ' ' with
      | 'x' -> digits is_hex_digit "empty hexadecimal literal" (fun s -> Hex s)
      | 'b' -> digits is_bin_digit "empty binary literal" (fun s -> Bin s)
      | _ -> raise (Lex_error "expected 'x' or 'b' after '#'"))
    | '0' .. '9' ->
      skip_while is_digit;
      if !i < n && input.[!i] = '.' then (
        incr i;
        let frac = !i in
        skip_while is_digit;
        if !i = frac then raise (Lex_error "malformed decimal literal");
        Dec (slice start))
      else if !i < n && is_symbol_char input.[!i] then (
        (* a numeral glued to symbol characters, e.g. "3x", is a lexical
           error in strict SMT-LIB *)
        skip_while is_symbol_char;
        raise (Lex_error (Printf.sprintf "invalid token '%s'" (slice start))))
      else Num (slice start)
    | c when is_symbol_char c ->
      skip_while is_symbol_char;
      Sym (slice start)
    | c -> raise (Lex_error (Printf.sprintf "unexpected character '%c'" c))
  in
  (* the elements of a list whose '(' has been read, up to its ')' *)
  let rec elements acc =
    skip_blank ();
    if !i >= n then raise (Lex_error "unbalanced parentheses: missing ')'");
    match input.[!i] with
    | '(' ->
      incr i;
      let inner = elements [] in
      elements (inner :: acc)
    | ')' ->
      incr i;
      List (List.rev acc)
    | _ -> elements (Atom (atom ()) :: acc)
  in
  (* a lexical error anywhere in the input wins over an unbalanced
     parenthesis, so a stray ')' is reported only once the rest lexes *)
  let rec lex_rest () =
    skip_blank ();
    if !i < n then (
      (match input.[!i] with '(' | ')' -> incr i | _ -> ignore (atom ()));
      lex_rest ())
  in
  let rec top acc =
    skip_blank ();
    if !i >= n then List.rev acc
    else
      match input.[!i] with
      | '(' ->
        incr i;
        let sexp = elements [] in
        top (sexp :: acc)
      | ')' ->
        incr i;
        lex_rest ();
        raise (Lex_error "unbalanced parentheses: extra ')'")
      | _ -> top (Atom (atom ()) :: acc)
  in
  top []

let atom_to_string = function
  | Sym s -> s
  | Kw s -> ":" ^ s
  | Num s | Dec s -> s
  | Hex s -> "#x" ^ s
  | Bin s -> "#b" ^ s
  | Str s -> Printf.sprintf "\"%s\"" s
