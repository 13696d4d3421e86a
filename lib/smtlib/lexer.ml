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

type token = Lparen | Rparen | Tatom of atom

let is_digit c = c >= '0' && c <= '9'

let is_symbol_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || is_digit c
  || String.contains "~!@$%^&*_-+=<>.?/" c

let lex_tokens input =
  let n = String.length input in
  let tokens = ref [] in
  let emit t = tokens := t :: !tokens in
  let i = ref 0 in
  let peek () = if !i < n then Some input.[!i] else None in
  let advance () = incr i in
  let read_while pred =
    let start = !i in
    while !i < n && pred input.[!i] do
      advance ()
    done;
    String.sub input start (!i - start)
  in
  while !i < n do
    match input.[!i] with
    | ' ' | '\t' | '\n' | '\r' -> advance ()
    | ';' ->
      while !i < n && input.[!i] <> '\n' do
        advance ()
      done
    | '(' ->
      advance ();
      emit Lparen
    | ')' ->
      advance ();
      emit Rparen
    | '"' ->
      advance ();
      let buf = Buffer.create 16 in
      let rec go () =
        if !i >= n then raise (Lex_error "unterminated string literal")
        else (
          match input.[!i] with
          | '"' ->
            advance ();
            (* doubled quote is an escaped quote *)
            if peek () = Some '"' then (
              Buffer.add_char buf '"';
              advance ();
              go ())
          | c ->
            Buffer.add_char buf c;
            advance ();
            go ())
      in
      go ();
      emit (Tatom (Str (Buffer.contents buf)))
    | '|' ->
      advance ();
      let body = read_while (fun c -> c <> '|') in
      if !i >= n then raise (Lex_error "unterminated quoted symbol");
      advance ();
      emit (Tatom (Sym body))
    | ':' ->
      advance ();
      let body = read_while is_symbol_char in
      if body = "" then raise (Lex_error "empty keyword after ':'");
      emit (Tatom (Kw body))
    | '#' ->
      advance ();
      (match peek () with
      | Some 'x' ->
        advance ();
        let body = read_while (fun c -> is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')) in
        if body = "" then raise (Lex_error "empty hexadecimal literal");
        emit (Tatom (Hex body))
      | Some 'b' ->
        advance ();
        let body = read_while (fun c -> c = '0' || c = '1') in
        if body = "" then raise (Lex_error "empty binary literal");
        emit (Tatom (Bin body))
      | _ -> raise (Lex_error "expected 'x' or 'b' after '#'"))
    | c when is_digit c ->
      let whole = read_while is_digit in
      if peek () = Some '.' then (
        advance ();
        let frac = read_while is_digit in
        if frac = "" then raise (Lex_error "malformed decimal literal");
        emit (Tatom (Dec (whole ^ "." ^ frac))))
      else if (match peek () with Some c when is_symbol_char c -> true | _ -> false)
      then (
        (* numeral glued to symbol chars, e.g. "bv5" parsed elsewhere; here a
           token like "3x" is a lexical error in strict SMT-LIB *)
        let rest = read_while is_symbol_char in
        raise (Lex_error (Printf.sprintf "invalid token '%s%s'" whole rest)))
      else emit (Tatom (Num whole))
    | c when is_symbol_char c ->
      let body = read_while is_symbol_char in
      emit (Tatom (Sym body))
    | c -> raise (Lex_error (Printf.sprintf "unexpected character '%c'" c))
  done;
  List.rev !tokens

let read_sexps input =
  let tokens = lex_tokens input in
  let rec parse_many acc = function
    | [] -> (List.rev acc, [])
    | Rparen :: _ as rest -> (List.rev acc, rest)
    | Lparen :: rest ->
      let inner, rest' = parse_many [] rest in
      (match rest' with
      | Rparen :: rest'' -> parse_many (List inner :: acc) rest''
      | _ -> raise (Lex_error "unbalanced parentheses: missing ')'"))
    | Tatom a :: rest -> parse_many (Atom a :: acc) rest
  in
  let sexps, rest = parse_many [] tokens in
  if rest <> [] then raise (Lex_error "unbalanced parentheses: extra ')'");
  sexps

let atom_to_string = function
  | Sym s -> s
  | Kw s -> ":" ^ s
  | Num s | Dec s -> s
  | Hex s -> "#x" ^ s
  | Bin s -> "#b" ^ s
  | Str s -> Printf.sprintf "\"%s\"" s
