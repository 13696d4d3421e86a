(* The SMT-LIB front end that the one-pass reader, the buffer printer, the
   by-name operator dispatch and the sort checker's tables replaced, kept as
   the reference test_frontend and the bundle replay compare the library
   with: the lexer builds a token list and pairs its parentheses afterwards
   (so a lexical error anywhere wins over an unbalanced parenthesis), the
   printer formats every node with [Printf] and [String.concat],
   [Signature.app] tries its operator families in order, and the sort
   checker scans declaration lists. *)

open Smtlib
open Theories

(* ------------------------------------------------------------------ *)
(* Lexer.read_sexps                                                   *)
(* ------------------------------------------------------------------ *)

open Lexer

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


(* ------------------------------------------------------------------ *)
(* Printer.term, Printer.command, Printer.script                      *)
(* ------------------------------------------------------------------ *)

let index = function
  | Term.Idx_num n -> string_of_int n
  | Term.Idx_sym s -> s

let rec term t =
  match t with
  | Term.Const c -> Term.const_to_string c
  | Term.Var name -> name
  | Term.App (name, []) -> name
  | Term.App (name, args) ->
    Printf.sprintf "(%s %s)" name (String.concat " " (List.map term args))
  | Term.Indexed_app (name, idxs, []) ->
    Printf.sprintf "(_ %s %s)" name (String.concat " " (List.map index idxs))
  | Term.Indexed_app (name, idxs, args) ->
    Printf.sprintf "((_ %s %s) %s)" name
      (String.concat " " (List.map index idxs))
      (String.concat " " (List.map term args))
  | Term.Qual (name, sort) -> Printf.sprintf "(as %s %s)" name (Sort.to_string sort)
  | Term.Qual_app (name, sort, args) ->
    Printf.sprintf "((as %s %s) %s)" name (Sort.to_string sort)
      (String.concat " " (List.map term args))
  | Term.Let (bindings, body) ->
    let binding (name, value) = Printf.sprintf "(%s %s)" name (term value) in
    Printf.sprintf "(let (%s) %s)" (String.concat " " (List.map binding bindings)) (term body)
  | Term.Forall (binders, body) ->
    Printf.sprintf "(forall (%s) %s)" (binders_to_string binders) (term body)
  | Term.Exists (binders, body) ->
    Printf.sprintf "(exists (%s) %s)" (binders_to_string binders) (term body)
  | Term.Annot (body, attrs) ->
    let attr (key, value) =
      match value with
      | Some v -> Printf.sprintf ":%s %s" key v
      | None -> Printf.sprintf ":%s" key
    in
    Printf.sprintf "(! %s %s)" (term body) (String.concat " " (List.map attr attrs))
  | Term.Match (scrutinee, cases) ->
    let pattern = function
      | Term.P_ctor (ctor, []) -> ctor
      | Term.P_ctor (ctor, binders) ->
        Printf.sprintf "(%s %s)" ctor (String.concat " " binders)
      | Term.P_var name -> name
      | Term.P_wildcard -> "_"
    in
    Printf.sprintf "(match %s (%s))" (term scrutinee)
      (String.concat " "
         (List.map (fun (p, b) -> Printf.sprintf "(%s %s)" (pattern p) (term b)) cases))
  | Term.Placeholder _ -> "<placeholder>"

and binders_to_string binders =
  binders
  |> List.map (fun (name, sort) -> Printf.sprintf "(%s %s)" name (Sort.to_string sort))
  |> String.concat " "

let datatype_decl (d : Command.datatype_decl) =
  let ctor (c : Command.constructor) =
    if c.selectors = [] then Printf.sprintf "(%s)" c.ctor_name
    else
      Printf.sprintf "(%s %s)" c.ctor_name
        (String.concat " "
           (List.map
              (fun (sel, sort) -> Printf.sprintf "(%s %s)" sel (Sort.to_string sort))
              c.selectors))
  in
  ( Printf.sprintf "(%s 0)" d.dt_name,
    Printf.sprintf "(%s)" (String.concat " " (List.map ctor d.constructors)) )

let command cmd =
  match cmd with
  | Command.Set_logic logic -> Printf.sprintf "(set-logic %s)" logic
  | Command.Set_option (key, value) -> Printf.sprintf "(set-option :%s %s)" key value
  | Command.Set_info (key, value) -> Printf.sprintf "(set-info :%s %s)" key value
  | Command.Declare_sort (name, arity) -> Printf.sprintf "(declare-sort %s %d)" name arity
  | Command.Declare_fun (name, args, result) ->
    Printf.sprintf "(declare-fun %s (%s) %s)" name
      (String.concat " " (List.map Sort.to_string args))
      (Sort.to_string result)
  | Command.Declare_const (name, sort) ->
    Printf.sprintf "(declare-const %s %s)" name (Sort.to_string sort)
  | Command.Define_fun (name, params, result, body) ->
    Printf.sprintf "(define-fun %s (%s) %s %s)" name
      (binders_to_string params) (Sort.to_string result) (term body)
  | Command.Declare_datatypes decls ->
    let sort_parts, ctor_parts = List.split (List.map datatype_decl decls) in
    Printf.sprintf "(declare-datatypes (%s) (%s))"
      (String.concat " " sort_parts)
      (String.concat " " ctor_parts)
  | Command.Assert t -> Printf.sprintf "(assert %s)" (term t)
  | Command.Check_sat -> "(check-sat)"
  | Command.Get_model -> "(get-model)"
  | Command.Get_value ts ->
    Printf.sprintf "(get-value (%s))" (String.concat " " (List.map term ts))
  | Command.Push n -> Printf.sprintf "(push %d)" n
  | Command.Pop n -> Printf.sprintf "(pop %d)" n
  | Command.Echo s -> Printf.sprintf "(echo \"%s\")" (O4a_util.Strx.escape_smt_string s)
  | Command.Exit -> "(exit)"

let script commands = String.concat "\n" (List.map command commands)


(* ------------------------------------------------------------------ *)
(* Signature.app                                                      *)
(* ------------------------------------------------------------------ *)

let starts_with ~prefix s =
  let lp = String.length prefix in
  String.length s >= lp && String.sub s 0 lp = prefix

let ok s = Ok s
let err fmt = Printf.ksprintf (fun m -> Error m) fmt

let sort_str = Sort.to_string

let arity_error name expected got =
  err "the function '%s' expects %s arguments, got %d" name expected got

let all_same name sorts =
  match sorts with
  | [] -> err "the function '%s' expects at least one argument" name
  | s :: rest ->
    if List.for_all (Sort.equal s) rest then ok s
    else
      err "the function '%s' expects arguments of the same sort, got %s" name
        (String.concat " " (List.map sort_str sorts))

(* Arithmetic: all Int -> Int, otherwise all Int/Real (mixed coerces) -> Real,
   mirroring the permissive parsing of real solvers. *)
let arith_result name sorts =
  if sorts = [] then err "the function '%s' expects at least one argument" name
  else if List.for_all (Sort.equal Sort.Int) sorts then ok Sort.Int
  else if List.for_all (fun s -> Sort.is_numeric s) sorts then ok Sort.Real
  else
    err "the function '%s' expects Int or Real arguments, got %s" name
      (String.concat " " (List.map sort_str sorts))

let bool_args name sorts =
  if List.for_all (Sort.equal Sort.Bool) sorts then ok Sort.Bool
  else
    err "the function '%s' expects Bool arguments, got %s" name
      (String.concat " " (List.map sort_str sorts))

let same_width_bv name sorts =
  match sorts with
  | Sort.Bitvec w :: rest when List.for_all (Sort.equal (Sort.Bitvec w)) rest ->
    ok (Sort.Bitvec w)
  | _ ->
    err "the function '%s' expects bit-vector arguments of equal width, got %s" name
      (String.concat " " (List.map sort_str sorts))

let bv_predicate name sorts =
  match sorts with
  | [ Sort.Bitvec w; Sort.Bitvec w' ] when w = w' -> ok Sort.Bool
  | _ ->
    err "the predicate '%s' expects two bit-vectors of equal width, got %s" name
      (String.concat " " (List.map sort_str sorts))

let same_field name sorts =
  match sorts with
  | Sort.Finite_field p :: rest when List.for_all (Sort.equal (Sort.Finite_field p)) rest ->
    ok (Sort.Finite_field p)
  | [] -> err "the function '%s' expects at least one argument" name
  | _ ->
    err "the function '%s' expects arguments in the same finite field, got %s" name
      (String.concat " " (List.map sort_str sorts))

(* ------------------------------------------------------------------ *)

let core name sorts =
  match (name, sorts) with
  | "not", [ Sort.Bool ] -> ok Sort.Bool
  | "not", _ -> arity_error name "one Bool" (List.length sorts)
  | ("and" | "or" | "xor" | "=>"), _ :: _ :: _ -> bool_args name sorts
  | ("and" | "or" | "xor" | "=>"), _ -> arity_error name "at least two" (List.length sorts)
  | ("=" | "distinct"), _ :: _ :: _ -> (
    (* real solvers coerce mixed Int/Real equalities; mirror that *)
    if List.for_all Sort.is_numeric sorts then ok Sort.Bool
    else match all_same name sorts with Ok _ -> ok Sort.Bool | Error e -> Error e)
  | ("=" | "distinct"), _ -> arity_error name "at least two" (List.length sorts)
  | "ite", [ Sort.Bool; a; b ] when Sort.equal a b -> ok a
  | "ite", [ Sort.Bool; a; b ] ->
    err "the branches of 'ite' must have the same sort, got %s and %s" (sort_str a) (sort_str b)
  | "ite", _ -> arity_error name "three" (List.length sorts)
  | _ -> err "unknown core operator '%s'" name

let arith name sorts =
  match (name, sorts) with
  | "-", [ s ] when Sort.is_numeric s -> ok s
  | ("+" | "-" | "*"), _ :: _ :: _ -> arith_result name sorts
  | "/", _ :: _ :: _ -> (
    match arith_result name sorts with Ok _ -> ok Sort.Real | Error e -> Error e)
  | ("div" | "mod"), [ Sort.Int; Sort.Int ] -> ok Sort.Int
  | ("div" | "mod"), _ -> err "the function '%s' expects two Int arguments" name
  | "abs", [ Sort.Int ] -> ok Sort.Int
  | "abs", _ -> err "the function 'abs' expects one Int argument"
  | ("<" | "<=" | ">" | ">="), _ :: _ :: _ -> (
    match arith_result name sorts with Ok _ -> ok Sort.Bool | Error e -> Error e)
  | "to_real", [ Sort.Int ] -> ok Sort.Real
  | "to_int", [ Sort.Real ] -> ok Sort.Int
  | "is_int", [ Sort.Real ] -> ok Sort.Bool
  | ("to_real" | "to_int" | "is_int"), _ ->
    err "wrong argument sort for '%s': got %s" name
      (String.concat " " (List.map sort_str sorts))
  | _ -> err "unknown arithmetic operator '%s'" name

let bitvec name sorts =
  match (name, sorts) with
  | "concat", [ Sort.Bitvec m; Sort.Bitvec n ] -> ok (Sort.Bitvec (m + n))
  | "concat", _ -> err "the function 'concat' expects two bit-vector arguments"
  | ("bvnot" | "bvneg"), [ Sort.Bitvec w ] -> ok (Sort.Bitvec w)
  | ("bvnot" | "bvneg"), _ -> err "the function '%s' expects one bit-vector argument" name
  | ( ("bvand" | "bvor" | "bvxor" | "bvnand" | "bvnor" | "bvxnor" | "bvadd" | "bvsub"
      | "bvmul" | "bvudiv" | "bvurem" | "bvsdiv" | "bvsrem" | "bvsmod" | "bvshl"
      | "bvlshr" | "bvashr"),
      _ :: _ :: _ ) ->
    same_width_bv name sorts
  | ( ("bvand" | "bvor" | "bvxor" | "bvnand" | "bvnor" | "bvxnor" | "bvadd" | "bvsub"
      | "bvmul" | "bvudiv" | "bvurem" | "bvsdiv" | "bvsrem" | "bvsmod" | "bvshl"
      | "bvlshr" | "bvashr"),
      _ ) ->
    arity_error name "at least two" (List.length sorts)
  | ( ("bvult" | "bvule" | "bvugt" | "bvuge" | "bvslt" | "bvsle" | "bvsgt" | "bvsge"),
      _ ) ->
    bv_predicate name sorts
  | "bvcomp", [ Sort.Bitvec w; Sort.Bitvec w' ] when w = w' -> ok (Sort.Bitvec 1)
  | "bvcomp", _ -> err "the function 'bvcomp' expects two bit-vectors of equal width"
  | ("bv2nat" | "ubv_to_int"), [ Sort.Bitvec _ ] -> ok Sort.Int
  | ("bv2nat" | "ubv_to_int"), _ -> err "the function '%s' expects one bit-vector" name
  | _ -> err "unknown bit-vector operator '%s'" name

let strings name sorts =
  match (name, sorts) with
  | "str.++", Sort.String_sort :: _ :: _
    when List.for_all (Sort.equal Sort.String_sort) sorts ->
    ok Sort.String_sort
  | "str.++", _ -> err "the function 'str.++' expects String arguments"
  | "str.len", [ Sort.String_sort ] -> ok Sort.Int
  | "str.at", [ Sort.String_sort; Sort.Int ] -> ok Sort.String_sort
  | "str.substr", [ Sort.String_sort; Sort.Int; Sort.Int ] -> ok Sort.String_sort
  | "str.indexof", [ Sort.String_sort; Sort.String_sort; Sort.Int ] -> ok Sort.Int
  | ("str.contains" | "str.prefixof" | "str.suffixof"), [ Sort.String_sort; Sort.String_sort ]
    ->
    ok Sort.Bool
  | ("str.<" | "str.<="), [ Sort.String_sort; Sort.String_sort ] -> ok Sort.Bool
  | ("str.replace" | "str.replace_all"),
    [ Sort.String_sort; Sort.String_sort; Sort.String_sort ] ->
    ok Sort.String_sort
  | "str.to_int", [ Sort.String_sort ] -> ok Sort.Int
  | "str.from_int", [ Sort.Int ] -> ok Sort.String_sort
  | "str.to_code", [ Sort.String_sort ] -> ok Sort.Int
  | "str.from_code", [ Sort.Int ] -> ok Sort.String_sort
  | "str.is_digit", [ Sort.String_sort ] -> ok Sort.Bool
  | "str.in_re", [ Sort.String_sort; Sort.Reglan ] -> ok Sort.Bool
  | "str.to_re", [ Sort.String_sort ] -> ok Sort.Reglan
  | ("re.++" | "re.union" | "re.inter"), _ :: _ :: _
    when List.for_all (Sort.equal Sort.Reglan) sorts ->
    ok Sort.Reglan
  | ("re.*" | "re.+" | "re.opt" | "re.comp"), [ Sort.Reglan ] -> ok Sort.Reglan
  | "re.range", [ Sort.String_sort; Sort.String_sort ] -> ok Sort.Reglan
  | "re.diff", [ Sort.Reglan; Sort.Reglan ] -> ok Sort.Reglan
  | ( ("str.len" | "str.at" | "str.substr" | "str.indexof" | "str.contains"
      | "str.prefixof" | "str.suffixof" | "str.<" | "str.<=" | "str.replace"
      | "str.replace_all" | "str.to_int" | "str.from_int" | "str.to_code"
      | "str.from_code" | "str.is_digit" | "str.in_re" | "str.to_re" | "re.++"
      | "re.union" | "re.inter" | "re.*" | "re.+" | "re.opt" | "re.comp" | "re.range"
      | "re.diff"),
      _ ) ->
    err "wrong argument sorts for '%s': got %s" name
      (String.concat " " (List.map sort_str sorts))
  | _ -> err "unknown string operator '%s'" name

let arrays name sorts =
  match (name, sorts) with
  | "select", [ Sort.Array (i, e); i' ] when Sort.equal i i' -> ok e
  | "select", _ ->
    err "the function 'select' expects an array and a matching index, got %s"
      (String.concat " " (List.map sort_str sorts))
  | "store", [ Sort.Array (i, e); i'; e' ] when Sort.equal i i' && Sort.equal e e' ->
    ok (Sort.Array (i, e))
  | "store", _ ->
    err "the function 'store' expects an array, a matching index and element, got %s"
      (String.concat " " (List.map sort_str sorts))
  | _ -> err "unknown array operator '%s'" name

let seq name sorts =
  match (name, sorts) with
  | "seq.unit", [ e ] -> ok (Sort.Seq e)
  | "seq.++", Sort.Seq e :: _ :: _ when List.for_all (Sort.equal (Sort.Seq e)) sorts ->
    ok (Sort.Seq e)
  | "seq.len", [ Sort.Seq _ ] -> ok Sort.Int
  | "seq.nth", [ Sort.Seq e; Sort.Int ] -> ok e
  | "seq.extract", [ Sort.Seq e; Sort.Int; Sort.Int ] -> ok (Sort.Seq e)
  | "seq.update", [ Sort.Seq e; Sort.Int; Sort.Seq e' ] when Sort.equal e e' ->
    ok (Sort.Seq e)
  | "seq.at", [ Sort.Seq e; Sort.Int ] -> ok (Sort.Seq e)
  | ("seq.contains" | "seq.prefixof" | "seq.suffixof"), [ Sort.Seq e; Sort.Seq e' ]
    when Sort.equal e e' ->
    ok Sort.Bool
  | "seq.indexof", [ Sort.Seq e; Sort.Seq e'; Sort.Int ] when Sort.equal e e' -> ok Sort.Int
  | "seq.replace", [ Sort.Seq e; Sort.Seq e'; Sort.Seq e'' ]
    when Sort.equal e e' && Sort.equal e e'' ->
    ok (Sort.Seq e)
  | "seq.rev", [ Sort.Seq e ] -> ok (Sort.Seq e)
  | ( ("seq.unit" | "seq.++" | "seq.len" | "seq.nth" | "seq.extract" | "seq.update"
      | "seq.at" | "seq.contains" | "seq.prefixof" | "seq.suffixof" | "seq.indexof"
      | "seq.replace" | "seq.rev"),
      _ ) ->
    err "wrong argument sorts for '%s': got %s" name
      (String.concat " " (List.map sort_str sorts))
  | _ -> err "unknown sequence operator '%s'" name

let tuple_arity = function Sort.Tuple ss -> Some (List.length ss) | _ -> None

let sets name sorts =
  match (name, sorts) with
  | "set.singleton", [ e ] -> ok (Sort.Set e)
  | "set.insert", args when List.length args >= 2 -> (
    match O4a_util.Listx.last args with
    | Sort.Set e
      when List.for_all (Sort.equal e) (O4a_util.Listx.init_segment args) ->
      ok (Sort.Set e)
    | _ ->
      err "the function 'set.insert' expects elements followed by a matching set, got %s"
        (String.concat " " (List.map sort_str sorts)))
  | ("set.union" | "set.inter" | "set.minus"), [ Sort.Set e; Sort.Set e' ]
    when Sort.equal e e' ->
    ok (Sort.Set e)
  | "set.member", [ e; Sort.Set e' ] when Sort.equal e e' -> ok Sort.Bool
  | "set.subset", [ Sort.Set e; Sort.Set e' ] when Sort.equal e e' -> ok Sort.Bool
  | "set.card", [ Sort.Set _ ] -> ok Sort.Int
  | "set.complement", [ Sort.Set e ] -> ok (Sort.Set e)
  | "set.choose", [ Sort.Set e ] -> ok e
  | "set.is_empty", [ Sort.Set _ ] -> ok Sort.Bool
  | "set.is_singleton", [ Sort.Set _ ] -> ok Sort.Bool
  | "rel.transpose", [ Sort.Set (Sort.Tuple ss) ] -> ok (Sort.Set (Sort.Tuple (List.rev ss)))
  | "rel.product", [ Sort.Set (Sort.Tuple a); Sort.Set (Sort.Tuple b) ] ->
    ok (Sort.Set (Sort.Tuple (a @ b)))
  | "rel.join", [ Sort.Set (Sort.Tuple a); Sort.Set (Sort.Tuple b) ] -> (
    (* Join requires non-nullary relations: last column of the left relation
       matches the first column of the right. *)
    match (List.rev a, b) with
    | last_a :: rest_a, first_b :: rest_b when Sort.equal last_a first_b ->
      ok (Sort.Set (Sort.Tuple (List.rev rest_a @ rest_b)))
    | [], _ | _, [] -> err "Join requires non-nullary relations"
    | _ ->
      err "the function 'rel.join' expects relations with a matching join column, got %s"
        (String.concat " " (List.map sort_str sorts)))
  | "tuple", args -> ok (Sort.Tuple args)
  | ( ("set.singleton" | "set.insert" | "set.union" | "set.inter" | "set.minus"
      | "set.member" | "set.subset" | "set.card" | "set.complement" | "set.choose"
      | "set.is_empty" | "set.is_singleton" | "rel.transpose" | "rel.product" | "rel.join"),
      _ ) ->
    err "wrong argument sorts for '%s': got %s%s" name
      (String.concat " " (List.map sort_str sorts))
      (if List.exists (fun s -> tuple_arity s = Some 0) sorts then
         " (nullary tuple)"
       else "")
  | _ -> err "unknown set operator '%s'" name

let bags name sorts =
  match (name, sorts) with
  | "bag", [ e; Sort.Int ] -> ok (Sort.Bag e)
  | ( ("bag.union_max" | "bag.union_disjoint" | "bag.inter_min"
      | "bag.difference_subtract" | "bag.difference_remove"),
      [ Sort.Bag e; Sort.Bag e' ] )
    when Sort.equal e e' ->
    ok (Sort.Bag e)
  | "bag.count", [ e; Sort.Bag e' ] when Sort.equal e e' -> ok Sort.Int
  | "bag.member", [ e; Sort.Bag e' ] when Sort.equal e e' -> ok Sort.Bool
  | "bag.card", [ Sort.Bag _ ] -> ok Sort.Int
  | "bag.setof", [ Sort.Bag e ] -> ok (Sort.Bag e)
  | "bag.subbag", [ Sort.Bag e; Sort.Bag e' ] when Sort.equal e e' -> ok Sort.Bool
  | "bag.choose", [ Sort.Bag e ] -> ok e
  | ( ("bag" | "bag.union_max" | "bag.union_disjoint" | "bag.inter_min"
      | "bag.difference_subtract" | "bag.difference_remove" | "bag.count" | "bag.member"
      | "bag.card" | "bag.setof" | "bag.subbag" | "bag.choose"),
      _ ) ->
    err "wrong argument sorts for '%s': got %s" name
      (String.concat " " (List.map sort_str sorts))
  | _ -> err "unknown bag operator '%s'" name

let finite_fields name sorts =
  match name with
  | "ff.add" | "ff.mul" | "ff.bitsum" ->
    if List.length sorts >= 2 then same_field name sorts
    else arity_error name "at least two" (List.length sorts)
  | "ff.neg" -> (
    match sorts with
    | [ Sort.Finite_field p ] -> ok (Sort.Finite_field p)
    | _ -> err "the function 'ff.neg' expects one finite-field argument")
  | _ -> err "unknown finite-field operator '%s'" name

let families =
  [
    ( (fun n ->
        List.mem n
          [ "not"; "and"; "or"; "xor"; "=>"; "="; "distinct"; "ite" ]),
      core );
    ( (fun n ->
        List.mem n
          [ "+"; "-"; "*"; "/"; "div"; "mod"; "abs"; "<"; "<="; ">"; ">="; "to_real";
            "to_int"; "is_int" ]),
      arith );
    ((fun n -> starts_with ~prefix:"bv" n || n = "concat" || n = "ubv_to_int"), bitvec);
    ( (fun n ->
        starts_with ~prefix:"str." n || starts_with ~prefix:"re." n),
      strings );
    ((fun n -> n = "select" || n = "store"), arrays);
    ((fun n -> starts_with ~prefix:"seq." n), seq);
    ( (fun n ->
        starts_with ~prefix:"set." n
        || starts_with ~prefix:"rel." n
        || n = "tuple"),
      sets );
    ((fun n -> starts_with ~prefix:"bag" n), bags);
    ((fun n -> starts_with ~prefix:"ff." n), finite_fields);
  ]

let app name sorts =
  let rec try_families = function
    | [] -> err "unknown constant or function symbol '%s'" name
    | (matches, check) :: rest -> if matches name then check name sorts else try_families rest
  in
  try_families families

(* ------------------------------------------------------------------ *)
(* Typecheck.check_script over declaration lists                      *)
(* ------------------------------------------------------------------ *)

type env = {
  vars : (string * Sort.t) list;  (** innermost bindings first *)
  funs : Script.fun_decl list;
  datatypes : Command.datatype_decl list;
}

let env_of_script script =
  {
    vars = [];
    funs = Script.declared_funs script;
    datatypes = Script.declared_datatypes script;
  }

let env_vars env =
  env.vars
  @ List.filter_map
      (fun (d : Script.fun_decl) ->
        if d.arg_sorts = [] then Some (d.name, d.result_sort) else None)
      env.funs

let add_var name sort env = { env with vars = (name, sort) :: env.vars }

let err fmt = Printf.ksprintf (fun m -> Error m) fmt

let find_fun env name = List.find_opt (fun (d : Script.fun_decl) -> d.name = name) env.funs

let find_ctor env name =
  List.find_map
    (fun (dt : Command.datatype_decl) ->
      List.find_map
        (fun (c : Command.constructor) ->
          if c.ctor_name = name then Some (dt, c) else None)
        dt.constructors)
    env.datatypes

let rec sequence_results = function
  | [] -> Ok []
  | Error e :: _ -> Error e
  | Ok x :: rest -> (
    match sequence_results rest with Ok xs -> Ok (x :: xs) | Error e -> Error e)

(* [on_app] sees every plain application the checker hands to [app], with
   its argument sorts *)
let rec infer ?(allow_placeholders = false) ?(on_app = fun _ _ -> ()) env term =
  let infer_sub = infer ~allow_placeholders ~on_app in
  match term with
  | Term.Const (Term.Bool_lit _) -> Ok Sort.Bool
  | Term.Const (Term.Int_lit _) -> Ok Sort.Int
  | Term.Const (Term.Real_lit _) -> Ok Sort.Real
  | Term.Const (Term.Bv_lit { width; _ }) -> Ok (Sort.Bitvec width)
  | Term.Const (Term.String_lit _) -> Ok Sort.String_sort
  | Term.Const (Term.Ff_lit { order; _ }) -> Ok (Sort.Finite_field order)
  | Term.Placeholder _ ->
    if allow_placeholders then Ok Sort.Bool
    else err "unfilled placeholder in term"
  | Term.Var name -> (
    match List.assoc_opt name env.vars with
    | Some sort -> Ok sort
    | None -> (
      match find_fun env name with
      | Some d when d.arg_sorts = [] -> Ok d.result_sort
      | Some d ->
        err "symbol '%s' expects %d arguments but is used as a constant" name
          (List.length d.arg_sorts)
      | None -> (
        match Signature.nullary name with
        | Some sort -> Ok sort
        | None -> err "unknown constant or function symbol '%s'" name)))
  | Term.App (name, args) -> (
    match sequence_results (List.map (infer_sub env) args) with
    | Error e -> Error e
    | Ok arg_sorts -> (
      match find_fun env name with
      | Some d ->
        if List.length d.arg_sorts <> List.length arg_sorts then
          err "the function '%s' expects %d arguments, got %d" name
            (List.length d.arg_sorts) (List.length arg_sorts)
        else if List.for_all2 Sort.equal d.arg_sorts arg_sorts then Ok d.result_sort
        else
          err "wrong argument sorts for '%s': expected (%s), got (%s)" name
            (String.concat " " (List.map Sort.to_string d.arg_sorts))
            (String.concat " " (List.map Sort.to_string arg_sorts))
      | None ->
        on_app name arg_sorts;
        app name arg_sorts))
  | Term.Indexed_app ("is", [ Term.Idx_sym ctor ], args) -> (
    match sequence_results (List.map (infer_sub env) args) with
    | Error e -> Error e
    | Ok [ Sort.Datatype dt_name ] -> (
      match find_ctor env ctor with
      | Some (dt, _) when dt.dt_name = dt_name -> Ok Sort.Bool
      | Some (dt, _) ->
        err "tester '(_ is %s)' applied to datatype %s but %s belongs to %s" ctor dt_name
          ctor dt.dt_name
      | None -> err "unknown constructor '%s' in tester" ctor)
    | Ok sorts ->
      err "tester '(_ is %s)' expects one datatype argument, got %s" ctor
        (String.concat " " (List.map Sort.to_string sorts)))
  | Term.Indexed_app (name, idxs, args) -> (
    match sequence_results (List.map (infer_sub env) args) with
    | Error e -> Error e
    | Ok arg_sorts -> Signature.indexed name idxs arg_sorts)
  | Term.Qual (name, sort) -> (
    match Signature.qual name sort [] with
    | Ok s -> Ok s
    | Error _ -> (
      (* (as ctor Datatype) qualifications *)
      match find_ctor env name with
      | Some (dt, c) when Sort.equal sort (Sort.Datatype dt.dt_name) && c.selectors = [] ->
        Ok sort
      | _ -> Signature.qual name sort []))
  | Term.Qual_app (name, sort, args) -> (
    match sequence_results (List.map (infer_sub env) args) with
    | Error e -> Error e
    | Ok arg_sorts -> Signature.qual name sort arg_sorts)
  | Term.Let (bindings, body) -> (
    let binding_results =
      List.map (fun (name, value) -> (name, infer_sub env value)) bindings
    in
    match
      sequence_results
        (List.map (fun (name, r) -> Result.map (fun s -> (name, s)) r) binding_results)
    with
    | Error e -> Error e
    | Ok bound ->
      let env' = List.fold_left (fun acc (n, s) -> add_var n s acc) env bound in
      infer_sub env' body)
  | Term.Forall (binders, body) | Term.Exists (binders, body) -> (
    let env' = List.fold_left (fun acc (n, s) -> add_var n s acc) env binders in
    match infer_sub env' body with
    | Ok Sort.Bool -> Ok Sort.Bool
    | Ok other ->
      err "quantified body must be Bool, got %s" (Sort.to_string other)
    | Error e -> Error e)
  | Term.Annot (body, _) -> infer_sub env body
  | Term.Match (scrutinee, cases) -> (
    match infer_sub env scrutinee with
    | Error e -> Error e
    | Ok (Sort.Datatype dt_name) -> (
      let dt =
        List.find_opt
          (fun (d : Command.datatype_decl) -> d.Command.dt_name = dt_name)
          env.datatypes
      in
      match dt with
      | None -> err "unknown datatype '%s' in match" dt_name
      | Some dt -> (
        (* check each case under its pattern bindings *)
        let case_sort (pattern, body) =
          match pattern with
          | Term.P_wildcard -> infer_sub env body
          | Term.P_var name ->
            infer_sub (add_var name (Sort.Datatype dt_name) env) body
          | Term.P_ctor (ctor, binders) -> (
            match
              List.find_opt
                (fun (c : Command.constructor) -> c.Command.ctor_name = ctor)
                dt.Command.constructors
            with
            | None -> err "constructor '%s' does not belong to datatype %s" ctor dt_name
            | Some c ->
              if List.length binders <> List.length c.Command.selectors then
                err "pattern '%s' expects %d binders, got %d" ctor
                  (List.length c.Command.selectors) (List.length binders)
              else (
                let env' =
                  List.fold_left2
                    (fun e b (_, s) -> add_var b s e)
                    env binders c.Command.selectors
                in
                infer_sub env' body))
        in
        match sequence_results (List.map case_sort cases) with
        | Error e -> Error e
        | Ok [] -> err "match with no cases"
        | Ok (first :: rest) ->
          if not (List.for_all (Sort.equal first) rest) then
            err "match cases disagree on the result sort"
          else (
            (* exhaustiveness: a catch-all/wildcard, or every constructor *)
            let has_catch_all =
              List.exists
                (fun (p, _) ->
                  match p with
                  | Term.P_var _ | Term.P_wildcard -> true
                  | Term.P_ctor _ -> false)
                cases
            in
            let covered c =
              List.exists
                (fun (p, _) ->
                  match p with Term.P_ctor (name, _) -> name = c | _ -> false)
                cases
            in
            if
              has_catch_all
              || List.for_all
                   (fun (c : Command.constructor) -> covered c.Command.ctor_name)
                   dt.Command.constructors
            then Ok first
            else err "match is not exhaustive for datatype %s" dt_name)))
    | Ok other -> err "match scrutinee must be a datatype, got %s" (Sort.to_string other))

let check_bool ?(allow_placeholders = false) ?on_app env term =
  match infer ~allow_placeholders ?on_app env term with
  | Ok Sort.Bool -> Ok ()
  | Ok other -> err "expected a term of sort Bool, got %s" (Sort.to_string other)
  | Error e -> Error e

let check_script ?(allow_placeholders = false) ?on_app script =
  let check_cmd (env, seen_names) cmd =
    let declare names k =
      match List.find_opt (fun n -> List.mem n seen_names) names with
      | Some dup -> Error (Printf.sprintf "symbol '%s' is already declared" dup)
      | None -> k (names @ seen_names)
    in
    match cmd with
    | Command.Declare_fun (name, _, _) | Command.Declare_const (name, _) ->
      declare [ name ] (fun seen -> Ok (env, seen))
    | Command.Define_fun (name, params, result_sort, body) ->
      declare [ name ] (fun seen ->
          let env' = List.fold_left (fun acc (n, s) -> add_var n s acc) env params in
          match infer ~allow_placeholders ?on_app env' body with
          | Ok s when Sort.equal s result_sort -> Ok (env, seen)
          | Ok s ->
            err "define-fun '%s' body has sort %s but %s was declared" name
              (Sort.to_string s) (Sort.to_string result_sort)
          | Error e -> Error e)
    | Command.Declare_datatypes dts ->
      let names =
        List.concat_map
          (fun (dt : Command.datatype_decl) ->
            dt.dt_name
            :: List.concat_map
                 (fun (c : Command.constructor) ->
                   c.ctor_name :: List.map fst c.selectors)
                 dt.constructors)
          dts
      in
      declare names (fun seen -> Ok (env, seen))
    | Command.Declare_sort (name, arity) ->
      if arity <> 0 then err "only arity-0 declared sorts are supported, '%s' has %d" name arity
      else declare [ name ] (fun seen -> Ok (env, seen))
    | Command.Assert body -> (
      match check_bool ~allow_placeholders ?on_app env body with
      | Ok () -> Ok (env, seen_names)
      | Error e -> Error e)
    | Command.Get_value terms -> (
      match sequence_results (List.map (infer ~allow_placeholders ?on_app env) terms) with
      | Ok _ -> Ok (env, seen_names)
      | Error e -> Error e)
    | Command.Set_logic _ | Command.Set_option _ | Command.Set_info _
    | Command.Check_sat | Command.Get_model | Command.Push _ | Command.Pop _
    | Command.Echo _ | Command.Exit ->
      Ok (env, seen_names)
  in
  (* Each command sees every declaration up to and including its own: the
     env grows by each command's declarations, appended in script order so
     that [find_fun] still takes the first match. *)
  let extend env cmd =
    match (Script.declared_funs [ cmd ], Script.declared_datatypes [ cmd ]) with
    | [], [] -> env
    | funs, datatypes ->
      { env with funs = env.funs @ funs; datatypes = env.datatypes @ datatypes }
  in
  let rec go env remaining seen_names =
    match remaining with
    | [] -> Ok ()
    | cmd :: rest -> (
      let env = extend env cmd in
      match check_cmd (env, seen_names) cmd with
      | Ok (_, seen') -> go env rest seen'
      | Error e -> Error e)
  in
  go (env_of_script []) script []

(* ------------------------------------------------------------------ *)
(* Engine.parse_check                                                 *)
(* ------------------------------------------------------------------ *)

module Coverage = O4a_coverage.Coverage
module Engine = Solver.Engine
module Bug_db = Solver.Bug_db

(* operator prefixes a solver does not implement, as [Engine] tests them *)
let unsupported_symbol tag script =
  let banned_prefixes =
    match tag with
    | Coverage.Zeal -> [ "set."; "rel."; "bag"; "ff."; "tuple" ]
    | Coverage.Cove -> []
  in
  if banned_prefixes = [] then None
  else (
    let bad name = List.exists (fun p -> starts_with ~prefix:p name) banned_prefixes in
    let found = ref None in
    let check_term term =
      ignore
        (Term.fold
           (fun () node ->
             (match node with
             | Term.App (n, _) | Term.Indexed_app (n, _, _)
             | Term.Qual (n, _) | Term.Qual_app (n, _, _) ->
               if bad n && !found = None then found := Some n
             | _ -> ());
             ())
           () term)
    in
    List.iter check_term (Script.assertions script);
    let bad_sort s =
      let rec go = function
        | Sort.Set _ | Sort.Bag _ | Sort.Finite_field _ | Sort.Tuple _ -> true
        | Sort.Seq s' -> go s'
        | Sort.Array (i, e) -> go i || go e
        | _ -> false
      in
      go s
    in
    (match !found with
    | None ->
      if
        List.exists
          (fun (d : Script.fun_decl) ->
            List.exists bad_sort (d.result_sort :: d.arg_sorts))
          (Script.declared_funs script)
        && tag = Coverage.Zeal
      then found := Some "unsupported sort"
    | Some _ -> ());
    !found)

(* [Engine.parse_check engine] with the reference's lexer and sort checker:
   the reference lexer decides the lexical errors and the library's
   elaboration the rest of the parse; an active type-check-escape bug still
   masks a rejection *)
let parse_check engine source =
  match read_sexps source with
  | exception Lex_error m -> Error ("parse error: " ^ m)
  | _ -> (
    match Parser.parse_script source with
    | Error e -> Error (Parser.error_message e)
    | Ok script -> (
      match unsupported_symbol (Engine.tag engine) script with
      | Some sym -> Error (Printf.sprintf "unknown constant or function symbol '%s'" sym)
      | None -> (
        match check_script script with
        | Ok () -> Ok script
        | Error msg ->
          let index = Solver.Formula.index (Solver.Formula.of_script script) in
          let bugs =
            if Engine.is_pure engine then []
            else Bug_db.active ~solver:(Engine.tag engine) ~commit:(Engine.commit engine)
          in
          if List.exists (fun (b : Bug_db.spec) -> b.Bug_db.pre_check && Bug_db.fires_index b index) bugs
          then Ok script
          else Error msg)))
