type error = { message : string }

let error_message e = e.message

let fail fmt = Printf.ksprintf (fun msg -> failwith msg) fmt

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

let atom_text = Lexer.atom_to_string

let sexp_brief sexp =
  let rec go = function
    | Lexer.Atom a -> atom_text a
    | Lexer.List xs -> "(" ^ String.concat " " (List.map go xs) ^ ")"
  in
  O4a_util.Strx.truncate_mid 60 (go sexp)

(* ------------------------------------------------------------------ *)
(* Sorts                                                              *)
(* ------------------------------------------------------------------ *)

let rec sort_of_sexp ~datatypes sexp =
  match sexp with
  | Lexer.Atom (Lexer.Sym "Bool") -> Sort.Bool
  | Lexer.Atom (Lexer.Sym "Int") -> Sort.Int
  | Lexer.Atom (Lexer.Sym "Real") -> Sort.Real
  | Lexer.Atom (Lexer.Sym "String") -> Sort.String_sort
  | Lexer.Atom (Lexer.Sym "RegLan") -> Sort.Reglan
  | Lexer.Atom (Lexer.Sym "UnitTuple") -> Sort.Tuple []
  | Lexer.Atom (Lexer.Sym name) ->
    if List.mem name datatypes then Sort.Datatype name else Sort.Uninterpreted name
  | Lexer.List [ Lexer.Atom (Lexer.Sym "_"); Lexer.Atom (Lexer.Sym "BitVec"); Lexer.Atom (Lexer.Num n) ] ->
    let width = int_of_string n in
    if width < 1 then fail "invalid bit-vector width %d" width;
    Sort.Bitvec width
  | Lexer.List
      [ Lexer.Atom (Lexer.Sym "_"); Lexer.Atom (Lexer.Sym "FiniteField"); Lexer.Atom (Lexer.Num p) ] ->
    let order = int_of_string p in
    if order < 2 then fail "invalid finite-field order %d" order;
    Sort.Finite_field order
  | Lexer.List [ Lexer.Atom (Lexer.Sym "Seq"); elt ] -> Sort.Seq (sort_of_sexp ~datatypes elt)
  | Lexer.List [ Lexer.Atom (Lexer.Sym "Set"); elt ] -> Sort.Set (sort_of_sexp ~datatypes elt)
  | Lexer.List [ Lexer.Atom (Lexer.Sym "Bag"); elt ] -> Sort.Bag (sort_of_sexp ~datatypes elt)
  | Lexer.List [ Lexer.Atom (Lexer.Sym "Array"); idx; elt ] ->
    Sort.Array (sort_of_sexp ~datatypes idx, sort_of_sexp ~datatypes elt)
  | Lexer.List (Lexer.Atom (Lexer.Sym "Tuple") :: elts) ->
    Sort.Tuple (List.map (sort_of_sexp ~datatypes) elts)
  | Lexer.List (Lexer.Atom (Lexer.Sym "Relation") :: elts) ->
    (* cvc5 sugar: (Relation s1 ... sn) = (Set (Tuple s1 ... sn)) *)
    Sort.Set (Sort.Tuple (List.map (sort_of_sexp ~datatypes) elts))
  | other -> fail "expected sort, got '%s'" (sexp_brief other)

(* ------------------------------------------------------------------ *)
(* Terms                                                              *)
(* ------------------------------------------------------------------ *)

let decimal_to_rational text =
  match String.index_opt text '.' with
  | None -> (int_of_string text, 1)
  | Some dot ->
    let whole = String.sub text 0 dot in
    let frac = String.sub text (dot + 1) (String.length text - dot - 1) in
    let denom = int_of_float (10. ** float_of_int (String.length frac)) in
    let numer = (int_of_string whole * denom) + int_of_string frac in
    let g = gcd numer denom in
    if g = 0 then (0, 1) else (numer / g, denom / g)

let hex_to_bv body =
  let width = 4 * String.length body in
  (width, int_of_string ("0x" ^ body))

let bin_to_bv body =
  let width = String.length body in
  (width, int_of_string ("0b" ^ body))

let index_of_sexp = function
  | Lexer.Atom (Lexer.Num n) -> Term.Idx_num (int_of_string n)
  | Lexer.Atom (Lexer.Sym s) -> Term.Idx_sym s
  | Lexer.Atom (Lexer.Hex h) -> Term.Idx_sym ("#x" ^ h)
  | other -> fail "expected index, got '%s'" (sexp_brief other)

let is_ff_value name =
  String.length name > 2
  && name.[0] = 'f'
  && name.[1] = 'f'
  && String.for_all (fun c -> c >= '0' && c <= '9') (String.sub name 2 (String.length name - 2))

(* [holes] numbers placeholders left to right across one parse *)
let term_with ~holes ?(ctors = []) ~datatypes sexp =
  let sort = sort_of_sexp ~datatypes in
  let rec term sexp =
    match sexp with
    | Lexer.Atom (Lexer.Sym "true") -> Term.tru
    | Lexer.Atom (Lexer.Sym "false") -> Term.fls
    | Lexer.Atom (Lexer.Sym "<placeholder>") ->
      let n = !holes in
      incr holes;
      Term.Placeholder n
    | Lexer.Atom (Lexer.Sym name) -> Term.Var name
    | Lexer.Atom (Lexer.Num n) -> Term.int (int_of_string n)
    | Lexer.Atom (Lexer.Dec d) ->
      let p, q = decimal_to_rational d in
      Term.real p q
    | Lexer.Atom (Lexer.Hex h) ->
      let width, value = hex_to_bv h in
      Term.bv ~width value
    | Lexer.Atom (Lexer.Bin b) ->
      let width, value = bin_to_bv b in
      Term.bv ~width value
    | Lexer.Atom (Lexer.Str s) -> Term.str s
    | Lexer.Atom (Lexer.Kw k) -> fail "unexpected keyword ':%s' in term position" k
    | Lexer.List [] -> fail "empty application '()'"
    | Lexer.List (Lexer.Atom (Lexer.Sym "_") :: Lexer.Atom (Lexer.Sym name) :: idxs) ->
      Term.Indexed_app (name, List.map index_of_sexp idxs, [])
    | Lexer.List [ Lexer.Atom (Lexer.Sym "as"); Lexer.Atom (Lexer.Sym name); sort_sexp ] -> (
      let s = sort sort_sexp in
      match s with
      | Sort.Finite_field order when is_ff_value name ->
        let value = int_of_string (String.sub name 2 (String.length name - 2)) in
        Term.ff ~order value
      | _ -> Term.Qual (name, s))
    | Lexer.List (Lexer.List [ Lexer.Atom (Lexer.Sym "as"); Lexer.Atom (Lexer.Sym name); sort_sexp ] :: args) ->
      Term.Qual_app (name, sort sort_sexp, List.map term args)
    | Lexer.List (Lexer.List (Lexer.Atom (Lexer.Sym "_") :: Lexer.Atom (Lexer.Sym name) :: idxs) :: args) ->
      Term.Indexed_app (name, List.map index_of_sexp idxs, List.map term args)
    | Lexer.List [ Lexer.Atom (Lexer.Sym "let"); Lexer.List bindings; body ] ->
      let binding = function
        | Lexer.List [ Lexer.Atom (Lexer.Sym name); value ] -> (name, term value)
        | other -> fail "malformed let binding '%s'" (sexp_brief other)
      in
      Term.Let (List.map binding bindings, term body)
    | Lexer.List [ Lexer.Atom (Lexer.Sym (("forall" | "exists") as quant)); Lexer.List binders; body ] ->
      let binder = function
        | Lexer.List [ Lexer.Atom (Lexer.Sym name); sort_sexp ] -> (name, sort sort_sexp)
        | other -> fail "malformed quantifier binder '%s'" (sexp_brief other)
      in
      let bs = List.map binder binders in
      if bs = [] then fail "quantifier with no bound variables";
      if quant = "forall" then Term.Forall (bs, term body) else Term.Exists (bs, term body)
    | Lexer.List [ Lexer.Atom (Lexer.Sym "match"); scrutinee; Lexer.List cases ] ->
      let parse_pattern = function
        | Lexer.Atom (Lexer.Sym "_") -> Term.P_wildcard
        | Lexer.Atom (Lexer.Sym s) ->
          if List.mem s ctors then Term.P_ctor (s, []) else Term.P_var s
        | Lexer.List (Lexer.Atom (Lexer.Sym c) :: binders) ->
          let binder = function
            | Lexer.Atom (Lexer.Sym b) -> b
            | other -> fail "malformed match binder '%s'" (sexp_brief other)
          in
          Term.P_ctor (c, List.map binder binders)
        | other -> fail "malformed match pattern '%s'" (sexp_brief other)
      in
      let parse_case = function
        | Lexer.List [ pattern; body ] -> (parse_pattern pattern, term body)
        | other -> fail "malformed match case '%s'" (sexp_brief other)
      in
      if cases = [] then fail "match with no cases";
      Term.Match (term scrutinee, List.map parse_case cases)
    | Lexer.List (Lexer.Atom (Lexer.Sym "!") :: body :: attrs) ->
      let rec parse_attrs = function
        | [] -> []
        | Lexer.Atom (Lexer.Kw k) :: Lexer.Atom v :: rest when not (is_kw_atom v) ->
          (k, Some (atom_text v)) :: parse_attrs rest
        | Lexer.Atom (Lexer.Kw k) :: rest -> (k, None) :: parse_attrs rest
        | other :: _ -> fail "malformed attribute '%s'" (sexp_brief other)
      in
      Term.Annot (term body, parse_attrs attrs)
    | Lexer.List (Lexer.Atom (Lexer.Sym name) :: args) -> (
      match (name, List.map term args) with
      (* fold unary minus on literals, as solver frontends do *)
      | "-", [ Term.Const (Term.Int_lit n) ] -> Term.int (-n)
      | "-", [ Term.Const (Term.Real_lit (p, q)) ] -> Term.real (-p) q
      | _, ts -> Term.App (name, ts))
    | other -> fail "cannot parse term '%s'" (sexp_brief other)
  and is_kw_atom = function Lexer.Kw _ -> true | _ -> false in
  term sexp

let term_of_sexp ?ctors ~datatypes sexp = term_with ~holes:(ref 0) ?ctors ~datatypes sexp

(* ------------------------------------------------------------------ *)
(* Commands                                                           *)
(* ------------------------------------------------------------------ *)

let command_of_sexp ~holes ~ctors ~datatypes sexp =
  let sort = sort_of_sexp ~datatypes in
  let term = term_with ~holes ~ctors ~datatypes in
  match sexp with
  | Lexer.List [ Lexer.Atom (Lexer.Sym "set-logic"); Lexer.Atom (Lexer.Sym logic) ] ->
    Command.Set_logic logic
  | Lexer.List [ Lexer.Atom (Lexer.Sym "set-option"); Lexer.Atom (Lexer.Kw key); Lexer.Atom value ] ->
    Command.Set_option (key, atom_text value)
  | Lexer.List [ Lexer.Atom (Lexer.Sym "set-info"); Lexer.Atom (Lexer.Kw key); Lexer.Atom value ] ->
    Command.Set_info (key, atom_text value)
  | Lexer.List [ Lexer.Atom (Lexer.Sym "declare-sort"); Lexer.Atom (Lexer.Sym name); Lexer.Atom (Lexer.Num n) ] ->
    Command.Declare_sort (name, int_of_string n)
  | Lexer.List [ Lexer.Atom (Lexer.Sym "declare-fun"); Lexer.Atom (Lexer.Sym name); Lexer.List args; result ] ->
    Command.Declare_fun (name, List.map sort args, sort result)
  | Lexer.List [ Lexer.Atom (Lexer.Sym "declare-const"); Lexer.Atom (Lexer.Sym name); result ] ->
    Command.Declare_const (name, sort result)
  | Lexer.List [ Lexer.Atom (Lexer.Sym "define-fun"); Lexer.Atom (Lexer.Sym name); Lexer.List params; result; body ] ->
    let param = function
      | Lexer.List [ Lexer.Atom (Lexer.Sym p); s ] -> (p, sort s)
      | other -> fail "malformed parameter '%s'" (sexp_brief other)
    in
    Command.Define_fun (name, List.map param params, sort result, term body)
  | Lexer.List [ Lexer.Atom (Lexer.Sym "declare-datatypes"); Lexer.List sort_decls; Lexer.List ctor_lists ] ->
    let names =
      List.map
        (function
          | Lexer.List [ Lexer.Atom (Lexer.Sym name); Lexer.Atom (Lexer.Num "0") ] -> name
          | other -> fail "unsupported datatype declaration '%s' (only arity 0)" (sexp_brief other))
        sort_decls
    in
    let datatypes = names @ datatypes in
    let sort = sort_of_sexp ~datatypes in
    let ctor = function
      | Lexer.List (Lexer.Atom (Lexer.Sym cname) :: sels) ->
        let sel = function
          | Lexer.List [ Lexer.Atom (Lexer.Sym sname); s ] -> (sname, sort s)
          | other -> fail "malformed selector '%s'" (sexp_brief other)
        in
        { Command.ctor_name = cname; selectors = List.map sel sels }
      | Lexer.Atom (Lexer.Sym cname) -> { Command.ctor_name = cname; selectors = [] }
      | other -> fail "malformed constructor '%s'" (sexp_brief other)
    in
    if List.length ctor_lists <> List.length names then
      fail "declare-datatypes declares %d sorts but defines %d"
        (List.length names) (List.length ctor_lists);
    let decls =
      List.map2
        (fun name ctors_sexp ->
          match ctors_sexp with
          | Lexer.List ctors -> { Command.dt_name = name; constructors = List.map ctor ctors }
          | other -> fail "malformed constructor list '%s'" (sexp_brief other))
        names ctor_lists
    in
    Command.Declare_datatypes decls
  | Lexer.List [ Lexer.Atom (Lexer.Sym "assert"); body ] -> Command.Assert (term body)
  | Lexer.List [ Lexer.Atom (Lexer.Sym "check-sat") ] -> Command.Check_sat
  | Lexer.List [ Lexer.Atom (Lexer.Sym "get-model") ] -> Command.Get_model
  | Lexer.List [ Lexer.Atom (Lexer.Sym "get-value"); Lexer.List terms ] ->
    Command.Get_value (List.map term terms)
  | Lexer.List [ Lexer.Atom (Lexer.Sym "push") ] -> Command.Push 1
  | Lexer.List [ Lexer.Atom (Lexer.Sym "push"); Lexer.Atom (Lexer.Num n) ] ->
    Command.Push (int_of_string n)
  | Lexer.List [ Lexer.Atom (Lexer.Sym "pop") ] -> Command.Pop 1
  | Lexer.List [ Lexer.Atom (Lexer.Sym "pop"); Lexer.Atom (Lexer.Num n) ] ->
    Command.Pop (int_of_string n)
  | Lexer.List [ Lexer.Atom (Lexer.Sym "echo"); Lexer.Atom (Lexer.Str s) ] -> Command.Echo s
  | Lexer.List [ Lexer.Atom (Lexer.Sym "exit") ] -> Command.Exit
  | Lexer.List (Lexer.Atom (Lexer.Sym cmd) :: _) -> fail "unknown or malformed command '%s'" cmd
  | other -> fail "expected command, got '%s'" (sexp_brief other)

let wrap f =
  match f () with
  | value -> Ok value
  | exception Failure msg -> Error { message = "parse error: " ^ msg }
  | exception Lexer.Lex_error msg -> Error { message = "parse error: " ^ msg }

let parse_script input =
  wrap (fun () ->
      let sexps = Lexer.read_sexps input in
      let holes = ref 0 in
      let _, commands =
        List.fold_left
          (fun ((datatypes, ctors), acc) sexp ->
            let cmd = command_of_sexp ~holes ~ctors ~datatypes sexp in
            let context' =
              match cmd with
              | Command.Declare_datatypes dts ->
                ( List.map (fun (d : Command.datatype_decl) -> d.dt_name) dts @ datatypes,
                  List.concat_map
                    (fun (d : Command.datatype_decl) ->
                      List.map
                        (fun (c : Command.constructor) -> c.ctor_name)
                        d.constructors)
                    dts
                  @ ctors )
              | _ -> (datatypes, ctors)
            in
            (context', cmd :: acc))
          (([], []), []) sexps
      in
      List.rev commands)

let parse_term ?(datatypes = []) ?(ctors = []) input =
  wrap (fun () ->
      match Lexer.read_sexps input with
      | [ sexp ] -> term_of_sexp ~ctors ~datatypes sexp
      | [] -> fail "empty input where a term was expected"
      | _ -> fail "expected a single term, got multiple S-expressions")

let parse_sort ?(datatypes = []) input =
  wrap (fun () ->
      match Lexer.read_sexps input with
      | [ sexp ] -> sort_of_sexp ~datatypes sexp
      | _ -> fail "expected a single sort")
