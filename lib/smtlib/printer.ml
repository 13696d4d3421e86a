let index = function
  | Term.Idx_num n -> string_of_int n
  | Term.Idx_sym s -> s

(* Every node writes into one buffer. *)
let str = Buffer.add_string
let chr = Buffer.add_char

(* [xs] separated by single spaces, as [String.concat " "] joins them *)
let rec sep_by b f = function
  | [] -> ()
  | [ x ] -> f b x
  | x :: rest ->
    f b x;
    chr b ' ';
    sep_by b f rest

let add_sort b s = str b (Sort.to_string s)
let add_index b i = str b (index i)
let add_binder b (name, sort) = chr b '('; str b name; chr b ' '; add_sort b sort; chr b ')'

let add_attr b (key, value) =
  chr b ':';
  str b key;
  match value with Some v -> chr b ' '; str b v | None -> ()

let add_pattern b = function
  | Term.P_ctor (name, []) | Term.P_var name -> str b name
  | Term.P_ctor (ctor, binders) -> chr b '('; str b ctor; chr b ' '; sep_by b str binders; chr b ')'
  | Term.P_wildcard -> chr b '_'

let rec add_term b t =
  match t with
  | Term.Const c -> str b (Term.const_to_string c)
  | Term.Var name | Term.App (name, []) -> str b name
  | Term.App (name, args) -> chr b '('; str b name; chr b ' '; sep_by b add_term args; chr b ')'
  | Term.Indexed_app (name, idxs, []) ->
    str b "(_ "; str b name; chr b ' '; sep_by b add_index idxs; chr b ')'
  | Term.Indexed_app (name, idxs, args) ->
    str b "((_ "; str b name; chr b ' '; sep_by b add_index idxs; str b ") ";
    sep_by b add_term args; chr b ')'
  | Term.Qual (name, sort) -> str b "(as "; str b name; chr b ' '; add_sort b sort; chr b ')'
  | Term.Qual_app (name, sort, args) ->
    str b "((as "; str b name; chr b ' '; add_sort b sort; str b ") ";
    sep_by b add_term args; chr b ')'
  | Term.Let (bindings, body) ->
    str b "(let ("; sep_by b add_binding bindings; str b ") "; add_term b body; chr b ')'
  | Term.Forall (binders, body) -> add_quantifier b "(forall (" binders body
  | Term.Exists (binders, body) -> add_quantifier b "(exists (" binders body
  | Term.Annot (body, attrs) ->
    str b "(! "; add_term b body; chr b ' '; sep_by b add_attr attrs; chr b ')'
  | Term.Match (scrutinee, cases) ->
    str b "(match "; add_term b scrutinee; str b " ("; sep_by b add_case cases; str b "))"
  | Term.Placeholder _ -> str b "<placeholder>"

and add_binding b (name, value) = chr b '('; str b name; chr b ' '; add_term b value; chr b ')'

and add_quantifier b opening binders body =
  str b opening; sep_by b add_binder binders; str b ") "; add_term b body; chr b ')'

and add_case b (pattern, body) =
  chr b '('; add_pattern b pattern; chr b ' '; add_term b body; chr b ')'

let add_constructor b (c : Command.constructor) =
  chr b '(';
  str b c.ctor_name;
  if c.selectors <> [] then (chr b ' '; sep_by b add_binder c.selectors);
  chr b ')'

let add_datatype b (d : Command.datatype_decl) =
  chr b '('; sep_by b add_constructor d.constructors; chr b ')'

let add_command b cmd =
  match cmd with
  | Command.Declare_fun (name, args, result) ->
    str b "(declare-fun "; str b name; str b " ("; sep_by b add_sort args; str b ") ";
    add_sort b result; chr b ')'
  | Command.Declare_const (name, sort) ->
    str b "(declare-const "; str b name; chr b ' '; add_sort b sort; chr b ')'
  | Command.Define_fun (name, params, result, body) ->
    str b "(define-fun "; str b name; str b " ("; sep_by b add_binder params; str b ") ";
    add_sort b result; chr b ' '; add_term b body; chr b ')'
  | Command.Declare_datatypes decls ->
    str b "(declare-datatypes (";
    sep_by b (fun b (d : Command.datatype_decl) -> Printf.bprintf b "(%s 0)" d.dt_name) decls;
    str b ") ("; sep_by b add_datatype decls; str b "))"
  | Command.Assert t -> str b "(assert "; add_term b t; chr b ')'
  | Command.Check_sat -> str b "(check-sat)"
  | Command.Get_model -> str b "(get-model)"
  | Command.Get_value ts -> str b "(get-value ("; sep_by b add_term ts; str b "))"
  | Command.Set_logic logic -> Printf.bprintf b "(set-logic %s)" logic
  | Command.Set_option (key, value) -> Printf.bprintf b "(set-option :%s %s)" key value
  | Command.Set_info (key, value) -> Printf.bprintf b "(set-info :%s %s)" key value
  | Command.Declare_sort (name, arity) -> Printf.bprintf b "(declare-sort %s %d)" name arity
  | Command.Push n -> Printf.bprintf b "(push %d)" n
  | Command.Pop n -> Printf.bprintf b "(pop %d)" n
  | Command.Echo s -> Printf.bprintf b "(echo \"%s\")" (O4a_util.Strx.escape_smt_string s)
  | Command.Exit -> str b "(exit)"

let term t =
  let b = Buffer.create 256 in
  add_term b t;
  Buffer.contents b

let command cmd =
  let b = Buffer.create 256 in
  add_command b cmd;
  Buffer.contents b

let script commands =
  let b = Buffer.create 2048 in
  List.iteri (fun i cmd -> if i > 0 then chr b '\n'; add_command b cmd) commands;
  Buffer.contents b

let model_binding name arg_sorts result_sort body =
  let params =
    List.mapi (fun i s -> Printf.sprintf "(x!%d %s)" i (Sort.to_string s)) arg_sorts
  in
  Printf.sprintf "(define-fun %s (%s) %s %s)" name (String.concat " " params)
    (Sort.to_string result_sort) body
