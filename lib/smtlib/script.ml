type t = Command.t list

type fun_decl = {
  name : string;
  arg_sorts : Sort.t list;
  result_sort : Sort.t;
}

let datatype_fun_decls (dt : Command.datatype_decl) =
  let dt_sort = Sort.Datatype dt.dt_name in
  List.concat_map
    (fun (c : Command.constructor) ->
      let ctor =
        { name = c.ctor_name; arg_sorts = List.map snd c.selectors; result_sort = dt_sort }
      in
      let selectors =
        List.map
          (fun (sel_name, sel_sort) ->
            { name = sel_name; arg_sorts = [ dt_sort ]; result_sort = sel_sort })
          c.selectors
      in
      let tester =
        { name = "is-" ^ c.ctor_name; arg_sorts = [ dt_sort ]; result_sort = Sort.Bool }
      in
      (ctor :: selectors) @ [ tester ])
    dt.constructors

let declared_funs script =
  List.concat_map
    (fun cmd ->
      match cmd with
      | Command.Declare_fun (name, arg_sorts, result_sort) ->
        [ { name; arg_sorts; result_sort } ]
      | Command.Declare_const (name, sort) ->
        [ { name; arg_sorts = []; result_sort = sort } ]
      | Command.Define_fun (name, params, result_sort, _) ->
        [ { name; arg_sorts = List.map snd params; result_sort } ]
      | Command.Declare_datatypes dts -> List.concat_map datatype_fun_decls dts
      | Command.Set_logic _ | Command.Set_option _ | Command.Set_info _
      | Command.Declare_sort _ | Command.Assert _ | Command.Check_sat
      | Command.Get_model | Command.Get_value _ | Command.Push _ | Command.Pop _
      | Command.Echo _ | Command.Exit ->
        [])
    script

let declared_consts script =
  declared_funs script
  |> List.filter_map (fun d -> if d.arg_sorts = [] then Some (d.name, d.result_sort) else None)

let declared_datatypes script =
  List.concat_map
    (function Command.Declare_datatypes dts -> dts | _ -> [])
    script

let assertions script = List.filter_map Command.assert_term script

let map_assertions f script =
  List.map
    (fun cmd -> match cmd with Command.Assert t -> Command.Assert (f t) | _ -> cmd)
    script

let replace_assertions script new_asserts =
  let remaining = ref new_asserts in
  let substituted =
    List.filter_map
      (fun cmd ->
        match cmd with
        | Command.Assert _ -> (
          match !remaining with
          | [] -> None
          | t :: rest ->
            remaining := rest;
            Some (Command.Assert t))
        | _ -> Some cmd)
      script
  in
  let extras = List.map (fun t -> Command.Assert t) !remaining in
  if extras = [] then substituted
  else (
    let rec insert acc = function
      | [] -> List.rev_append acc extras
      | Command.Check_sat :: _ as rest -> List.rev_append acc (extras @ rest)
      | cmd :: rest -> insert (cmd :: acc) rest
    in
    insert [] substituted)

let symbol_names script = List.map (fun d -> d.name) (declared_funs script)

let add_declarations script decls =
  let existing = symbol_names script in
  let fresh_decls =
    List.filter
      (fun cmd ->
        match cmd with
        | Command.Declare_fun (name, _, _)
        | Command.Declare_const (name, _)
        | Command.Define_fun (name, _, _, _) ->
          not (List.mem name existing)
        | Command.Declare_datatypes dts ->
          not (List.exists (fun (dt : Command.datatype_decl) ->
                   List.mem dt.dt_name existing
                   || List.exists
                        (fun (c : Command.constructor) -> List.mem c.ctor_name existing)
                        dt.constructors) dts)
        | Command.Declare_sort (name, _) -> not (List.mem name existing)
        | _ -> true)
      decls
  in
  let is_body = function
    | Command.Assert _ | Command.Check_sat | Command.Get_model | Command.Get_value _ ->
      true
    | _ -> false
  in
  let rec insert acc = function
    | [] -> List.rev_append acc fresh_decls
    | cmd :: rest when is_body cmd -> List.rev_append acc (fresh_decls @ (cmd :: rest))
    | cmd :: rest -> insert (cmd :: acc) rest
  in
  insert [] script

let fresh_name script base =
  let used = symbol_names script in
  if not (List.mem base used) then base
  else (
    let rec go i =
      let candidate = Printf.sprintf "%s%d" base i in
      if List.mem candidate used then go (i + 1) else candidate
    in
    go 0)

let has_check_sat script = List.mem Command.Check_sat script

(* Heuristic theory tagging by operator prefixes and sorts; kept here (rather
   than in the theories library) because triage grouping must not depend on a
   full signature table. *)
let theories_used script =
  let tags = ref [] in
  let rec seen tag = function [] -> false | t :: rest -> String.equal t tag || seen tag rest in
  let add tag = if not (seen tag !tags) then tags := tag :: !tags in
  let rec tag_sort = function
    | Sort.Bool -> add "core"
    | Sort.Int -> add "ints"
    | Sort.Real -> add "reals"
    | Sort.String_sort | Sort.Reglan -> add "strings"
    | Sort.Bitvec _ -> add "bitvectors"
    | Sort.Finite_field _ -> add "finite_fields"
    | Sort.Seq s ->
      add "seq";
      tag_sort s
    | Sort.Set s ->
      add "sets";
      tag_sort s
    | Sort.Bag s ->
      add "bags";
      tag_sort s
    | Sort.Array (i, e) ->
      add "arrays";
      tag_sort i;
      tag_sort e
    | Sort.Tuple ss ->
      add "sets";
      List.iter tag_sort ss
    | Sort.Datatype _ -> add "datatypes"
    | Sort.Uninterpreted _ -> add "uf"
  in
  let tag_op name =
    match name with
    | "select" | "store" -> add "arrays"
    | "div" | "mod" | "abs" | "divisible" | "to_real" -> add "ints"
    | "/" | "to_int" | "is_int" -> add "reals"
    | "+" | "-" | "*" | "<" | "<=" | ">" | ">=" -> add "arith"
    | _ ->
      let has prefix = O4a_util.Strx.starts_with ~prefix name in
      if has "bv" then add "bitvectors"
      else if has "str." || has "re." then add "strings"
      else if has "seq." then add "seq"
      else if has "set." || has "rel." then add "sets"
      else if has "bag." || has "table." then add "bags"
      else if has "ff." then add "finite_fields"
  in
  let rec tag_term t =
    (match t with
    | Term.App (name, _) -> tag_op name
    | Term.Indexed_app (name, _, _) -> tag_op name
    | Term.Qual (_, sort) | Term.Qual_app (_, sort, _) -> tag_sort sort
    | Term.Forall (binders, _) | Term.Exists (binders, _) ->
      add "quantifiers";
      List.iter (fun (_, s) -> tag_sort s) binders
    | Term.Const (Term.Bv_lit _) -> add "bitvectors"
    | Term.Const (Term.String_lit _) -> add "strings"
    | Term.Const (Term.Ff_lit _) -> add "finite_fields"
    | Term.Match _ -> add "datatypes"
    | Term.Const _ | Term.Var _ | Term.Let _ | Term.Annot _ | Term.Placeholder _ -> ());
    List.iter tag_term (Term.children t)
  in
  List.iter (fun d -> List.iter tag_sort (d.result_sort :: d.arg_sorts)) (declared_funs script);
  List.iter tag_term (assertions script);
  List.rev !tags

let size script = O4a_util.Listx.sum (List.map Term.size (assertions script))
