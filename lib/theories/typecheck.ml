open Smtlib

module Names = Hashtbl.Make (String)

type env = {
  vars : (string * Sort.t) list;  (** innermost bindings first *)
  funs : Script.fun_decl list;  (** in declaration order, for [env_vars] *)
  first : Script.fun_decl Names.t;  (** each name's first declaration *)
  datatypes : Command.datatype_decl list;
}

let declare_fun first (d : Script.fun_decl) =
  if not (Names.mem first d.name) then Names.add first d.name d

let env_of_script script =
  let funs = Script.declared_funs script in
  let first = Names.create 64 in
  List.iter (declare_fun first) funs;
  { vars = []; funs; first; datatypes = Script.declared_datatypes script }

let env_vars env =
  env.vars
  @ List.filter_map
      (fun (d : Script.fun_decl) ->
        if d.arg_sorts = [] then Some (d.name, d.result_sort) else None)
      env.funs

let add_var name sort env = { env with vars = (name, sort) :: env.vars }

let err fmt = Printf.ksprintf (fun m -> Error m) fmt

let find_fun env name = Names.find_opt env.first name

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

let rec infer ?(allow_placeholders = false) env term =
  let infer_sub = infer ~allow_placeholders in
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
      | None -> Signature.app name arg_sorts))
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

let check_bool ?(allow_placeholders = false) env term =
  match infer ~allow_placeholders env term with
  | Ok Sort.Bool -> Ok ()
  | Ok other -> err "expected a term of sort Bool, got %s" (Sort.to_string other)
  | Error e -> Error e

let check_script ?(allow_placeholders = false) script =
  (* Each command sees every declaration up to and including its own, the
     first declaration of a name winning: [first] grows by each command's
     declarations in script order. Nothing here reads [funs]. *)
  let first = Names.create 64 and seen = Names.create 64 in
  let check_cmd env cmd =
    let declare names =
      match List.find_opt (Names.mem seen) names with
      | Some dup -> err "symbol '%s' is already declared" dup
      | None ->
        List.iter (fun n -> Names.replace seen n ()) names;
        Ok ()
    in
    match cmd with
    | Command.Declare_fun (name, _, _) | Command.Declare_const (name, _) -> declare [ name ]
    | Command.Define_fun (name, params, result_sort, body) ->
      Result.bind (declare [ name ]) (fun () ->
          let env' = List.fold_left (fun acc (n, s) -> add_var n s acc) env params in
          match infer ~allow_placeholders env' body with
          | Ok s when Sort.equal s result_sort -> Ok ()
          | Ok s ->
            err "define-fun '%s' body has sort %s but %s was declared" name
              (Sort.to_string s) (Sort.to_string result_sort)
          | Error e -> Error e)
    | Command.Declare_datatypes dts ->
      declare
        (List.concat_map
           (fun (dt : Command.datatype_decl) ->
             dt.dt_name
             :: List.concat_map
                  (fun (c : Command.constructor) -> c.ctor_name :: List.map fst c.selectors)
                  dt.constructors)
           dts)
    | Command.Declare_sort (name, arity) ->
      if arity <> 0 then err "only arity-0 declared sorts are supported, '%s' has %d" name arity
      else declare [ name ]
    | Command.Assert body -> check_bool ~allow_placeholders env body
    | Command.Get_value terms -> (
      match sequence_results (List.map (infer ~allow_placeholders env) terms) with
      | Ok _ -> Ok ()
      | Error e -> Error e)
    | Command.Set_logic _ | Command.Set_option _ | Command.Set_info _
    | Command.Check_sat | Command.Get_model | Command.Push _ | Command.Pop _
    | Command.Echo _ | Command.Exit ->
      Ok ()
  in
  let extend env cmd =
    List.iter (declare_fun first) (Script.declared_funs [ cmd ]);
    match Script.declared_datatypes [ cmd ] with
    | [] -> env
    | datatypes -> { env with datatypes = env.datatypes @ datatypes }
  in
  let rec go env = function
    | [] -> Ok ()
    | cmd :: rest -> (
      let env = extend env cmd in
      match check_cmd env cmd with Ok () -> go env rest | Error e -> Error e)
  in
  go { vars = []; funs = []; first; datatypes = [] } script
