open Smtlib

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
          match infer ~allow_placeholders env' body with
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
      match check_bool ~allow_placeholders env body with
      | Ok () -> Ok (env, seen_names)
      | Error e -> Error e)
    | Command.Get_value terms -> (
      match sequence_results (List.map (infer ~allow_placeholders env) terms) with
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
