(* The tree-walking evaluator that [Solver.Eval] replaced: every node looks
   its names up in association lists, dispatches its operator by string and
   reports coverage through a callback. Kept verbatim as the reference the
   compiled evaluator is compared against, on value, failure text, fuel and
   every coverage count. *)

open Smtlib
open Theories
module Domain = Solver.Domain
module Value = Solver.Value
module Regex = Solver.Regex

type ctx = {
  config : Domain.config;
  datatypes : Command.datatype_decl list;
  defined : (string * (string * Sort.t) list * Term.t) list;
  fun_decls : Script.fun_decl list;
  mutable fun_defaults : (string * Value.t) list;
  cov : string -> int -> unit;
  mutable steps : int;
  max_steps : int;
}

exception Out_of_fuel
exception Eval_failure of string

let fail fmt = Printf.ksprintf (fun m -> raise (Eval_failure m)) fmt

let make_ctx ?(config = Domain.default_config) ?(max_steps = 200_000)
    ?(cov = fun _ _ -> ()) ?(fun_defaults = []) script =
  {
    config;
    datatypes = Script.declared_datatypes script;
    defined =
      List.filter_map
        (function
          | Command.Define_fun (name, params, _, body) -> Some (name, params, body)
          | _ -> None)
        script;
    fun_decls = Script.declared_funs script;
    fun_defaults;
    cov;
    steps = 0;
    max_steps;
  }

let tick ctx =
  ctx.steps <- ctx.steps + 1;
  if ctx.steps > ctx.max_steps then raise Out_of_fuel

let default_of ctx sort = Domain.default_value ~config:ctx.config ~datatypes:ctx.datatypes sort

(* --- arithmetic helpers -------------------------------------------- *)

let ediv a b =
  if b = 0 then 0
  else (
    let q = a / b and r = a mod b in
    if r < 0 then if b > 0 then q - 1 else q + 1 else q)

let emod a b =
  if b = 0 then a
  else (
    let r = a mod b in
    if r < 0 then r + abs b else r)

let to_signed width v =
  let half = 1 lsl (width - 1) in
  if v >= half then v - (1 lsl width) else v

let rat = function
  | Value.Int n -> (n, 1)
  | Value.Real (p, q) -> (p, q)
  | v -> fail "expected a numeric value, got %s" (Value.to_term_string v)

let as_int = function
  | Value.Int n -> n
  | v -> fail "expected Int, got %s" (Value.to_term_string v)

let as_bool = function
  | Value.Bool b -> b
  | v -> fail "expected Bool, got %s" (Value.to_term_string v)

let as_str = function
  | Value.Str s -> s
  | v -> fail "expected String, got %s" (Value.to_term_string v)

let as_re = function
  | Value.Re r -> r
  | Value.Str s -> Regex.Lit s
  | v -> fail "expected RegLan, got %s" (Value.to_term_string v)

let as_bv = function
  | Value.Bv { width; value } -> (width, value)
  | v -> fail "expected BitVec, got %s" (Value.to_term_string v)

let as_ff = function
  | Value.Ff { order; value } -> (order, value)
  | v -> fail "expected FiniteField, got %s" (Value.to_term_string v)

let as_seq = function
  | Value.Seq (elt, vs) -> (elt, vs)
  | v -> fail "expected Seq, got %s" (Value.to_term_string v)

let as_set = function
  | Value.Set (elt, vs) -> (elt, vs)
  | v -> fail "expected Set, got %s" (Value.to_term_string v)

let as_bag = function
  | Value.Bag (elt, vs) -> (elt, vs)
  | v -> fail "expected Bag, got %s" (Value.to_term_string v)

let all_numeric vs = List.for_all (function Value.Int _ -> true | _ -> false) vs

let fold_arith ctx name vs int_op rat_op =
  ctx.cov name 0;
  match vs with
  | [] -> fail "'%s' applied to no arguments" name
  | first :: rest ->
    if all_numeric vs then
      Value.Int (List.fold_left (fun acc v -> int_op acc (as_int v)) (as_int first) rest)
    else (
      let p, q =
        List.fold_left (fun acc v -> rat_op acc (rat v)) (rat first) rest
      in
      Value.mk_real p q)

let rat_add (p, q) (p', q') = ((p * q') + (p' * q), q * q')
let rat_sub (p, q) (p', q') = ((p * q') - (p' * q), q * q')
let rat_mul (p, q) (p', q') = (p * p', q * q')

let rat_cmp (p, q) (p', q') = compare (p * q') (p' * q)

let chain_compare ctx name vs cmp =
  ctx.cov name 0;
  let rec go = function
    | a :: (b :: _ as rest) -> cmp (rat a) (rat b) && go rest
    | _ -> true
  in
  Value.Bool (go vs)

(* --- string helpers ------------------------------------------------ *)

let str_at s i = if i >= 0 && i < String.length s then String.make 1 s.[i] else ""

let str_substr s i n =
  let len = String.length s in
  if i < 0 || i >= len || n <= 0 then ""
  else String.sub s i (min n (len - i))

let str_indexof s sub from =
  let len = String.length s and lsub = String.length sub in
  if from < 0 || from > len then -1
  else (
    let rec go i = if i + lsub > len then -1 else if String.sub s i lsub = sub then i else go (i + 1) in
    go from)

let str_contains s sub = str_indexof s sub 0 >= 0

let str_replace ~all s pat rep =
  if pat = "" then rep ^ s
  else (
    let buf = Buffer.create (String.length s) in
    let lp = String.length pat in
    let rec go i replaced =
      if i >= String.length s then ()
      else if
        (not (replaced && not all))
        && i + lp <= String.length s
        && String.sub s i lp = pat
      then (
        Buffer.add_string buf rep;
        go (i + lp) true)
      else (
        Buffer.add_char buf s.[i];
        go (i + 1) replaced)
    in
    go 0 false;
    Buffer.contents buf)

let str_to_int s =
  if s <> "" && String.for_all (fun c -> c >= '0' && c <= '9') s then int_of_string s else -1

let str_from_int n = if n >= 0 then string_of_int n else ""

(* --- sequence helpers ---------------------------------------------- *)

let seq_indexof xs sub from =
  let axs = Array.of_list xs and asub = Array.of_list sub in
  let n = Array.length axs and m = Array.length asub in
  if from < 0 || from > n then -1
  else (
    let matches_at i =
      let rec go j = j >= m || (Value.equal axs.(i + j) asub.(j) && go (j + 1)) in
      i + m <= n && go 0
    in
    let rec search i = if i > n - m then -1 else if matches_at i then i else search (i + 1) in
    if m = 0 then from else search from)

let seq_contains xs sub = seq_indexof xs sub 0 >= 0

let seq_replace xs pat rep =
  match seq_indexof xs pat 0 with
  | -1 -> xs
  | i ->
    O4a_util.Listx.take i xs @ rep @ O4a_util.Listx.drop (i + List.length pat) xs

(* --- main evaluator ------------------------------------------------ *)

let rec eval ctx env term =
  tick ctx;
  match term with
  | Term.Const c -> eval_const c
  | Term.Placeholder _ -> fail "cannot evaluate a placeholder hole"
  | Term.Var name -> eval_symbol ctx env name
  | Term.Annot (body, _) -> eval ctx env body
  | Term.Let (bindings, body) ->
    let env' =
      List.fold_left (fun acc (n, v) -> (n, eval ctx env v) :: acc) env bindings
    in
    eval ctx env' body
  | Term.Forall (binders, body) ->
    ctx.cov "forall" 0;
    Value.Bool (eval_quant ctx env binders body ~universal:true)
  | Term.Exists (binders, body) ->
    ctx.cov "exists" 0;
    Value.Bool (eval_quant ctx env binders body ~universal:false)
  | Term.Qual (name, sort) -> eval_qual ctx env name sort []
  | Term.Qual_app (name, sort, args) ->
    eval_qual ctx env name sort (List.map (eval ctx env) args)
  | Term.Indexed_app (name, idxs, args) -> eval_indexed ctx env name idxs args
  | Term.App (name, args) -> eval_app ctx env name args
  | Term.Match (scrutinee, cases) -> eval_match ctx env scrutinee cases

and eval_match ctx env scrutinee cases =
  ctx.cov "match" 0;
  match eval ctx env scrutinee with
  | Value.Dt (_, ctor, fields) as v -> (
    let rec first = function
      | [] ->
        ctx.cov "match" 1;
        fail "non-exhaustive match: no case for constructor '%s'" ctor
      | (Term.P_wildcard, body) :: _ -> eval ctx env body
      | (Term.P_var name, body) :: _ -> eval ctx ((name, v) :: env) body
      | (Term.P_ctor (c, binders), body) :: rest ->
        if c = ctor && List.length binders = List.length fields then (
          let env' = List.combine binders fields @ env in
          eval ctx env' body)
        else first rest
    in
    first cases)
  | v -> fail "match scrutinee is not a datatype value: %s" (Value.to_term_string v)

and eval_const = function
  | Term.Bool_lit b -> Value.Bool b
  | Term.Int_lit n -> Value.Int n
  | Term.Real_lit (p, q) -> Value.mk_real p q
  | Term.Bv_lit { width; value } -> Value.mk_bv ~width value
  | Term.String_lit s -> Value.Str s
  | Term.Ff_lit { order; value } -> Value.mk_ff ~order value

and eval_symbol ctx env name =
  match List.assoc_opt name env with
  | Some v -> v
  | None -> (
    match List.find_opt (fun (n, _, _) -> n = name) ctx.defined with
    | Some (_, [], body) -> eval ctx env body
    | Some (_, _, _) -> fail "function '%s' used without arguments" name
    | None -> (
      match Signature.nullary name with
      | Some Sort.Reglan ->
        ctx.cov name 0;
        Value.Re
          (match name with
          | "re.none" -> Regex.Empty
          | "re.all" -> Regex.All
          | _ -> Regex.Any_char)
      | Some (Sort.Tuple []) -> Value.Tuple []
      | Some _ | None -> (
        (* datatype nullary constructor? *)
        match find_ctor ctx name with
        | Some (dt, c) when c.Command.selectors = [] -> Value.Dt (dt, name, [])
        | _ -> fail "no interpretation for symbol '%s'" name)))

and find_ctor ctx name =
  List.find_map
    (fun (d : Command.datatype_decl) ->
      List.find_map
        (fun (c : Command.constructor) ->
          if c.ctor_name = name then Some (d.dt_name, c) else None)
        d.constructors)
    ctx.datatypes

and find_selector ctx name =
  List.find_map
    (fun (d : Command.datatype_decl) ->
      List.find_map
        (fun (c : Command.constructor) ->
          match
            O4a_util.Listx.find_index (fun (sel, _) -> sel = name) c.selectors
          with
          | Some i -> Some (d.dt_name, c, i, snd (List.nth c.selectors i))
          | None -> None)
        d.constructors)
    ctx.datatypes

and eval_quant ctx env binders body ~universal =
  let rec expand env = function
    | [] -> as_bool (eval ctx env body)
    | (name, sort) :: rest ->
      let domain = Domain.enumerate ~config:ctx.config ~datatypes:ctx.datatypes sort in
      let test v =
        tick ctx;
        expand ((name, v) :: env) rest
      in
      if universal then List.for_all test domain else List.exists test domain
  in
  expand env binders

and eval_qual ctx _env name sort args =
  match (name, sort, args) with
  | "seq.empty", Sort.Seq elt, [] -> Value.Seq (elt, [])
  | "set.empty", Sort.Set elt, [] -> Value.Set (elt, [])
  | "set.universe", Sort.Set elt, [] ->
    ctx.cov "set.universe" 0;
    Normalize.mk_set elt (Domain.enumerate ~config:ctx.config ~datatypes:ctx.datatypes elt)
  | "bag.empty", Sort.Bag elt, [] -> Value.Bag (elt, [])
  | "tuple.unit", Sort.Tuple [], [] -> Value.Tuple []
  | "const", Sort.Array (idx, elt), [ v ] ->
    ctx.cov "const-array" 0;
    Value.Arr { idx; elt; default = v; entries = [] }
  | _, Sort.Datatype dt, [] when find_ctor ctx name <> None -> Value.Dt (dt, name, [])
  | _ -> fail "cannot evaluate qualified identifier '(as %s %s)'" name (Sort.to_string sort)

and eval_indexed ctx env name idxs args =
  let values () = List.map (eval ctx env) args in
  match (name, idxs, values ()) with
  | "extract", [ Term.Idx_num i; Term.Idx_num j ], [ bv ] ->
    ctx.cov "extract" 0;
    let _, v = as_bv bv in
    let width = i - j + 1 in
    Value.mk_bv ~width (v lsr j)
  | "zero_extend", [ Term.Idx_num k ], [ bv ] ->
    let w, v = as_bv bv in
    Value.mk_bv ~width:(w + k) v
  | "sign_extend", [ Term.Idx_num k ], [ bv ] ->
    let w, v = as_bv bv in
    let signed = to_signed w v in
    Value.mk_bv ~width:(w + k) signed
  | "rotate_left", [ Term.Idx_num k ], [ bv ] ->
    let w, v = as_bv bv in
    let k = k mod w in
    Value.mk_bv ~width:w ((v lsl k) lor (v lsr (w - k)))
  | "rotate_right", [ Term.Idx_num k ], [ bv ] ->
    let w, v = as_bv bv in
    let k = k mod w in
    Value.mk_bv ~width:w ((v lsr k) lor (v lsl (w - k)))
  | "repeat", [ Term.Idx_num k ], [ bv ] ->
    let w, v = as_bv bv in
    let rec go n acc = if n = 0 then acc else go (n - 1) ((acc lsl w) lor v) in
    Value.mk_bv ~width:(w * k) (go k 0)
  | "int2bv", [ Term.Idx_num w ], [ n ] ->
    ctx.cov "int2bv" 0;
    Value.mk_bv ~width:w (emod (as_int n) (1 lsl min w 30))
  | "divisible", [ Term.Idx_num n ], [ v ] ->
    ctx.cov "divisible" 0;
    if n = 0 then (
      ctx.cov "divisible" 1;
      Value.Bool (as_int v = 0))
    else Value.Bool (emod (as_int v) n = 0)
  | "re.loop", [ Term.Idx_num i; Term.Idx_num j ], [ r ] ->
    (* unrolled repetitions: clamp the indices so a synthesized loop with a
       huge bound cannot build a regex no derivative budget could chew
       through (domain strings are far shorter than the cap anyway) *)
    let cap n = min n 128 in
    Value.Re (Regex.loop (cap i) (cap j) (as_re r))
  | "char", [ Term.Idx_sym code ], [] ->
    let n =
      if O4a_util.Strx.starts_with ~prefix:"#x" code then
        int_of_string ("0x" ^ String.sub code 2 (String.length code - 2))
      else 97
    in
    Value.Str (String.make 1 (Char.chr (n land 0x7f)))
  | "tuple.select", [ Term.Idx_num i ], [ t ] -> (
    match t with
    | Value.Tuple vs -> (
      match List.nth_opt vs i with
      | Some v -> v
      | None -> fail "tuple.select index out of range")
    | v -> fail "tuple.select on non-tuple %s" (Value.to_term_string v))
  | "is", [ Term.Idx_sym ctor ], [ v ] -> (
    ctx.cov "tester" 0;
    match v with
    | Value.Dt (_, c, _) -> Value.Bool (c = ctor)
    | _ -> fail "tester applied to non-datatype value")
  | _, [ Term.Idx_num w ], [] when is_bv_numeral name ->
    let n = int_of_string (String.sub name 2 (String.length name - 2)) in
    Value.mk_bv ~width:w n
  | _ -> fail "cannot evaluate indexed identifier '(_ %s ...)'" name

and is_bv_numeral name =
  String.length name > 2
  && name.[0] = 'b'
  && name.[1] = 'v'
  && String.for_all (fun c -> c >= '0' && c <= '9') (String.sub name 2 (String.length name - 2))

and eval_app ctx env name args =
  (* user-declared or defined functions first *)
  match List.find_opt (fun (n, _, _) -> n = name) ctx.defined with
  | Some (_, params, body) when args <> [] ->
    let values = List.map (eval ctx env) args in
    let env' = List.map2 (fun (p, _) v -> (p, v)) params values @ env in
    eval ctx env' body
  | _ -> (
    match find_ctor ctx name with
    | Some (dt, c) when c.Command.selectors <> [] || args <> [] ->
      ctx.cov "datatype-ctor" 0;
      Value.Dt (dt, name, List.map (eval ctx env) args)
    | _ -> (
      match find_selector ctx name with
      | Some (_, c, i, field_sort) when List.length args = 1 -> (
        ctx.cov "datatype-sel" 0;
        match eval ctx env (List.hd args) with
        | Value.Dt (_, ctor, fields) when ctor = c.Command.ctor_name -> List.nth fields i
        | Value.Dt _ ->
          ctx.cov "datatype-sel" 1;
          default_of ctx field_sort
        | v -> fail "selector '%s' on non-datatype %s" name (Value.to_term_string v))
      | _ -> (
        match
          List.find_opt
            (fun (d : Script.fun_decl) -> d.name = name && d.arg_sorts <> [])
            ctx.fun_decls
        with
        | Some decl ->
          (* uninterpreted n-ary function: constant interpretation *)
          ctx.cov "uf-apply" 0;
          List.iter (fun a -> ignore (eval ctx env a)) args;
          (match List.assoc_opt name ctx.fun_defaults with
          | Some v -> v
          | None -> default_of ctx decl.result_sort)
        | None -> eval_theory_app ctx env name (List.map (eval ctx env) args))))

and eval_theory_app ctx _env name vs =
  let cov ?(line = 0) () = ctx.cov name line in
  match (name, vs) with
  (* ---- core ---- *)
  | "not", [ v ] ->
    cov ();
    Value.Bool (not (as_bool v))
  | "and", _ ->
    cov ();
    Value.Bool (List.for_all as_bool vs)
  | "or", _ ->
    cov ();
    Value.Bool (List.exists as_bool vs)
  | "xor", _ ->
    cov ();
    Value.Bool (List.fold_left (fun acc v -> acc <> as_bool v) false vs)
  | "=>", _ ->
    cov ();
    let rec go = function
      | [] -> true
      | [ last ] -> as_bool last
      | v :: rest -> (not (as_bool v)) || go rest
    in
    Value.Bool (go vs)
  | "=", v :: rest ->
    cov ();
    Value.Bool (List.for_all (coerced_equal v) rest)
  | "distinct", _ ->
    cov ();
    let rec pairwise = function
      | [] -> true
      | v :: rest -> List.for_all (fun v' -> not (coerced_equal v v')) rest && pairwise rest
    in
    Value.Bool (pairwise vs)
  | "ite", [ c; a; b ] ->
    cov ();
    if as_bool c then a else b
  (* ---- arithmetic ---- *)
  | "-", [ v ] -> (
    cov ();
    match v with
    | Value.Int n -> Value.Int (-n)
    | Value.Real (p, q) -> Value.mk_real (-p) q
    | _ -> fail "unary minus on non-numeric value")
  | "+", _ -> fold_arith ctx name vs ( + ) rat_add
  | "-", _ -> fold_arith ctx name vs ( - ) rat_sub
  | "*", _ -> fold_arith ctx name vs ( * ) rat_mul
  | "/", _ ->
    cov ();
    let rec go acc = function
      | [] -> acc
      | v :: rest ->
        let p', q' = rat v in
        if p' = 0 then (
          ctx.cov name 1;
          go (0, 1) rest (* division by zero: fixed default 0 *))
        else (
          let p, q = acc in
          go (p * q', q * p') rest)
    in
    (match vs with
    | first :: rest ->
      let p, q = go (rat first) rest in
      Value.mk_real p q
    | [] -> fail "'/' applied to no arguments")
  | "div", [ a; b ] ->
    cov ();
    if as_int b = 0 then ctx.cov name 1;
    Value.Int (ediv (as_int a) (as_int b))
  | "mod", [ a; b ] ->
    cov ();
    if as_int b = 0 then ctx.cov name 1;
    Value.Int (emod (as_int a) (as_int b))
  | "abs", [ a ] ->
    cov ();
    Value.Int (abs (as_int a))
  | "<", _ -> chain_compare ctx name vs (fun a b -> rat_cmp a b < 0)
  | "<=", _ -> chain_compare ctx name vs (fun a b -> rat_cmp a b <= 0)
  | ">", _ -> chain_compare ctx name vs (fun a b -> rat_cmp a b > 0)
  | ">=", _ -> chain_compare ctx name vs (fun a b -> rat_cmp a b >= 0)
  | "to_real", [ a ] ->
    cov ();
    let n = as_int a in
    Value.mk_real n 1
  | "to_int", [ a ] ->
    cov ();
    let p, q = rat a in
    Value.Int (ediv p q)
  | "is_int", [ a ] ->
    cov ();
    let p, q = rat a in
    Value.Bool (emod p q = 0)
  (* ---- bit-vectors ---- *)
  | "concat", [ a; b ] ->
    cov ();
    let wa, va = as_bv a and wb, vb = as_bv b in
    Value.mk_bv ~width:(wa + wb) ((va lsl wb) lor vb)
  | "bvnot", [ a ] ->
    cov ();
    let w, v = as_bv a in
    Value.mk_bv ~width:w (lnot v)
  | "bvneg", [ a ] ->
    cov ();
    let w, v = as_bv a in
    Value.mk_bv ~width:w (-v)
  | ("bvand" | "bvor" | "bvxor" | "bvnand" | "bvnor" | "bvxnor"), first :: rest ->
    cov ();
    let w, v0 = as_bv first in
    let op a b =
      match name with
      | "bvand" -> a land b
      | "bvor" -> a lor b
      | "bvxor" -> a lxor b
      | "bvnand" -> lnot (a land b)
      | "bvnor" -> lnot (a lor b)
      | _ -> lnot (a lxor b)
    in
    Value.mk_bv ~width:w (List.fold_left (fun acc v -> op acc (snd (as_bv v))) v0 rest)
  | ("bvadd" | "bvsub" | "bvmul"), first :: rest ->
    cov ();
    let w, v0 = as_bv first in
    let op = match name with "bvadd" -> ( + ) | "bvsub" -> ( - ) | _ -> ( * ) in
    Value.mk_bv ~width:w (List.fold_left (fun acc v -> op acc (snd (as_bv v))) v0 rest)
  | "bvudiv", [ a; b ] ->
    cov ();
    let w, va = as_bv a and _, vb = as_bv b in
    if vb = 0 then (
      ctx.cov name 1;
      Value.mk_bv ~width:w (-1) (* all ones *))
    else Value.mk_bv ~width:w (va / vb)
  | "bvurem", [ a; b ] ->
    cov ();
    let w, va = as_bv a and _, vb = as_bv b in
    if vb = 0 then Value.mk_bv ~width:w va else Value.mk_bv ~width:w (va mod vb)
  | "bvsdiv", [ a; b ] ->
    cov ();
    let w, va = as_bv a and _, vb = as_bv b in
    let sa = to_signed w va and sb = to_signed w vb in
    if sb = 0 then Value.mk_bv ~width:w (if sa < 0 then 1 else -1)
    else Value.mk_bv ~width:w (sa / sb)
  | ("bvsrem" | "bvsmod"), [ a; b ] ->
    cov ();
    let w, va = as_bv a and _, vb = as_bv b in
    let sa = to_signed w va and sb = to_signed w vb in
    if sb = 0 then Value.mk_bv ~width:w va
    else if name = "bvsrem" then Value.mk_bv ~width:w (sa mod sb)
    else (
      (* bvsmod: sign follows the divisor *)
      let r = emod sa (abs sb) in
      Value.mk_bv ~width:w (if sb < 0 && r <> 0 then r - abs sb else r))
  | "bvshl", [ a; b ] ->
    cov ();
    let w, va = as_bv a and _, vb = as_bv b in
    Value.mk_bv ~width:w (if vb >= w then 0 else va lsl vb)
  | "bvlshr", [ a; b ] ->
    cov ();
    let w, va = as_bv a and _, vb = as_bv b in
    Value.mk_bv ~width:w (if vb >= w then 0 else va lsr vb)
  | "bvashr", [ a; b ] ->
    cov ();
    let w, va = as_bv a and _, vb = as_bv b in
    let sa = to_signed w va in
    Value.mk_bv ~width:w (if vb >= w then if sa < 0 then -1 else 0 else sa asr vb)
  | ("bvult" | "bvule" | "bvugt" | "bvuge"), [ a; b ] ->
    cov ();
    let _, va = as_bv a and _, vb = as_bv b in
    let r =
      match name with
      | "bvult" -> va < vb
      | "bvule" -> va <= vb
      | "bvugt" -> va > vb
      | _ -> va >= vb
    in
    Value.Bool r
  | ("bvslt" | "bvsle" | "bvsgt" | "bvsge"), [ a; b ] ->
    cov ();
    let w, va = as_bv a and _, vb = as_bv b in
    let sa = to_signed w va and sb = to_signed w vb in
    let r =
      match name with
      | "bvslt" -> sa < sb
      | "bvsle" -> sa <= sb
      | "bvsgt" -> sa > sb
      | _ -> sa >= sb
    in
    Value.Bool r
  | "bvcomp", [ a; b ] ->
    cov ();
    Value.mk_bv ~width:1 (if Value.equal a b then 1 else 0)
  | ("bv2nat" | "ubv_to_int"), [ a ] ->
    cov ();
    Value.Int (snd (as_bv a))
  (* ---- strings ---- *)
  | "str.++", _ ->
    cov ();
    Value.Str (String.concat "" (List.map as_str vs))
  | "str.len", [ s ] ->
    cov ();
    Value.Int (String.length (as_str s))
  | "str.at", [ s; i ] ->
    cov ();
    Value.Str (str_at (as_str s) (as_int i))
  | "str.substr", [ s; i; n ] ->
    cov ();
    Value.Str (str_substr (as_str s) (as_int i) (as_int n))
  | "str.indexof", [ s; sub; from ] ->
    cov ();
    Value.Int (str_indexof (as_str s) (as_str sub) (as_int from))
  | "str.contains", [ s; sub ] ->
    cov ();
    Value.Bool (str_contains (as_str s) (as_str sub))
  | "str.prefixof", [ p; s ] ->
    cov ();
    Value.Bool (O4a_util.Strx.starts_with ~prefix:(as_str p) (as_str s))
  | "str.suffixof", [ suffix; s ] ->
    cov ();
    let suffix = as_str suffix and s = as_str s in
    let ls = String.length s and lf = String.length suffix in
    Value.Bool (lf <= ls && String.sub s (ls - lf) lf = suffix)
  | "str.replace", [ s; pat; rep ] ->
    cov ();
    Value.Str (str_replace ~all:false (as_str s) (as_str pat) (as_str rep))
  | "str.replace_all", [ s; pat; rep ] ->
    cov ();
    Value.Str (str_replace ~all:true (as_str s) (as_str pat) (as_str rep))
  | "str.<", [ a; b ] ->
    cov ();
    Value.Bool (as_str a < as_str b)
  | "str.<=", [ a; b ] ->
    cov ();
    Value.Bool (as_str a <= as_str b)
  | "str.to_int", [ s ] ->
    cov ();
    Value.Int (str_to_int (as_str s))
  | "str.from_int", [ n ] ->
    cov ();
    Value.Str (str_from_int (as_int n))
  | "str.to_code", [ s ] ->
    cov ();
    let s = as_str s in
    Value.Int (if String.length s = 1 then Char.code s.[0] else -1)
  | "str.from_code", [ n ] ->
    cov ();
    let n = as_int n in
    Value.Str (if n >= 0 && n < 128 then String.make 1 (Char.chr n) else "")
  | "str.is_digit", [ s ] ->
    cov ();
    let s = as_str s in
    Value.Bool (String.length s = 1 && s.[0] >= '0' && s.[0] <= '9')
  | "str.in_re", [ s; r ] ->
    cov ();
    (* derivative matching can do unbounded work on adversarial regexes; a
       blown node budget is a resource limit, never a verdict *)
    (match Regex.matches_bounded ~max_nodes:ctx.max_steps (as_re r) (as_str s) with
    | Some b -> Value.Bool b
    | None -> raise Out_of_fuel)
  | "str.to_re", [ s ] ->
    cov ();
    Value.Re (Regex.Lit (as_str s))
  | "re.++", _ ->
    cov ();
    Value.Re
      (List.fold_left
         (fun acc v -> Regex.Concat (acc, as_re v))
         Regex.Epsilon vs)
  | "re.union", _ ->
    cov ();
    Value.Re (List.fold_left (fun acc v -> Regex.Union (acc, as_re v)) Regex.Empty vs)
  | "re.inter", first :: rest ->
    cov ();
    Value.Re (List.fold_left (fun acc v -> Regex.Inter (acc, as_re v)) (as_re first) rest)
  | "re.*", [ r ] ->
    cov ();
    Value.Re (Regex.Star (as_re r))
  | "re.+", [ r ] ->
    cov ();
    Value.Re (Regex.plus (as_re r))
  | "re.opt", [ r ] ->
    cov ();
    Value.Re (Regex.opt (as_re r))
  | "re.comp", [ r ] ->
    cov ();
    Value.Re (Regex.Complement (as_re r))
  | "re.range", [ a; b ] ->
    cov ();
    let a = as_str a and b = as_str b in
    if String.length a = 1 && String.length b = 1 then Value.Re (Regex.Range (a.[0], b.[0]))
    else (
      ctx.cov name 1;
      Value.Re Regex.Empty)
  | "re.diff", [ a; b ] ->
    cov ();
    Value.Re (Regex.diff (as_re a) (as_re b))
  (* ---- arrays ---- *)
  | "select", [ a; i ] -> (
    cov ();
    match a with
    | Value.Arr { default; entries; _ } -> (
      match List.find_opt (fun (k, _) -> Value.equal k i) entries with
      | Some (_, v) -> v
      | None -> default)
    | v -> fail "select on non-array %s" (Value.to_term_string v))
  | "store", [ a; i; v ] -> (
    cov ();
    match a with
    | Value.Arr ({ default; entries; _ } as arr) ->
      let entries' = Normalize.normalize_entries (entries @ [ (i, v) ]) in
      let entries' = List.filter (fun (_, v') -> not (Value.equal v' default)) entries' in
      Value.Arr { arr with entries = entries' }
    | v -> fail "store on non-array %s" (Value.to_term_string v))
  (* ---- sequences ---- *)
  | "seq.unit", [ v ] ->
    cov ();
    Value.Seq (Value.sort_of v, [ v ])
  | "seq.++", first :: _ ->
    cov ();
    let elt, _ = as_seq first in
    Value.Seq (elt, List.concat_map (fun v -> snd (as_seq v)) vs)
  | "seq.len", [ s ] ->
    cov ();
    Value.Int (List.length (snd (as_seq s)))
  | "seq.nth", [ s; i ] -> (
    cov ();
    let elt, xs = as_seq s in
    let i = as_int i in
    match if i < 0 then None else List.nth_opt xs i with
    | Some v -> v
    | None ->
      ctx.cov name 1;
      default_of ctx elt)
  | "seq.extract", [ s; i; n ] ->
    cov ();
    let elt, xs = as_seq s in
    let i = as_int i and n = as_int n in
    if i < 0 || i >= List.length xs || n <= 0 then Value.Seq (elt, [])
    else Value.Seq (elt, O4a_util.Listx.take n (O4a_util.Listx.drop i xs))
  | "seq.update", [ s; i; sub ] ->
    cov ();
    let elt, xs = as_seq s in
    let _, ys = as_seq sub in
    let i = as_int i in
    if i < 0 || i >= List.length xs then Value.Seq (elt, xs)
    else (
      let updated =
        List.mapi
          (fun j x ->
            if j >= i && j - i < List.length ys then List.nth ys (j - i) else x)
          xs
      in
      Value.Seq (elt, updated))
  | "seq.at", [ s; i ] ->
    cov ();
    let elt, xs = as_seq s in
    let i = as_int i in
    (match if i < 0 then None else List.nth_opt xs i with
    | Some v -> Value.Seq (elt, [ v ])
    | None -> Value.Seq (elt, []))
  | "seq.contains", [ s; sub ] ->
    cov ();
    Value.Bool (seq_contains (snd (as_seq s)) (snd (as_seq sub)))
  | "seq.prefixof", [ p; s ] ->
    cov ();
    let _, xs = as_seq s and _, ps = as_seq p in
    Value.Bool (O4a_util.Listx.take (List.length ps) xs = ps)
  | "seq.suffixof", [ p; s ] ->
    cov ();
    let _, xs = as_seq s and _, ps = as_seq p in
    Value.Bool (O4a_util.Listx.drop (List.length xs - List.length ps) xs = ps)
  | "seq.indexof", [ s; sub; from ] ->
    cov ();
    Value.Int (seq_indexof (snd (as_seq s)) (snd (as_seq sub)) (as_int from))
  | "seq.replace", [ s; pat; rep ] ->
    cov ();
    let elt, xs = as_seq s in
    Value.Seq (elt, seq_replace xs (snd (as_seq pat)) (snd (as_seq rep)))
  | "seq.rev", [ s ] ->
    cov ();
    let elt, xs = as_seq s in
    Value.Seq (elt, List.rev xs)
  (* ---- sets / relations ---- *)
  | "set.singleton", [ v ] ->
    cov ();
    Normalize.mk_set (Value.sort_of v) [ v ]
  | "set.insert", _ ->
    cov ();
    let set = O4a_util.Listx.last vs in
    let elems = O4a_util.Listx.init_segment vs in
    let elt, existing = as_set set in
    Normalize.mk_set elt (elems @ existing)
  | "set.union", [ a; b ] ->
    cov ();
    let elt, xs = as_set a and _, ys = as_set b in
    Normalize.mk_set elt (xs @ ys)
  | "set.inter", [ a; b ] ->
    cov ();
    let elt, xs = as_set a and _, ys = as_set b in
    Normalize.mk_set elt (List.filter (fun x -> List.exists (Value.equal x) ys) xs)
  | "set.minus", [ a; b ] ->
    cov ();
    let elt, xs = as_set a and _, ys = as_set b in
    Normalize.mk_set elt (List.filter (fun x -> not (List.exists (Value.equal x) ys)) xs)
  | "set.member", [ v; s ] ->
    cov ();
    Value.Bool (List.exists (Value.equal v) (snd (as_set s)))
  | "set.subset", [ a; b ] ->
    cov ();
    let _, xs = as_set a and _, ys = as_set b in
    Value.Bool (List.for_all (fun x -> List.exists (Value.equal x) ys) xs)
  | "set.card", [ s ] ->
    cov ();
    Value.Int (List.length (snd (as_set s)))
  | "set.complement", [ s ] ->
    cov ();
    let elt, xs = as_set s in
    let universe = Domain.enumerate ~config:ctx.config ~datatypes:ctx.datatypes elt in
    Normalize.mk_set elt (List.filter (fun v -> not (List.exists (Value.equal v) xs)) universe)
  | "set.choose", [ s ] -> (
    cov ();
    let elt, xs = as_set s in
    match xs with
    | v :: _ -> v
    | [] ->
      ctx.cov name 1;
      default_of ctx elt)
  | "set.is_empty", [ s ] ->
    cov ();
    Value.Bool (snd (as_set s) = [])
  | "set.is_singleton", [ s ] ->
    cov ();
    Value.Bool (List.length (snd (as_set s)) = 1)
  | "tuple", _ ->
    cov ();
    Value.Tuple vs
  | "rel.transpose", [ r ] ->
    cov ();
    let elt, xs = as_set r in
    let flip = function
      | Value.Tuple t -> Value.Tuple (List.rev t)
      | v -> v
    in
    let elt' = match elt with Sort.Tuple ss -> Sort.Tuple (List.rev ss) | s -> s in
    Normalize.mk_set elt' (List.map flip xs)
  | "rel.product", [ a; b ] ->
    cov ();
    let ea, xs = as_set a and eb, ys = as_set b in
    let elt =
      match (ea, eb) with
      | Sort.Tuple sa, Sort.Tuple sb -> Sort.Tuple (sa @ sb)
      | _ -> ea
    in
    let pairs =
      List.concat_map
        (fun x ->
          List.map
            (fun y ->
              match (x, y) with
              | Value.Tuple tx, Value.Tuple ty -> Value.Tuple (tx @ ty)
              | _ -> x)
            ys)
        xs
    in
    Normalize.mk_set elt pairs
  | "rel.join", [ a; b ] ->
    cov ();
    let ea, xs = as_set a and eb, ys = as_set b in
    (match (ea, eb) with
    | Sort.Tuple ([] as sa), Sort.Tuple sb | Sort.Tuple sa, Sort.Tuple ([] as sb) ->
      ignore sa;
      ignore sb;
      fail "Join requires non-nullary relations"
    | Sort.Tuple sa, Sort.Tuple sb ->
      let elt = Sort.Tuple (O4a_util.Listx.init_segment sa @ List.tl sb) in
      let joined =
        List.concat_map
          (fun x ->
            List.filter_map
              (fun y ->
                match (x, y) with
                | Value.Tuple tx, Value.Tuple ty
                  when Value.equal (O4a_util.Listx.last tx) (List.hd ty) ->
                  Some (Value.Tuple (O4a_util.Listx.init_segment tx @ List.tl ty))
                | _ -> None)
              ys)
          xs
      in
      Normalize.mk_set elt joined
    | _ -> fail "rel.join on non-relations")
  (* ---- bags ---- *)
  | "bag", [ v; n ] ->
    cov ();
    Normalize.mk_bag (Value.sort_of v) [ (v, as_int n) ]
  | ("bag.union_max" | "bag.union_disjoint" | "bag.inter_min"
    | "bag.difference_subtract" | "bag.difference_remove"), [ a; b ] ->
    cov ();
    let elt, xs = as_bag a and _, ys = as_bag b in
    let count entries v =
      match List.find_opt (fun (v', _) -> Value.equal v v') entries with
      | Some (_, n) -> n
      | None -> 0
    in
    let keys =
      O4a_util.Listx.dedup ~eq:Value.equal (List.map fst xs @ List.map fst ys)
    in
    let combine cx cy =
      match name with
      | "bag.union_max" -> max cx cy
      | "bag.union_disjoint" -> cx + cy
      | "bag.inter_min" -> min cx cy
      | "bag.difference_subtract" -> max 0 (cx - cy)
      | _ -> if cy > 0 then 0 else cx
    in
    Normalize.mk_bag elt (List.map (fun k -> (k, combine (count xs k) (count ys k))) keys)
  | "bag.count", [ v; b ] ->
    cov ();
    let _, ys = as_bag b in
    Value.Int
      (match List.find_opt (fun (v', _) -> Value.equal v v') ys with
      | Some (_, n) -> n
      | None -> 0)
  | "bag.member", [ v; b ] ->
    cov ();
    Value.Bool (List.exists (fun (v', _) -> Value.equal v v') (snd (as_bag b)))
  | "bag.card", [ b ] ->
    cov ();
    Value.Int (O4a_util.Listx.sum (List.map snd (snd (as_bag b))))
  | "bag.setof", [ b ] ->
    cov ();
    let elt, xs = as_bag b in
    Normalize.mk_bag elt (List.map (fun (v, _) -> (v, 1)) xs)
  | "bag.subbag", [ a; b ] ->
    cov ();
    let _, xs = as_bag a and _, ys = as_bag b in
    let count entries v =
      match List.find_opt (fun (v', _) -> Value.equal v v') entries with
      | Some (_, n) -> n
      | None -> 0
    in
    Value.Bool (List.for_all (fun (v, n) -> n <= count ys v) xs)
  | "bag.choose", [ b ] -> (
    cov ();
    let elt, xs = as_bag b in
    match xs with
    | (v, _) :: _ -> v
    | [] ->
      ctx.cov name 1;
      default_of ctx elt)
  (* ---- finite fields ---- *)
  | "ff.add", first :: rest ->
    cov ();
    let order, v0 = as_ff first in
    Value.mk_ff ~order (List.fold_left (fun acc v -> acc + snd (as_ff v)) v0 rest)
  | "ff.mul", first :: rest ->
    cov ();
    let order, v0 = as_ff first in
    Value.mk_ff ~order (List.fold_left (fun acc v -> acc * snd (as_ff v)) v0 rest)
  | "ff.neg", [ v ] ->
    cov ();
    let order, x = as_ff v in
    Value.mk_ff ~order (-x)
  | "ff.bitsum", _ ->
    cov ();
    (match vs with
    | [] -> fail "ff.bitsum applied to no arguments"
    | first :: _ ->
      let order, _ = as_ff first in
      let total =
        List.fold_left
          (fun (acc, weight) v -> (acc + (weight * snd (as_ff v)), weight * 2))
          (0, 1) vs
        |> fst
      in
      Value.mk_ff ~order total)
  | _, _ -> fail "no evaluation rule for '%s' with %d arguments" name (List.length vs)

(* Numeric coercion for (=) and (distinct) across Int/Real. *)
and coerced_equal a b =
  match (a, b) with
  | Value.Int n, Value.Real (p, q) | Value.Real (p, q), Value.Int n -> p = n * q
  | _ -> Value.equal a b

let eval_bool ctx env term = as_bool (eval ctx env term)
