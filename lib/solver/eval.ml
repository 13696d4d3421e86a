open Smtlib
open Theories

(* Compiled evaluation. A term is compiled once, against the names bound
   around it, into a closure over a slot-indexed value array: every name,
   operator and coverage point is resolved at compile time, and each node's
   coverage goes to a per-context counter. The compiled code ticks fuel, hits
   coverage and fails exactly where the tree-walking evaluator it replaced
   did (DESIGN.md, "Compiled evaluator"). *)

type state = {
  mutable steps : int;
  max_steps : int;
  mutable vals : Value.t array;
  mutable counts : int array;
}

type ctx = {
  config : Domain.config;
  datatypes : Command.datatype_decl list;
  defined : (string * (string * Sort.t) list * Term.t) list;
  fun_decls : Script.fun_decl list;
  st : state;
  mutable n_slots : int;
  mutable scope : (string * int) list;  (* names bound by [bind], innermost first *)
  mutable funs : (string * int) list;  (* n-ary function -> its constant's slot *)
  points : (string * int, int) Hashtbl.t;  (* (key, line) -> counter *)
  mutable keys : (string * int) array;  (* counter -> (key, line) *)
}

type code = unit -> Value.t

exception Out_of_fuel
exception Eval_failure of string

let fail fmt = Printf.ksprintf (fun m -> raise (Eval_failure m)) fmt

let state ctx = ctx.st

let grow a n fill =
  if n <= Array.length a then a
  else (
    let b = Array.make (max n (2 * Array.length a)) fill in
    Array.blit a 0 b 0 (Array.length a);
    b)

let new_slot ctx =
  let i = ctx.n_slots in
  ctx.n_slots <- i + 1;
  ctx.st.vals <- grow ctx.st.vals (i + 1) (Value.Bool false);
  i

let bind ctx name = ctx.scope <- (name, new_slot ctx) :: ctx.scope

let bind_fun ctx name = ctx.funs <- (name, new_slot ctx) :: ctx.funs

let point ctx key line =
  match Hashtbl.find_opt ctx.points (key, line) with
  | Some i -> i
  | None ->
    let i = Hashtbl.length ctx.points in
    Hashtbl.add ctx.points (key, line) i;
    ctx.keys <- grow ctx.keys (i + 1) ("", 0);
    ctx.keys.(i) <- (key, line);
    ctx.st.counts <- grow ctx.st.counts (i + 1) 0;
    i

let make_ctx ?(config = Domain.default_config) ?(max_steps = 200_000) ?(fun_defaults = [])
    script =
  let ctx =
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
      st = { steps = 0; max_steps; vals = [||]; counts = [||] };
      n_slots = 0;
      scope = [];
      funs = [];
      points = Hashtbl.create 64;
      keys = [||];
    }
  in
  (* the first binding of a name wins, as in an association list *)
  List.iter
    (fun (name, v) ->
      bind_fun ctx name;
      ctx.st.vals.(ctx.n_slots - 1) <- v)
    (List.rev fun_defaults);
  ctx

let hit st i =
  let c = st.counts in
  c.(i) <- c.(i) + 1

let flush ctx cov =
  let counts = ctx.st.counts in
  for i = 0 to Hashtbl.length ctx.points - 1 do
    if counts.(i) > 0 then (
      let key, line = ctx.keys.(i) in
      cov key line counts.(i))
  done

let recount ctx ~steps f =
  let st = ctx.st in
  let saved = st.counts and saved_steps = st.steps in
  st.counts <- Array.make (Array.length saved) 0;
  st.steps <- steps;
  let restore () =
    let scratch = st.counts in
    st.counts <- grow saved (Array.length scratch) 0;
    st.steps <- saved_steps;
    scratch
  in
  match f () with
  | () ->
    let scratch = restore () in
    let hits = ref [] in
    Array.iteri (fun i c -> if c > 0 then hits := (i, c) :: !hits) scratch;
    !hits
  | exception e ->
    ignore (restore ());
    raise e

let tick st =
  st.steps <- st.steps + 1;
  if st.steps > st.max_steps then raise Out_of_fuel

(* A value computed once, on first use; a computation that raises is
   retried, and raises again, at its next use. *)
let memo f =
  let cell = ref None in
  fun () ->
    match !cell with
    | Some v -> v
    | None ->
      let v = f () in
      cell := Some v;
      v

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

let expected what v = fail "expected %s, got %s" what (Value.to_term_string v)

let as_int = function
  | Value.Int n -> n
  | v -> expected "Int" v

let as_bool = function
  | Value.Bool b -> b
  | v -> expected "Bool" v

let as_str = function
  | Value.Str s -> s
  | v -> expected "String" v

let as_re = function
  | Value.Re r -> r
  | Value.Str s -> Regex.Lit s
  | v -> expected "RegLan" v

(* The accessors of values with two parts read one part each, so that no
   pair is built (there is no flambda to remove it). Reading either part of
   a value of the wrong sort fails with the same text. *)
let num = function
  | Value.Int n -> n
  | Value.Real (p, _) -> p
  | v -> expected "a numeric value" v

let den = function
  | Value.Int _ -> 1
  | Value.Real (_, q) -> q
  | v -> expected "a numeric value" v

let bv_width = function Value.Bv { width; _ } -> width | v -> expected "BitVec" v
let bv_value = function Value.Bv { value; _ } -> value | v -> expected "BitVec" v
let ff_order = function Value.Ff { order; _ } -> order | v -> expected "FiniteField" v
let ff_value = function Value.Ff { value; _ } -> value | v -> expected "FiniteField" v
let seq_elems = function Value.Seq (_, vs) -> vs | v -> expected "Seq" v
let set_elt = function Value.Set (elt, _) -> elt | v -> expected "Set" v
let set_elems = function Value.Set (_, vs) -> vs | v -> expected "Set" v
let bag_entries = function Value.Bag (_, vs) -> vs | v -> expected "Bag" v

let vtrue = Value.Bool true
let vfalse = Value.Bool false
let vbool b = if b then vtrue else vfalse
let unit_tuple = Value.Tuple []

let all_numeric vs = List.for_all (function Value.Int _ -> true | _ -> false) vs

(* The numerator of p/q op p'/q'; the denominator is q * q' for all three. *)
let add_num p q p' q' = (p * q') + (p' * q)
let sub_num p q p' q' = (p * q') - (p' * q)
let mul_num p _ p' _ = p * p'

(* p/q op [v] op ... for each [v] of the list, left to right *)
let rec fold_rat num_op p q = function
  | [] -> Value.mk_real p q
  | v :: rest ->
    let p' = num v in
    let q' = den v in
    fold_rat num_op (num_op p q p' q') (q * q') rest

let fold_arith cov name vs int_op num_op =
  cov ();
  match vs with
  | [] -> fail "'%s' applied to no arguments" name
  | first :: rest ->
    if all_numeric vs then
      Value.of_int (List.fold_left (fun acc v -> int_op acc (as_int v)) (as_int first) rest)
    else (
      let p = num first in
      fold_rat num_op p (den first) rest)

(* [a] op [b], one of them not an Int *)
let arith2 cov num_op a b =
  cov ();
  let p = num a in
  let q = den a in
  let p' = num b in
  let q' = den b in
  Value.mk_real (num_op p q p' q') (q * q')

(* The order of two numeric values. [b] is read first: the tree-walker
   evaluated the right argument of its comparison first. *)
let rat_compare a b =
  let p' = num b in
  let q' = den b in
  let p = num a in
  let q = den a in
  compare (p * q') (p' * q)

let rec chain test = function
  | a :: (b :: _ as rest) -> test (rat_compare a b) && chain test rest
  | _ -> true

let chain_compare cov vs test =
  cov ();
  vbool (chain test vs)

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

(* --- collections in normal form (Value, "The normal form") ---------- *)

(* The merge of two normal element lists. Of two equal elements the left
   one stays, as in a stable sort of [xs @ ys] that keeps the first of each
   run of equal elements. *)
let rec union xs ys =
  match (xs, ys) with
  | [], l | l, [] -> l
  | x :: xs', y :: ys' ->
    let c = Value.compare x y in
    if c < 0 then x :: union xs' ys else if c > 0 then y :: union xs ys' else x :: union xs' ys'

let rec inter xs ys =
  match (xs, ys) with
  | [], _ | _, [] -> []
  | x :: xs', y :: ys' ->
    let c = Value.compare x y in
    if c < 0 then inter xs' ys else if c > 0 then inter xs ys' else x :: inter xs' ys'

let rec minus xs ys =
  match (xs, ys) with
  | [], _ -> []
  | _, [] -> xs
  | x :: xs', y :: ys' ->
    let c = Value.compare x y in
    if c < 0 then x :: minus xs' ys else if c > 0 then minus xs ys' else minus xs' ys'

let rec mem v = function
  | [] -> false
  | x :: rest -> Value.equal v x || mem v rest

(* The merge of two normal bags' entries, each key's count [combine]d from
   its counts in the two (0 where absent). A shared key keeps the left
   entry's key, and a count of 0 or less drops the key. *)
let rec merge_bags combine xs ys =
  match (xs, ys) with
  | [], [] -> []
  | ((x, m) as e) :: xs', [] -> keep e x (combine m 0) (merge_bags combine xs' [])
  | [], ((y, n) as f) :: ys' -> keep f y (combine 0 n) (merge_bags combine [] ys')
  | ((x, m) as e) :: xs', ((y, n) as f) :: ys' ->
    let c = Value.compare x y in
    if c < 0 then keep e x (combine m 0) (merge_bags combine xs' ys)
    else if c > 0 then keep f y (combine 0 n) (merge_bags combine xs ys')
    else keep e x (combine m n) (merge_bags combine xs' ys')

(* [(v, k)] before [rest], as the entry [e] itself when it already says so *)
and keep e v k rest = if k <= 0 then rest else if k = snd e then e :: rest else (v, k) :: rest

let rec count v = function
  | [] -> 0
  | (v', n) :: rest -> if Value.equal v v' then n else count v rest

let rec lookup i default = function
  | [] -> default
  | (k, v) :: rest -> if Value.equal k i then v else lookup i default rest

let rec stored i = function
  | [] -> false
  | (k, _) :: rest -> Value.equal k i || stored i rest

(* [(i, v)] in index order among entries that do not store [i] *)
let rec insert_entry i v = function
  | ((k, _) as e) :: rest when Value.compare k i < 0 -> e :: insert_entry i v rest
  | entries -> (i, v) :: entries

(* Numeric coercion for (=) and (distinct) across Int/Real. *)
let coerced_equal a b =
  match (a, b) with
  | Value.Int n, Value.Real (p, q) | Value.Real (p, q), Value.Int n -> p = n * q
  | _ -> Value.equal a b


let eval_const = function
  | Term.Bool_lit b -> Value.Bool b
  | Term.Int_lit n -> Value.Int n
  | Term.Real_lit (p, q) -> Value.mk_real p q
  | Term.Bv_lit { width; value } -> Value.mk_bv ~width value
  | Term.String_lit s -> Value.Str s
  | Term.Ff_lit { order; value } -> Value.mk_ff ~order value

let find_ctor ctx name =
  List.find_map
    (fun (d : Command.datatype_decl) ->
      List.find_map
        (fun (c : Command.constructor) ->
          if c.ctor_name = name then Some (d.dt_name, c) else None)
        d.constructors)
    ctx.datatypes

let find_selector ctx name =
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

let default_of ctx sort = Domain.default_value ~config:ctx.config ~datatypes:ctx.datatypes sort

(* [f sort], kept for the last sort it was asked for. Each node that needs a
   sort's default or universe keeps one: a node sees one element sort in a
   well-sorted formula, and its code lives for one query. *)
let memo_sort f =
  let last = ref None in
  fun sort ->
    match !last with
    | Some (s, v) when s = sort -> v
    | _ ->
      let v = f sort in
      last := Some (sort, v);
      v

(* the sum of each field element times 2^i, for its index i, from [acc] and
   [weight] = 2^i on *)
let rec bitsum acc weight = function
  | [] -> acc
  | v :: rest -> bitsum (acc + (weight * ff_value v)) (weight * 2) rest

(* --- operators ----------------------------------------------------- *)

(* An operator resolved at compile time, by the arity of its application.
   It runs after its node has ticked and evaluated every argument. *)
type op =
  | Op1 of (Value.t -> Value.t)
  | Op2 of (Value.t -> Value.t -> Value.t)
  | Op3 of (Value.t -> Value.t -> Value.t -> Value.t)
  | Op1n of (Value.t -> Value.t list -> Value.t)  (* first argument, the rest *)
  | Opn of (Value.t list -> Value.t)

let eval_all codes = List.map (fun c -> c ()) codes

(* The node of an application: tick, evaluate the arguments in order, apply. *)
let apply st op codes : code =
  match (op, codes) with
  | Op1 f, [ a ] -> fun () -> tick st; f (a ())
  | Op2 f, [ a; b ] ->
    fun () ->
      tick st;
      let x = a () in
      let y = b () in
      f x y
  | Op3 f, [ a; b; c ] ->
    fun () ->
      tick st;
      let x = a () in
      let y = b () in
      let z = c () in
      f x y z
  | Op1n f, a :: rest ->
    fun () ->
      tick st;
      let x = a () in
      f x (eval_all rest)
  | Opn f, _ -> fun () -> tick st; f (eval_all codes)
  | (Op1 _ | Op2 _ | Op3 _ | Op1n _), _ -> invalid_arg "Eval.apply: operator arity"

(* The operators of the theories, matched on (name, arguments) exactly as the
   tree-walker matched (name, values): every pattern tests the argument count
   only, so the same case is chosen. [cov] is the operator's line 0. *)
let theory_op ctx name args =
  let st = ctx.st in
  let l0 = point ctx name 0 in
  let cov () = hit st l0 in
  let line1 () =
    let i = point ctx name 1 in
    fun () -> hit st i
  in
  match (name, args) with
  (* ---- core ---- *)
  | "not", [ _ ] -> Op1 (fun v -> cov (); vbool (not (as_bool v)))
  | "and", [ _; _ ] -> Op2 (fun a b -> cov (); vbool (as_bool a && as_bool b))
  | "and", _ -> Opn (fun vs -> cov (); vbool (List.for_all as_bool vs))
  | "or", [ _; _ ] -> Op2 (fun a b -> cov (); vbool (as_bool a || as_bool b))
  | "or", _ -> Opn (fun vs -> cov (); vbool (List.exists as_bool vs))
  | "xor", _ ->
    Opn (fun vs -> cov (); vbool (List.fold_left (fun acc v -> acc <> as_bool v) false vs))
  | "=>", [ _; _ ] -> Op2 (fun a b -> cov (); vbool ((not (as_bool a)) || as_bool b))
  | "=>", _ ->
    Opn
      (fun vs ->
        cov ();
        let rec go = function
          | [] -> true
          | [ last ] -> as_bool last
          | v :: rest -> (not (as_bool v)) || go rest
        in
        vbool (go vs))
  | "=", [ _; _ ] -> Op2 (fun a b -> cov (); vbool (coerced_equal a b))
  | "=", _ :: _ -> Op1n (fun v rest -> cov (); vbool (List.for_all (coerced_equal v) rest))
  | "distinct", [ _; _ ] -> Op2 (fun a b -> cov (); vbool (not (coerced_equal a b)))
  | "distinct", _ ->
    Opn
      (fun vs ->
        cov ();
        let rec pairwise = function
          | [] -> true
          | v :: rest -> List.for_all (fun v' -> not (coerced_equal v v')) rest && pairwise rest
        in
        vbool (pairwise vs))
  | "ite", [ _; _; _ ] -> Op3 (fun c a b -> cov (); if as_bool c then a else b)
  (* ---- arithmetic ---- *)
  | "-", [ _ ] ->
    Op1
      (fun v ->
        cov ();
        match v with
        | Value.Int n -> Value.of_int (-n)
        | Value.Real (p, q) -> Value.mk_real (-p) q
        | _ -> fail "unary minus on non-numeric value")
  | "+", [ _; _ ] ->
    Op2
      (fun a b ->
        match (a, b) with
        | Value.Int x, Value.Int y -> cov (); Value.of_int (x + y)
        | _ -> arith2 cov add_num a b)
  | "-", [ _; _ ] ->
    Op2
      (fun a b ->
        match (a, b) with
        | Value.Int x, Value.Int y -> cov (); Value.of_int (x - y)
        | _ -> arith2 cov sub_num a b)
  | "*", [ _; _ ] ->
    Op2
      (fun a b ->
        match (a, b) with
        | Value.Int x, Value.Int y -> cov (); Value.of_int (x * y)
        | _ -> arith2 cov mul_num a b)
  | "+", _ -> Opn (fun vs -> fold_arith cov name vs ( + ) add_num)
  | "-", _ -> Opn (fun vs -> fold_arith cov name vs ( - ) sub_num)
  | "*", _ -> Opn (fun vs -> fold_arith cov name vs ( * ) mul_num)
  | "/", [ _; _ ] ->
    let edge = line1 () in
    Op2
      (fun a b ->
        cov ();
        let p = num a in
        let q = den a in
        let p' = num b in
        let q' = den b in
        if p' = 0 then (
          edge ();
          Value.mk_real 0 1 (* division by zero: fixed default 0 *))
        else Value.mk_real (p * q') (q * p'))
  | "/", _ ->
    let edge = line1 () in
    let rec go p q = function
      | [] -> Value.mk_real p q
      | v :: rest ->
        let p' = num v in
        let q' = den v in
        if p' = 0 then (
          edge ();
          go 0 1 rest)
        else go (p * q') (q * p') rest
    in
    Opn
      (fun vs ->
        cov ();
        match vs with
        | first :: rest ->
          let p = num first in
          go p (den first) rest
        | [] -> fail "'/' applied to no arguments")
  | "div", [ _; _ ] ->
    let edge = line1 () in
    Op2
      (fun a b ->
        cov ();
        if as_int b = 0 then edge ();
        Value.of_int (ediv (as_int a) (as_int b)))
  | "mod", [ _; _ ] ->
    let edge = line1 () in
    Op2
      (fun a b ->
        cov ();
        if as_int b = 0 then edge ();
        Value.of_int (emod (as_int a) (as_int b)))
  | "abs", [ _ ] -> Op1 (fun a -> cov (); Value.of_int (abs (as_int a)))
  | ("<" | "<=" | ">" | ">="), [ _; _ ] ->
    let int_cmp, rat_test =
      match name with
      | "<" -> (( < ), fun c -> c < 0)
      | "<=" -> (( <= ), fun c -> c <= 0)
      | ">" -> (( > ), fun c -> c > 0)
      | _ -> (( >= ), fun c -> c >= 0)
    in
    Op2
      (fun a b ->
        match (a, b) with
        | Value.Int x, Value.Int y -> cov (); vbool (int_cmp x y)
        | _ ->
          cov ();
          vbool (rat_test (rat_compare a b)))
  | "<", _ -> Opn (fun vs -> chain_compare cov vs (fun c -> c < 0))
  | "<=", _ -> Opn (fun vs -> chain_compare cov vs (fun c -> c <= 0))
  | ">", _ -> Opn (fun vs -> chain_compare cov vs (fun c -> c > 0))
  | ">=", _ -> Opn (fun vs -> chain_compare cov vs (fun c -> c >= 0))
  | "to_real", [ _ ] ->
    Op1
      (fun a ->
        cov ();
        let n = as_int a in
        Value.mk_real n 1)
  | "to_int", [ _ ] ->
    Op1
      (fun a ->
        cov ();
        let p = num a in
        Value.of_int (ediv p (den a)))
  | "is_int", [ _ ] ->
    Op1
      (fun a ->
        cov ();
        let p = num a in
        vbool (emod p (den a) = 0))
  (* ---- bit-vectors ---- *)
  | "concat", [ _; _ ] ->
    Op2
      (fun a b ->
        cov ();
        let wa = bv_width a and va = bv_value a and wb = bv_width b and vb = bv_value b in
        Value.mk_bv ~width:(wa + wb) ((va lsl wb) lor vb))
  | "bvnot", [ _ ] ->
    Op1
      (fun a ->
        cov ();
        let w = bv_width a and v = bv_value a in
        Value.mk_bv ~width:w (lnot v))
  | "bvneg", [ _ ] ->
    Op1
      (fun a ->
        cov ();
        let w = bv_width a and v = bv_value a in
        Value.mk_bv ~width:w (-v))
  | ("bvand" | "bvor" | "bvxor" | "bvnand" | "bvnor" | "bvxnor"), _ :: _ ->
    let op a b =
      match name with
      | "bvand" -> a land b
      | "bvor" -> a lor b
      | "bvxor" -> a lxor b
      | "bvnand" -> lnot (a land b)
      | "bvnor" -> lnot (a lor b)
      | _ -> lnot (a lxor b)
    in
    let step acc v = op acc (bv_value v) in
    Op1n
      (fun first rest ->
        cov ();
        let w = bv_width first and v0 = bv_value first in
        Value.mk_bv ~width:w (List.fold_left step v0 rest))
  | ("bvadd" | "bvsub" | "bvmul"), _ :: _ ->
    let op = match name with "bvadd" -> ( + ) | "bvsub" -> ( - ) | _ -> ( * ) in
    let step acc v = op acc (bv_value v) in
    Op1n
      (fun first rest ->
        cov ();
        let w = bv_width first and v0 = bv_value first in
        Value.mk_bv ~width:w (List.fold_left step v0 rest))
  | "bvudiv", [ _; _ ] ->
    let edge = line1 () in
    Op2
      (fun a b ->
        cov ();
        let w = bv_width a and va = bv_value a and vb = bv_value b in
        if vb = 0 then (
          edge ();
          Value.mk_bv ~width:w (-1) (* all ones *))
        else Value.mk_bv ~width:w (va / vb))
  | "bvurem", [ _; _ ] ->
    Op2
      (fun a b ->
        cov ();
        let w = bv_width a and va = bv_value a and vb = bv_value b in
        if vb = 0 then Value.mk_bv ~width:w va else Value.mk_bv ~width:w (va mod vb))
  | "bvsdiv", [ _; _ ] ->
    Op2
      (fun a b ->
        cov ();
        let w = bv_width a and va = bv_value a and vb = bv_value b in
        let sa = to_signed w va and sb = to_signed w vb in
        if sb = 0 then Value.mk_bv ~width:w (if sa < 0 then 1 else -1)
        else Value.mk_bv ~width:w (sa / sb))
  | ("bvsrem" | "bvsmod"), [ _; _ ] ->
    Op2
      (fun a b ->
        cov ();
        let w = bv_width a and va = bv_value a and vb = bv_value b in
        let sa = to_signed w va and sb = to_signed w vb in
        if sb = 0 then Value.mk_bv ~width:w va
        else if name = "bvsrem" then Value.mk_bv ~width:w (sa mod sb)
        else (
          (* bvsmod: sign follows the divisor *)
          let r = emod sa (abs sb) in
          Value.mk_bv ~width:w (if sb < 0 && r <> 0 then r - abs sb else r)))
  | "bvshl", [ _; _ ] ->
    Op2
      (fun a b ->
        cov ();
        let w = bv_width a and va = bv_value a and vb = bv_value b in
        Value.mk_bv ~width:w (if vb >= w then 0 else va lsl vb))
  | "bvlshr", [ _; _ ] ->
    Op2
      (fun a b ->
        cov ();
        let w = bv_width a and va = bv_value a and vb = bv_value b in
        Value.mk_bv ~width:w (if vb >= w then 0 else va lsr vb))
  | "bvashr", [ _; _ ] ->
    Op2
      (fun a b ->
        cov ();
        let w = bv_width a and va = bv_value a and vb = bv_value b in
        let sa = to_signed w va in
        Value.mk_bv ~width:w (if vb >= w then if sa < 0 then -1 else 0 else sa asr vb))
  | ("bvult" | "bvule" | "bvugt" | "bvuge"), [ _; _ ] ->
    Op2
      (fun a b ->
        cov ();
        let va = bv_value a and vb = bv_value b in
        let r =
          match name with
          | "bvult" -> va < vb
          | "bvule" -> va <= vb
          | "bvugt" -> va > vb
          | _ -> va >= vb
        in
        vbool r)
  | ("bvslt" | "bvsle" | "bvsgt" | "bvsge"), [ _; _ ] ->
    Op2
      (fun a b ->
        cov ();
        let w = bv_width a and va = bv_value a and vb = bv_value b in
        let sa = to_signed w va and sb = to_signed w vb in
        let r =
          match name with
          | "bvslt" -> sa < sb
          | "bvsle" -> sa <= sb
          | "bvsgt" -> sa > sb
          | _ -> sa >= sb
        in
        vbool r)
  | "bvcomp", [ _; _ ] ->
    Op2 (fun a b -> cov (); Value.mk_bv ~width:1 (if Value.equal a b then 1 else 0))
  | ("bv2nat" | "ubv_to_int"), [ _ ] -> Op1 (fun a -> cov (); Value.of_int (bv_value a))
  (* ---- strings ---- *)
  | "str.++", _ -> Opn (fun vs -> cov (); Value.Str (String.concat "" (List.map as_str vs)))
  | "str.len", [ _ ] -> Op1 (fun s -> cov (); Value.of_int (String.length (as_str s)))
  | "str.at", [ _; _ ] -> Op2 (fun s i -> cov (); Value.Str (str_at (as_str s) (as_int i)))
  | "str.substr", [ _; _; _ ] ->
    Op3 (fun s i n -> cov (); Value.Str (str_substr (as_str s) (as_int i) (as_int n)))
  | "str.indexof", [ _; _; _ ] ->
    Op3 (fun s sub from -> cov (); Value.of_int (str_indexof (as_str s) (as_str sub) (as_int from)))
  | "str.contains", [ _; _ ] ->
    Op2 (fun s sub -> cov (); vbool (str_contains (as_str s) (as_str sub)))
  | "str.prefixof", [ _; _ ] ->
    Op2 (fun p s -> cov (); vbool (O4a_util.Strx.starts_with ~prefix:(as_str p) (as_str s)))
  | "str.suffixof", [ _; _ ] ->
    Op2
      (fun suffix s ->
        cov ();
        let suffix = as_str suffix and s = as_str s in
        let ls = String.length s and lf = String.length suffix in
        vbool (lf <= ls && String.sub s (ls - lf) lf = suffix))
  | "str.replace", [ _; _; _ ] ->
    Op3
      (fun s pat rep ->
        cov ();
        Value.Str (str_replace ~all:false (as_str s) (as_str pat) (as_str rep)))
  | "str.replace_all", [ _; _; _ ] ->
    Op3
      (fun s pat rep ->
        cov ();
        Value.Str (str_replace ~all:true (as_str s) (as_str pat) (as_str rep)))
  | "str.<", [ _; _ ] -> Op2 (fun a b -> cov (); vbool (as_str a < as_str b))
  | "str.<=", [ _; _ ] -> Op2 (fun a b -> cov (); vbool (as_str a <= as_str b))
  | "str.to_int", [ _ ] -> Op1 (fun s -> cov (); Value.of_int (str_to_int (as_str s)))
  | "str.from_int", [ _ ] -> Op1 (fun n -> cov (); Value.Str (str_from_int (as_int n)))
  | "str.to_code", [ _ ] ->
    Op1
      (fun s ->
        cov ();
        let s = as_str s in
        Value.of_int (if String.length s = 1 then Char.code s.[0] else -1))
  | "str.from_code", [ _ ] ->
    Op1
      (fun n ->
        cov ();
        let n = as_int n in
        Value.Str (if n >= 0 && n < 128 then String.make 1 (Char.chr n) else ""))
  | "str.is_digit", [ _ ] ->
    Op1
      (fun s ->
        cov ();
        let s = as_str s in
        vbool (String.length s = 1 && s.[0] >= '0' && s.[0] <= '9'))
  | "str.in_re", [ _; _ ] ->
    Op2
      (fun s r ->
        cov ();
        (* derivative matching can do unbounded work on adversarial regexes; a
           blown node budget is a resource limit, never a verdict *)
        match Regex.matches_bounded ~max_nodes:st.max_steps (as_re r) (as_str s) with
        | Some b -> Value.Bool b
        | None -> raise Out_of_fuel)
  | "str.to_re", [ _ ] -> Op1 (fun s -> cov (); Value.Re (Regex.Lit (as_str s)))
  | "re.++", _ ->
    Opn
      (fun vs ->
        cov ();
        Value.Re (List.fold_left (fun acc v -> Regex.Concat (acc, as_re v)) Regex.Epsilon vs))
  | "re.union", _ ->
    Opn
      (fun vs ->
        cov ();
        Value.Re (List.fold_left (fun acc v -> Regex.Union (acc, as_re v)) Regex.Empty vs))
  | "re.inter", _ :: _ ->
    Op1n
      (fun first rest ->
        cov ();
        Value.Re (List.fold_left (fun acc v -> Regex.Inter (acc, as_re v)) (as_re first) rest))
  | "re.*", [ _ ] -> Op1 (fun r -> cov (); Value.Re (Regex.Star (as_re r)))
  | "re.+", [ _ ] -> Op1 (fun r -> cov (); Value.Re (Regex.plus (as_re r)))
  | "re.opt", [ _ ] -> Op1 (fun r -> cov (); Value.Re (Regex.opt (as_re r)))
  | "re.comp", [ _ ] -> Op1 (fun r -> cov (); Value.Re (Regex.Complement (as_re r)))
  | "re.range", [ _; _ ] ->
    let edge = line1 () in
    Op2
      (fun a b ->
        cov ();
        let a = as_str a and b = as_str b in
        if String.length a = 1 && String.length b = 1 then Value.Re (Regex.Range (a.[0], b.[0]))
        else (
          edge ();
          Value.Re Regex.Empty))
  | "re.diff", [ _; _ ] -> Op2 (fun a b -> cov (); Value.Re (Regex.diff (as_re a) (as_re b)))
  (* ---- arrays ---- *)
  | "select", [ _; _ ] ->
    Op2
      (fun a i ->
        cov ();
        match a with
        | Value.Arr { default; entries; _ } -> lookup i default entries
        | v -> fail "select on non-array %s" (Value.to_term_string v))
  | "store", [ _; _; _ ] ->
    Op3
      (fun a i v ->
        cov ();
        match a with
        | Value.Arr ({ default; entries; _ } as arr) ->
          (* a stored index keeps its first write (a known defect, see
             Value), and an entry never holds the default *)
          if stored i entries || Value.equal v default then a
          else Value.Arr { arr with entries = insert_entry i v entries }
        | v -> fail "store on non-array %s" (Value.to_term_string v))
  (* ---- sequences ---- *)
  | "seq.unit", [ _ ] -> Op1 (fun v -> cov (); Value.Seq (Value.sort_of v, [ v ]))
  | "seq.++", [ _; _ ] ->
    Op2
      (fun a b ->
        cov ();
        match a with
        | Value.Seq (elt, xs) -> Value.Seq (elt, xs @ seq_elems b)
        | v -> expected "Seq" v)
  | "seq.++", _ :: _ ->
    Op1n
      (fun first rest ->
        cov ();
        match first with
        | Value.Seq (elt, xs) -> Value.Seq (elt, xs @ List.concat_map seq_elems rest)
        | v -> expected "Seq" v)
  | "seq.len", [ _ ] -> Op1 (fun s -> cov (); Value.of_int (List.length (seq_elems s)))
  | "seq.nth", [ _; _ ] ->
    let edge = line1 () in
    let default = memo_sort (default_of ctx) in
    Op2
      (fun s i ->
        cov ();
        match s with
        | Value.Seq (elt, xs) ->
          let i = as_int i in
          if i >= 0 && i < List.length xs then List.nth xs i
          else (
            edge ();
            default elt)
        | v -> expected "Seq" v)
  | "seq.extract", [ _; _; _ ] ->
    Op3
      (fun s i n ->
        cov ();
        match s with
        | Value.Seq (elt, xs) ->
          let i = as_int i and n = as_int n in
          if i < 0 || i >= List.length xs || n <= 0 then Value.Seq (elt, [])
          else Value.Seq (elt, O4a_util.Listx.take n (O4a_util.Listx.drop i xs))
        | v -> expected "Seq" v)
  | "seq.update", [ _; _; _ ] ->
    Op3
      (fun s i sub ->
        cov ();
        match s with
        | Value.Seq (elt, xs) ->
          let ys = seq_elems sub in
          let i = as_int i in
          if i < 0 || i >= List.length xs then s
          else (
            let updated =
              List.mapi
                (fun j x ->
                  if j >= i && j - i < List.length ys then List.nth ys (j - i) else x)
                xs
            in
            Value.Seq (elt, updated))
        | v -> expected "Seq" v)
  | "seq.at", [ _; _ ] ->
    Op2
      (fun s i ->
        cov ();
        match s with
        | Value.Seq (elt, xs) ->
          let i = as_int i in
          if i >= 0 && i < List.length xs then Value.Seq (elt, [ List.nth xs i ])
          else Value.Seq (elt, [])
        | v -> expected "Seq" v)
  | "seq.contains", [ _; _ ] ->
    Op2
      (fun s sub ->
        cov ();
        let ys = seq_elems sub in
        vbool (seq_contains (seq_elems s) ys))
  | "seq.prefixof", [ _; _ ] ->
    Op2
      (fun p s ->
        cov ();
        let xs = seq_elems s and ps = seq_elems p in
        vbool (O4a_util.Listx.take (List.length ps) xs = ps))
  | "seq.suffixof", [ _; _ ] ->
    Op2
      (fun p s ->
        cov ();
        let xs = seq_elems s and ps = seq_elems p in
        vbool (O4a_util.Listx.drop (List.length xs - List.length ps) xs = ps))
  | "seq.indexof", [ _; _; _ ] ->
    Op3
      (fun s sub from ->
        cov ();
        Value.of_int (seq_indexof (seq_elems s) (seq_elems sub) (as_int from)))
  | "seq.replace", [ _; _; _ ] ->
    Op3
      (fun s pat rep ->
        cov ();
        match s with
        | Value.Seq (elt, xs) -> Value.Seq (elt, seq_replace xs (seq_elems pat) (seq_elems rep))
        | v -> expected "Seq" v)
  | "seq.rev", [ _ ] ->
    Op1
      (fun s ->
        cov ();
        match s with
        | Value.Seq (elt, xs) -> Value.Seq (elt, List.rev xs)
        | v -> expected "Seq" v)
  (* ---- sets / relations ---- *)
  | "set.singleton", [ _ ] -> Op1 (fun v -> cov (); Value.Set (Value.sort_of v, [ v ]))
  | "set.insert", _ ->
    Opn
      (fun vs ->
        cov ();
        match O4a_util.Listx.last vs with
        | Value.Set (elt, existing) ->
          let elems = Value.normal_elems (O4a_util.Listx.init_segment vs) in
          Value.Set (elt, union elems existing)
        | v -> expected "Set" v)
  | ("set.union" | "set.inter" | "set.minus"), [ _; _ ] ->
    let op = match name with "set.union" -> union | "set.inter" -> inter | _ -> minus in
    Op2
      (fun a b ->
        cov ();
        match a with
        | Value.Set (elt, xs) -> Value.Set (elt, op xs (set_elems b))
        | v -> expected "Set" v)
  | "set.member", [ _; _ ] -> Op2 (fun v s -> cov (); vbool (mem v (set_elems s)))
  | "set.subset", [ _; _ ] ->
    Op2
      (fun a b ->
        cov ();
        let xs = set_elems a and ys = set_elems b in
        vbool (List.for_all (fun x -> mem x ys) xs))
  | "set.card", [ _ ] -> Op1 (fun s -> cov (); Value.of_int (List.length (set_elems s)))
  | "set.complement", [ _ ] ->
    let universe =
      memo_sort (fun elt ->
          Value.normal_elems (Domain.enumerate ~config:ctx.config ~datatypes:ctx.datatypes elt))
    in
    Op1
      (fun s ->
        cov ();
        match s with
        | Value.Set (elt, xs) -> Value.Set (elt, minus (universe elt) xs)
        | v -> expected "Set" v)
  | "set.choose", [ _ ] ->
    let edge = line1 () in
    let default = memo_sort (default_of ctx) in
    Op1
      (fun s ->
        cov ();
        match s with
        | Value.Set (_, v :: _) -> v
        | Value.Set (elt, []) ->
          edge ();
          default elt
        | v -> expected "Set" v)
  | "set.is_empty", [ _ ] -> Op1 (fun s -> cov (); vbool (set_elems s = []))
  | "set.is_singleton", [ _ ] ->
    Op1 (fun s -> cov (); vbool (List.length (set_elems s) = 1))
  | "tuple", _ -> Opn (fun vs -> cov (); Value.Tuple vs)
  | "rel.transpose", [ _ ] ->
    Op1
      (fun r ->
        cov ();
        let elt = set_elt r and xs = set_elems r in
        let flip = function
          | Value.Tuple t -> Value.Tuple (List.rev t)
          | v -> v
        in
        let elt' = match elt with Sort.Tuple ss -> Sort.Tuple (List.rev ss) | s -> s in
        Value.mk_set elt' (List.map flip xs))
  | "rel.product", [ _; _ ] ->
    Op2
      (fun a b ->
        cov ();
        let ea = set_elt a and xs = set_elems a and eb = set_elt b and ys = set_elems b in
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
        Value.mk_set elt pairs)
  | "rel.join", [ _; _ ] ->
    Op2
      (fun a b ->
        cov ();
        let ea = set_elt a and xs = set_elems a and eb = set_elt b and ys = set_elems b in
        match (ea, eb) with
        | Sort.Tuple [], Sort.Tuple _ | Sort.Tuple _, Sort.Tuple [] ->
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
          Value.mk_set elt joined
        | _ -> fail "rel.join on non-relations")
  (* ---- bags ---- *)
  | "bag", [ _; _ ] ->
    Op2
      (fun v n ->
        cov ();
        let n = as_int n in
        Value.Bag (Value.sort_of v, if n > 0 then [ (v, n) ] else []))
  | ( ( "bag.union_max" | "bag.union_disjoint" | "bag.inter_min" | "bag.difference_subtract"
      | "bag.difference_remove" ),
      [ _; _ ] ) ->
    let combine : int -> int -> int =
      match name with
      | "bag.union_max" -> max
      | "bag.union_disjoint" -> ( + )
      | "bag.inter_min" -> min
      | "bag.difference_subtract" -> fun cx cy -> max 0 (cx - cy)
      | _ -> fun cx cy -> if cy > 0 then 0 else cx
    in
    Op2
      (fun a b ->
        cov ();
        match a with
        | Value.Bag (elt, xs) -> Value.Bag (elt, merge_bags combine xs (bag_entries b))
        | v -> expected "Bag" v)
  | "bag.count", [ _; _ ] -> Op2 (fun v b -> cov (); Value.of_int (count v (bag_entries b)))
  | "bag.member", [ _; _ ] -> Op2 (fun v b -> cov (); vbool (count v (bag_entries b) > 0))
  | "bag.card", [ _ ] ->
    Op1
      (fun b ->
        cov ();
        Value.of_int (List.fold_left (fun acc (_, n) -> acc + n) 0 (bag_entries b)))
  | "bag.setof", [ _ ] ->
    Op1
      (fun b ->
        cov ();
        match b with
        | Value.Bag (elt, xs) ->
          Value.Bag (elt, List.map (fun ((v, n) as e) -> if n = 1 then e else (v, 1)) xs)
        | v -> expected "Bag" v)
  | "bag.subbag", [ _; _ ] ->
    Op2
      (fun a b ->
        cov ();
        let xs = bag_entries a and ys = bag_entries b in
        vbool (List.for_all (fun (v, n) -> n <= count v ys) xs))
  | "bag.choose", [ _ ] ->
    let edge = line1 () in
    let default = memo_sort (default_of ctx) in
    Op1
      (fun b ->
        cov ();
        match b with
        | Value.Bag (_, (v, _) :: _) -> v
        | Value.Bag (elt, []) ->
          edge ();
          default elt
        | v -> expected "Bag" v)
  (* ---- finite fields ---- *)
  | ("ff.add" | "ff.mul"), [ _; _ ] ->
    let op = if name = "ff.add" then ( + ) else ( * ) in
    Op2
      (fun a b ->
        cov ();
        let order = ff_order a and x = ff_value a in
        Value.mk_ff ~order (op x (ff_value b)))
  | ("ff.add" | "ff.mul"), _ :: _ ->
    let op = if name = "ff.add" then ( + ) else ( * ) in
    let step acc v = op acc (ff_value v) in
    Op1n
      (fun first rest ->
        cov ();
        let order = ff_order first and v0 = ff_value first in
        Value.mk_ff ~order (List.fold_left step v0 rest))
  | "ff.neg", [ _ ] ->
    Op1
      (fun v ->
        cov ();
        let order = ff_order v and x = ff_value v in
        Value.mk_ff ~order (-x))
  | "ff.bitsum", _ ->
    Opn
      (fun vs ->
        cov ();
        match vs with
        | [] -> fail "ff.bitsum applied to no arguments"
        | first :: _ ->
          let order = ff_order first in
          Value.mk_ff ~order (bitsum 0 1 vs))
  | _, _ ->
    Opn (fun vs -> fail "no evaluation rule for '%s' with %d arguments" name (List.length vs))

let is_bv_numeral name =
  String.length name > 2
  && name.[0] = 'b'
  && name.[1] = 'v'
  && String.for_all (fun c -> c >= '0' && c <= '9') (String.sub name 2 (String.length name - 2))

(* Indexed identifiers, matched on (name, indices, arguments) as the
   tree-walker matched (name, indices, values). *)
let indexed_op ctx name idxs args =
  let st = ctx.st in
  let cov key =
    let i = point ctx key 0 in
    fun () -> hit st i
  in
  match (name, idxs, args) with
  | "extract", [ Term.Idx_num i; Term.Idx_num j ], [ _ ] ->
    let cov = cov "extract" in
    Op1
      (fun bv ->
        cov ();
        let v = bv_value bv in
        let width = i - j + 1 in
        Value.mk_bv ~width (v lsr j))
  | "zero_extend", [ Term.Idx_num k ], [ _ ] ->
    Op1
      (fun bv ->
        let w = bv_width bv and v = bv_value bv in
        Value.mk_bv ~width:(w + k) v)
  | "sign_extend", [ Term.Idx_num k ], [ _ ] ->
    Op1
      (fun bv ->
        let w = bv_width bv and v = bv_value bv in
        let signed = to_signed w v in
        Value.mk_bv ~width:(w + k) signed)
  | "rotate_left", [ Term.Idx_num k ], [ _ ] ->
    Op1
      (fun bv ->
        let w = bv_width bv and v = bv_value bv in
        let k = k mod w in
        Value.mk_bv ~width:w ((v lsl k) lor (v lsr (w - k))))
  | "rotate_right", [ Term.Idx_num k ], [ _ ] ->
    Op1
      (fun bv ->
        let w = bv_width bv and v = bv_value bv in
        let k = k mod w in
        Value.mk_bv ~width:w ((v lsr k) lor (v lsl (w - k))))
  | "repeat", [ Term.Idx_num k ], [ _ ] ->
    Op1
      (fun bv ->
        let w = bv_width bv and v = bv_value bv in
        let rec go n acc = if n = 0 then acc else go (n - 1) ((acc lsl w) lor v) in
        Value.mk_bv ~width:(w * k) (go k 0))
  | "int2bv", [ Term.Idx_num w ], [ _ ] ->
    let cov = cov "int2bv" in
    Op1
      (fun n ->
        cov ();
        Value.mk_bv ~width:w (emod (as_int n) (1 lsl min w 30)))
  | "divisible", [ Term.Idx_num n ], [ _ ] ->
    let cov = cov "divisible" in
    let edge =
      let i = point ctx "divisible" 1 in
      fun () -> hit st i
    in
    Op1
      (fun v ->
        cov ();
        if n = 0 then (
          edge ();
          vbool (as_int v = 0))
        else vbool (emod (as_int v) n = 0))
  | "re.loop", [ Term.Idx_num i; Term.Idx_num j ], [ _ ] ->
    (* unrolled repetitions: clamp the indices so a synthesized loop with a
       huge bound cannot build a regex no derivative budget could chew
       through (domain strings are far shorter than the cap anyway) *)
    let cap n = min n 128 in
    Op1 (fun r -> Value.Re (Regex.loop (cap i) (cap j) (as_re r)))
  | "char", [ Term.Idx_sym code ], [] ->
    Opn
      (fun _ ->
        let n =
          if O4a_util.Strx.starts_with ~prefix:"#x" code then
            int_of_string ("0x" ^ String.sub code 2 (String.length code - 2))
          else 97
        in
        Value.Str (String.make 1 (Char.chr (n land 0x7f))))
  | "tuple.select", [ Term.Idx_num i ], [ _ ] ->
    Op1
      (fun t ->
        match t with
        | Value.Tuple vs -> (
          match List.nth_opt vs i with
          | Some v -> v
          | None -> fail "tuple.select index out of range")
        | v -> fail "tuple.select on non-tuple %s" (Value.to_term_string v))
  | "is", [ Term.Idx_sym ctor ], [ _ ] ->
    let cov = cov "tester" in
    Op1
      (fun v ->
        cov ();
        match v with
        | Value.Dt (_, c, _) -> vbool (c = ctor)
        | _ -> fail "tester applied to non-datatype value")
  | _, [ Term.Idx_num w ], [] when is_bv_numeral name ->
    Opn
      (fun _ ->
        let n = int_of_string (String.sub name 2 (String.length name - 2)) in
        Value.mk_bv ~width:w n)
  | _ -> Opn (fun _ -> fail "cannot evaluate indexed identifier '(_ %s ...)'" name)

(* Qualified identifiers, matched on (name, sort, arguments). A nullary one
   builds its value once, at compile time. *)
let qual_op ctx name sort args =
  let constant v = Opn (fun _ -> v) in
  match (name, sort, args) with
  | "seq.empty", Sort.Seq elt, [] -> constant (Value.Seq (elt, []))
  | "set.empty", Sort.Set elt, [] -> constant (Value.Set (elt, []))
  | "set.universe", Sort.Set elt, [] ->
    let i = point ctx "set.universe" 0 in
    let universe =
      memo (fun () ->
          Value.mk_set elt (Domain.enumerate ~config:ctx.config ~datatypes:ctx.datatypes elt))
    in
    Opn
      (fun _ ->
        hit ctx.st i;
        universe ())
  | "bag.empty", Sort.Bag elt, [] -> constant (Value.Bag (elt, []))
  | "tuple.unit", Sort.Tuple [], [] -> constant unit_tuple
  | "const", Sort.Array (idx, elt), [ _ ] ->
    let i = point ctx "const-array" 0 in
    Op1
      (fun v ->
        hit ctx.st i;
        Value.Arr { idx; elt; default = v; entries = [] })
  | _, Sort.Datatype dt, [] when find_ctor ctx name <> None -> constant (Value.Dt (dt, name, []))
  | _ ->
    Opn (fun _ -> fail "cannot evaluate qualified identifier '(as %s %s)'" name (Sort.to_string sort))

(* --- the compiler -------------------------------------------------- *)

(* [scope] maps the names bound around [term] to their slots, innermost
   first. Compiling never raises and never evaluates: every failure happens
   when the code runs, after the ticks and hits that preceded it in the
   tree-walker. A define-fun body is compiled on its call's first run, in
   the caller's scope (the tree-walker scoped it dynamically). *)
let rec compile_term ctx scope term : code =
  let st = ctx.st in
  match term with
  | Term.Const c -> (
    match eval_const c with
    | v -> fun () -> tick st; v
    | exception _ -> fun () -> tick st; eval_const c)
  | Term.Placeholder _ -> fun () -> tick st; fail "cannot evaluate a placeholder hole"
  | Term.Var name -> compile_var ctx scope name
  | Term.Annot (body, _) ->
    let body = compile_term ctx scope body in
    fun () -> tick st; body ()
  | Term.Let (bindings, body) ->
    let codes = List.map (fun (_, v) -> compile_term ctx scope v) bindings in
    let slots = List.map (fun _ -> new_slot ctx) bindings in
    let scope' =
      List.fold_left2 (fun acc (name, _) slot -> (name, slot) :: acc) scope bindings slots
    in
    let body = compile_term ctx scope' body in
    let binds = Array.of_list (List.combine slots codes) in
    fun () ->
      tick st;
      Array.iter
        (fun (slot, code) ->
          let v = code () in
          st.vals.(slot) <- v)
        binds;
      body ()
  | Term.Forall (binders, body) -> compile_quant ctx scope binders body ~universal:true
  | Term.Exists (binders, body) -> compile_quant ctx scope binders body ~universal:false
  | Term.Qual (name, sort) -> apply st (qual_op ctx name sort []) []
  | Term.Qual_app (name, sort, args) ->
    let codes = List.map (compile_term ctx scope) args in
    apply st (qual_op ctx name sort args) codes
  | Term.Indexed_app (name, idxs, args) ->
    let codes = List.map (compile_term ctx scope) args in
    apply st (indexed_op ctx name idxs args) codes
  | Term.App (name, args) -> compile_app ctx scope name args
  | Term.Match (scrutinee, cases) -> compile_match ctx scope scrutinee cases

(* A name: a bound name, then a zero-arity define-fun, then a nullary RegLan
   or unit tuple, then a nullary constructor. *)
and compile_var ctx scope name =
  let st = ctx.st in
  match List.assoc_opt name scope with
  | Some slot -> fun () -> tick st; st.vals.(slot)
  | None -> (
    match List.find_opt (fun (n, _, _) -> n = name) ctx.defined with
    | Some (_, [], body) ->
      let body = lazy (compile_term ctx scope body) in
      fun () -> tick st; (Lazy.force body) ()
    | Some (_, _, _) -> fun () -> tick st; fail "function '%s' used without arguments" name
    | None -> (
      match Signature.nullary name with
      | Some Sort.Reglan ->
        let i = point ctx name 0 in
        let v =
          Value.Re
            (match name with
            | "re.none" -> Regex.Empty
            | "re.all" -> Regex.All
            | _ -> Regex.Any_char)
        in
        fun () ->
          tick st;
          hit st i;
          v
      | Some (Sort.Tuple []) -> fun () -> tick st; unit_tuple
      | Some _ | None -> (
        match find_ctor ctx name with
        | Some (dt, c) when c.Command.selectors = [] ->
          let v = Value.Dt (dt, name, []) in
          fun () -> tick st; v
        | _ -> fun () -> tick st; fail "no interpretation for symbol '%s'" name)))

(* An application: a define-fun with arguments, then a constructor, then a
   one-argument selector, then an n-ary uninterpreted function, then a
   theory operator by name and arity. *)
and compile_app ctx scope name args =
  let st = ctx.st in
  let codes () = List.map (compile_term ctx scope) args in
  match List.find_opt (fun (n, _, _) -> n = name) ctx.defined with
  | Some (_, params, body) when args <> [] ->
    let codes = codes () in
    if List.compare_lengths params args <> 0 then
      fun () ->
        tick st;
        ignore (eval_all codes);
        invalid_arg "List.map2"
    else (
      let slots = List.map (fun _ -> new_slot ctx) params in
      let scope' = List.map2 (fun (p, _) slot -> (p, slot)) params slots @ scope in
      let body = lazy (compile_term ctx scope' body) in
      let binds = Array.of_list (List.combine slots codes) in
      fun () ->
        tick st;
        Array.iter
          (fun (slot, code) ->
            let v = code () in
            st.vals.(slot) <- v)
          binds;
        (Lazy.force body) ())
  | _ -> (
    match find_ctor ctx name with
    | Some (dt, c) when c.Command.selectors <> [] || args <> [] ->
      let i = point ctx "datatype-ctor" 0 in
      let codes = codes () in
      fun () ->
        tick st;
        hit st i;
        Value.Dt (dt, name, eval_all codes)
    | _ -> (
      match find_selector ctx name with
      | Some (_, c, i, field_sort) when List.length args = 1 ->
        let l0 = point ctx "datatype-sel" 0 and l1 = point ctx "datatype-sel" 1 in
        let arg = compile_term ctx scope (List.hd args) in
        let default = memo (fun () -> default_of ctx field_sort) in
        fun () ->
          tick st;
          hit st l0;
          (match arg () with
          | Value.Dt (_, ctor, fields) when ctor = c.Command.ctor_name -> List.nth fields i
          | Value.Dt _ ->
            hit st l1;
            default ()
          | v -> fail "selector '%s' on non-datatype %s" name (Value.to_term_string v))
      | _ -> (
        match
          List.find_opt
            (fun (d : Script.fun_decl) -> d.name = name && d.arg_sorts <> [])
            ctx.fun_decls
        with
        | Some decl ->
          (* uninterpreted n-ary function: constant interpretation *)
          let i = point ctx "uf-apply" 0 in
          let codes = codes () in
          let value =
            match List.assoc_opt name ctx.funs with
            | Some slot -> fun () -> st.vals.(slot)
            | None -> memo (fun () -> default_of ctx decl.result_sort)
          in
          fun () ->
            tick st;
            hit st i;
            List.iter (fun c -> ignore (c ())) codes;
            value ()
        | None -> apply st (theory_op ctx name args) (codes ()))))

and compile_quant ctx scope binders body ~universal =
  let st = ctx.st in
  let i = point ctx (if universal then "forall" else "exists") 0 in
  let slots = List.map (fun (_, sort) -> (new_slot ctx, sort)) binders in
  let scope' =
    List.fold_left2 (fun acc (name, _) (slot, _) -> (name, slot) :: acc) scope binders slots
  in
  let body = compile_term ctx scope' body in
  let rec expand = function
    | [] -> fun () -> as_bool (body ())
    | (slot, sort) :: rest ->
      let inner = expand rest in
      let domain =
        memo (fun () -> Domain.enumerate ~config:ctx.config ~datatypes:ctx.datatypes sort)
      in
      let test v =
        tick st;
        st.vals.(slot) <- v;
        inner ()
      in
      if universal then fun () -> List.for_all test (domain ())
      else fun () -> List.exists test (domain ())
  in
  let run = expand slots in
  fun () ->
    tick st;
    hit st i;
    vbool (run ())

and compile_match ctx scope scrutinee cases =
  let st = ctx.st in
  let l0 = point ctx "match" 0 and l1 = point ctx "match" 1 in
  let scrutinee = compile_term ctx scope scrutinee in
  let cases =
    List.map
      (fun (pattern, body) ->
        match pattern with
        | Term.P_wildcard -> `Any (compile_term ctx scope body)
        | Term.P_var name ->
          let slot = new_slot ctx in
          `Bind (slot, compile_term ctx ((name, slot) :: scope) body)
        | Term.P_ctor (c, binders) ->
          let slots = List.map (fun _ -> new_slot ctx) binders in
          let scope' = List.combine binders slots @ scope in
          `Ctor (c, List.length binders, slots, compile_term ctx scope' body))
      cases
  in
  fun () ->
    tick st;
    hit st l0;
    match scrutinee () with
    | Value.Dt (_, ctor, fields) as v ->
      let rec first = function
        | [] ->
          hit st l1;
          fail "non-exhaustive match: no case for constructor '%s'" ctor
        | `Any body :: _ -> body ()
        | `Bind (slot, body) :: _ ->
          st.vals.(slot) <- v;
          body ()
        | `Ctor (c, arity, slots, body) :: rest ->
          if c = ctor && arity = List.length fields then (
            List.iter2 (fun slot field -> st.vals.(slot) <- field) slots fields;
            body ())
          else first rest
      in
      first cases
    | v -> fail "match scrutinee is not a datatype value: %s" (Value.to_term_string v)

let compile_bool ctx term =
  let code = compile_term ctx ctx.scope term in
  fun () -> as_bool (code ())

(* The tree-walker's entry points: [env] is the whole scope of [term], and
   the first binding of a name wins. *)
let eval ctx env term =
  let scope = List.map (fun (name, _) -> (name, new_slot ctx)) env in
  List.iter2 (fun (_, slot) (_, v) -> ctx.st.vals.(slot) <- v) scope env;
  compile_term ctx scope term ()

let eval_bool ctx env term = as_bool (eval ctx env term)
