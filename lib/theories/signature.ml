open Smtlib

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

(* The families in a fixed order: core, arithmetic, bit-vectors, strings
   and regular expressions, arrays, sequences, sets and relations, bags
   ([bag] itself is the constructor, hence no dot), finite fields. Matching
   the exact names first keeps that order, because none of them starts with
   the prefix of an earlier family. *)
let app name sorts =
  match name with
  | "not" | "and" | "or" | "xor" | "=>" | "=" | "distinct" | "ite" -> core name sorts
  | "+" | "-" | "*" | "/" | "div" | "mod" | "abs" | "<" | "<=" | ">" | ">=" | "to_real"
  | "to_int" | "is_int" ->
    arith name sorts
  | "concat" | "ubv_to_int" -> bitvec name sorts
  | "select" | "store" -> arrays name sorts
  | "tuple" -> sets name sorts
  | _ ->
    let has prefix = O4a_util.Strx.starts_with ~prefix name in
    if has "bv" then bitvec name sorts
    else if has "str." || has "re." then strings name sorts
    else if has "seq." then seq name sorts
    else if has "set." || has "rel." then sets name sorts
    else if has "bag" then bags name sorts
    else if has "ff." then finite_fields name sorts
    else err "unknown constant or function symbol '%s'" name

let is_bv_value name =
  String.length name > 2
  && name.[0] = 'b'
  && name.[1] = 'v'
  && String.for_all (fun c -> c >= '0' && c <= '9') (String.sub name 2 (String.length name - 2))

let indexed name idxs sorts =
  match (name, idxs, sorts) with
  | "extract", [ Term.Idx_num i; Term.Idx_num j ], [ Sort.Bitvec w ] ->
    if i >= j && j >= 0 && i < w then ok (Sort.Bitvec (i - j + 1))
    else err "invalid extract indices [%d:%d] on a bit-vector of width %d" i j w
  | "extract", _, _ -> err "wrong usage of '(_ extract i j)'"
  | ("zero_extend" | "sign_extend"), [ Term.Idx_num k ], [ Sort.Bitvec w ] ->
    if k >= 0 then ok (Sort.Bitvec (w + k)) else err "negative extension amount"
  | ("rotate_left" | "rotate_right"), [ Term.Idx_num _ ], [ Sort.Bitvec w ] ->
    ok (Sort.Bitvec w)
  | "repeat", [ Term.Idx_num k ], [ Sort.Bitvec w ] ->
    if k >= 1 then ok (Sort.Bitvec (w * k)) else err "repeat count must be positive"
  | "int2bv", [ Term.Idx_num w ], [ Sort.Int ] ->
    if w >= 1 then ok (Sort.Bitvec w) else err "invalid bit-vector width %d" w
  | "divisible", [ Term.Idx_num n ], [ Sort.Int ] ->
    if n >= 1 then ok Sort.Bool else err "divisible requires a positive index"
  | "re.loop", [ Term.Idx_num _; Term.Idx_num _ ], [ Sort.Reglan ] -> ok Sort.Reglan
  | "char", [ Term.Idx_sym _ ], [] -> ok Sort.String_sort
  | "tuple.select", [ Term.Idx_num i ], [ Sort.Tuple ss ] -> (
    match List.nth_opt ss i with
    | Some s -> ok s
    | None -> err "tuple.select index %d out of bounds for %s" i (sort_str (Sort.Tuple ss)))
  | _, [ Term.Idx_num w ], [] when is_bv_value name ->
    if w >= 1 then ok (Sort.Bitvec w) else err "invalid bit-vector width %d" w
  | _ ->
    err "unknown or malformed indexed identifier '(_ %s %s)' applied to %s" name
      (String.concat " " (List.map (function Term.Idx_num n -> string_of_int n | Term.Idx_sym s -> s) idxs))
      (String.concat " " (List.map sort_str sorts))

let qual name sort sorts =
  match (name, sort, sorts) with
  | "seq.empty", Sort.Seq _, [] -> ok sort
  | "set.empty", Sort.Set _, [] -> ok sort
  | "set.universe", Sort.Set _, [] -> ok sort
  | "bag.empty", Sort.Bag _, [] -> ok sort
  | "tuple.unit", Sort.Tuple [], [] -> ok sort
  | "const", Sort.Array (_, e), [ e' ] when Sort.equal e e' -> ok sort
  | "const", Sort.Array (_, e), [ got ] ->
    err "the constant array's element sort %s does not match the value sort %s"
      (sort_str e) (sort_str got)
  | _ ->
    err "unknown or malformed qualified identifier '(as %s %s)' applied to %d arguments"
      name (sort_str sort) (List.length sorts)

let nullary = function
  | "re.none" | "re.all" | "re.allchar" -> Some Sort.Reglan
  | "tuple.unit" -> Some (Sort.Tuple [])
  | _ -> None

let known_plain =
  [ "not"; "and"; "or"; "xor"; "=>"; "="; "distinct"; "ite"; "+"; "-"; "*"; "/"; "div";
    "mod"; "abs"; "<"; "<="; ">"; ">="; "to_real"; "to_int"; "is_int"; "concat"; "select";
    "store"; "tuple"; "bag"; "ubv_to_int"; "bv2nat" ]

let known_prefixes = [ "bv"; "str."; "re."; "seq."; "set."; "rel."; "bag."; "ff." ]

let known_indexed =
  [ "extract"; "zero_extend"; "sign_extend"; "rotate_left"; "rotate_right"; "repeat";
    "int2bv"; "divisible"; "re.loop"; "char"; "tuple.select"; "is" ]

let known_qual = [ "seq.empty"; "set.empty"; "set.universe"; "bag.empty"; "tuple.unit"; "const" ]

let is_known_op name =
  List.mem name known_plain
  || List.mem name known_indexed
  || List.mem name known_qual
  || nullary name <> None
  || List.exists (fun p -> O4a_util.Strx.starts_with ~prefix:p name) known_prefixes
