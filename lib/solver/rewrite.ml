open Smtlib

type rule = {
  rule_name : string;
  apply : Term.t -> Term.t option;
}

let rule name apply = { rule_name = name; apply }

let is_true = function Term.Const (Term.Bool_lit true) -> true | _ -> false
let is_false = function Term.Const (Term.Bool_lit false) -> true | _ -> false

let int_lit = function Term.Const (Term.Int_lit n) -> Some n | _ -> None

let shared_rules =
  [
    rule "not-not" (function
      | Term.App ("not", [ Term.App ("not", [ t ]) ]) -> Some t
      | _ -> None);
    rule "not-const" (function
      | Term.App ("not", [ t ]) when is_true t -> Some Term.fls
      | Term.App ("not", [ t ]) when is_false t -> Some Term.tru
      | _ -> None);
    rule "and-elim" (function
      | Term.App ("and", args) when List.exists is_false args -> Some Term.fls
      | Term.App ("and", args) when List.exists is_true args -> (
        match List.filter (fun t -> not (is_true t)) args with
        | [] -> Some Term.tru
        | [ t ] -> Some t
        | rest -> Some (Term.and_ rest))
      | _ -> None);
    rule "or-elim" (function
      | Term.App ("or", args) when List.exists is_true args -> Some Term.tru
      | Term.App ("or", args) when List.exists is_false args -> (
        match List.filter (fun t -> not (is_false t)) args with
        | [] -> Some Term.fls
        | [ t ] -> Some t
        | rest -> Some (Term.or_ rest))
      | _ -> None);
    rule "eq-refl" (function
      | Term.App ("=", [ a; b ]) when Term.equal a b && Term.size a <= 8 -> Some Term.tru
      | _ -> None);
    rule "ite-const" (function
      | Term.App ("ite", [ c; a; _ ]) when is_true c -> Some a
      | Term.App ("ite", [ c; _; b ]) when is_false c -> Some b
      | Term.App ("ite", [ _; a; b ]) when Term.equal a b -> Some a
      | _ -> None);
    rule "implies-true" (function
      | Term.App ("=>", [ a; b ]) when is_false a || is_true b -> Some Term.tru
      | Term.App ("=>", [ a; b ]) when is_true a -> Some b
      | _ -> None);
    rule "xor-self" (function
      | Term.App ("xor", [ a; b ]) when Term.equal a b -> Some Term.fls
      | _ -> None);
  ]

let arith_fold_rules =
  [
    rule "add-zero" (function
      | Term.App ("+", args) when List.exists (fun t -> int_lit t = Some 0) args
                                  && List.length args > 1 -> (
        match List.filter (fun t -> int_lit t <> Some 0) args with
        | [] -> Some (Term.int 0)
        | [ t ] -> Some t
        | rest -> Some (Term.app "+" rest))
      | _ -> None);
    rule "mul-one" (function
      | Term.App ("*", args) when List.exists (fun t -> int_lit t = Some 1) args
                                  && List.length args > 1 -> (
        match List.filter (fun t -> int_lit t <> Some 1) args with
        | [] -> Some (Term.int 1)
        | [ t ] -> Some t
        | rest -> Some (Term.app "*" rest))
      | _ -> None);
    rule "mul-zero" (function
      | Term.App ("*", args) when List.exists (fun t -> int_lit t = Some 0) args ->
        Some (Term.int 0)
      | _ -> None);
    rule "fold-int-add" (function
      | Term.App ("+", args) -> (
        match List.map int_lit args with
        | lits when List.for_all Option.is_some lits ->
          Some (Term.int (List.fold_left (fun a v -> a + Option.get v) 0 lits))
        | _ -> None)
      | _ -> None);
    rule "fold-int-cmp" (function
      | Term.App (("<" | "<=" | ">" | ">=") as op, [ a; b ]) -> (
        match (int_lit a, int_lit b) with
        | Some x, Some y ->
          let r =
            match op with "<" -> x < y | "<=" -> x <= y | ">" -> x > y | _ -> x >= y
          in
          Some (if r then Term.tru else Term.fls)
        | _ -> None)
      | _ -> None);
    rule "neg-neg" (function
      | Term.App ("-", [ Term.App ("-", [ t ]) ]) -> Some t
      | _ -> None);
  ]

let flatten_rules =
  [
    rule "flatten-and" (function
      | Term.App ("and", args)
        when List.exists (function Term.App ("and", _) -> true | _ -> false) args ->
        let flat =
          List.concat_map
            (function Term.App ("and", inner) -> inner | t -> [ t ])
            args
        in
        Some (Term.and_ flat)
      | _ -> None);
    rule "flatten-or" (function
      | Term.App ("or", args)
        when List.exists (function Term.App ("or", _) -> true | _ -> false) args ->
        let flat =
          List.concat_map (function Term.App ("or", inner) -> inner | t -> [ t ]) args
        in
        Some (Term.or_ flat)
      | _ -> None);
  ]

let string_rules =
  [
    rule "concat-str-lits" (function
      | Term.App ("str.++", args)
        when List.for_all
               (function Term.Const (Term.String_lit _) -> true | _ -> false)
               args ->
        let text =
          String.concat ""
            (List.map
               (function Term.Const (Term.String_lit s) -> s | _ -> "")
               args)
        in
        Some (Term.str text)
      | _ -> None);
    rule "len-str-lit" (function
      | Term.App ("str.len", [ Term.Const (Term.String_lit s) ]) ->
        Some (Term.int (String.length s))
      | _ -> None);
  ]

let extension_rules =
  [
    rule "seq-rev-rev" (function
      | Term.App ("seq.rev", [ Term.App ("seq.rev", [ s ]) ]) -> Some s
      | _ -> None);
    rule "seq-len-empty" (function
      | Term.App ("seq.len", [ Term.Qual ("seq.empty", _) ]) -> Some (Term.int 0)
      | _ -> None);
    rule "set-union-idem" (function
      | Term.App ("set.union", [ a; b ]) when Term.equal a b -> Some a
      | _ -> None);
    rule "set-inter-idem" (function
      | Term.App ("set.inter", [ a; b ]) when Term.equal a b -> Some a
      | _ -> None);
    rule "bag-count-empty" (function
      | Term.App ("bag.count", [ _; Term.Qual ("bag.empty", _) ]) -> Some (Term.int 0)
      | _ -> None);
    rule "ff-neg-neg" (function
      | Term.App ("ff.neg", [ Term.App ("ff.neg", [ t ]) ]) -> Some t
      | _ -> None);
  ]

let bv_rules =
  [
    rule "bvnot-bvnot" (function
      | Term.App ("bvnot", [ Term.App ("bvnot", [ t ]) ]) -> Some t
      | _ -> None);
    rule "bvxor-self" (function
      | Term.App ("bvxor", [ a; b ]) when Term.equal a b -> (
        match a with
        | Term.Const (Term.Bv_lit { width; _ }) -> Some (Term.bv ~width 0)
        | _ -> None)
      | _ -> None);
  ]

let normalize_rules =
  [
    rule "gt-to-lt" (function
      | Term.App (">", [ a; b ]) -> Some (Term.App ("<", [ b; a ]))
      | Term.App (">=", [ a; b ]) -> Some (Term.App ("<=", [ b; a ]))
      | _ -> None);
    rule "push-not-cmp" (function
      | Term.App ("not", [ Term.App ("<", [ a; b ]) ]) -> Some (Term.App ("<=", [ b; a ]))
      | Term.App ("not", [ Term.App ("<=", [ a; b ]) ]) -> Some (Term.App ("<", [ b; a ]))
      | _ -> None);
  ]

let zeal_rules = shared_rules @ arith_fold_rules @ flatten_rules @ string_rules @ bv_rules

let cove_rules = shared_rules @ normalize_rules @ string_rules @ extension_rules

let apply_first rules fired t =
  let rec go = function
    | [] -> None
    | r :: rest -> (
      match r.apply t with
      | Some t' when not (Term.equal t t') ->
        fired r.rule_name;
        Some t'
      | Some _ | None -> go rest)
  in
  go rules

let simplify ~rules ~fired term =
  let changed = ref false in
  let rewrite_node t =
    match apply_first rules fired t with
    | Some t' ->
      changed := true;
      t'
    | None -> t
  in
  let rec passes n t =
    if n <= 0 then t
    else (
      changed := false;
      let t' = Term.map_bottom_up rewrite_node t in
      if !changed then passes (n - 1) t' else t')
  in
  passes 4 term

let rule_names rules = List.map (fun r -> r.rule_name) rules
