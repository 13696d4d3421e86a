open Smtlib

type outcome =
  | Sat of Model.t
  | Unsat
  | Resource_limit
  | Unknown of string

type order = Ascending | Descending

let sort_cov_key sort =
  match sort with
  | Sort.Bool -> "domain.bool"
  | Sort.Int -> "domain.int"
  | Sort.Real -> "domain.real"
  | Sort.String_sort -> "domain.string"
  | Sort.Reglan -> "domain.reglan"
  | Sort.Bitvec _ -> "domain.bitvec"
  | Sort.Finite_field _ -> "domain.ff"
  | Sort.Seq _ -> "domain.seq"
  | Sort.Set _ -> "domain.set"
  | Sort.Bag _ -> "domain.bag"
  | Sort.Array _ -> "domain.array"
  | Sort.Tuple _ -> "domain.tuple"
  | Sort.Datatype _ -> "domain.datatype"
  | Sort.Uninterpreted _ -> "domain.uninterpreted"

(* A slot is one variable the search assigns: a declared constant, or the
   constant interpretation ("default result") of an n-ary uninterpreted
   function. Only constants take propagated bounds. *)
type slot = {
  name : string;
  sort : Sort.t;
  is_fun : bool;
  bound : Propagate.interval option;
}

(* A leaf that failed at an assertion whose prefix of assertions names no
   slot deeper than [depth]. Every leaf under the same values of slots
   0..[depth] evaluates exactly as this one did, so it is charged, not
   evaluated. *)
type trigger = {
  depth : int;
  cost : int;  (* fuel the leaf used *)
  start : int;  (* step count when the leaf began *)
  consts : (string * Value.t) list;
  funs : (string * Value.t) list;
  mutable hits : ((string * int) * int) list option;
      (* the leaf's coverage calls, recorded the first time a charge needs
         them *)
}

type walk = Found of Model.t | Failed | Repeats of trigger

(* The deepest slot an assertion can read: the highest index among the slots
   it names, or every slot once it names a define-fun (whose body may read
   any of them). A binder that shadows a slot name over-approximates, which
   is safe; an under-approximation would not be. *)
let deepest_slot ~slot_index ~defined ~last term =
  Term.fold
    (fun acc t ->
      match t with
      | Term.Var name
      | Term.App (name, _)
      | Term.Qual (name, _)
      | Term.Qual_app (name, _, _)
      | Term.Indexed_app (name, _, _) ->
        if List.mem name defined then last
        else (
          match Hashtbl.find_opt slot_index name with
          | Some i -> max acc i
          | None -> acc)
      | _ -> acc)
    (-1) term

let solve ?(config = Domain.default_config) ?(max_steps = 200_000)
    ?(order = Ascending) ?cov ?(bounds = []) ?steps_used script =
  let datatypes = Script.declared_datatypes script in
  let decls = Script.declared_funs script in
  let defined_names =
    List.filter_map
      (function Command.Define_fun (n, _, _, _) -> Some n | _ -> None)
      script
  in
  let is_declared (d : Script.fun_decl) =
    (not (List.mem d.name defined_names))
    && not
         (List.exists
            (fun (dt : Command.datatype_decl) ->
              List.exists
                (fun (c : Command.constructor) ->
                  c.ctor_name = d.name
                  || List.exists (fun (s, _) -> s = d.name) c.selectors
                  || "is-" ^ c.ctor_name = d.name)
                dt.constructors)
            datatypes)
  in
  (* constants first, then the n-ary functions, each in declaration order *)
  let slots_of ~is_fun =
    List.filter_map
      (fun (d : Script.fun_decl) ->
        if (d.arg_sorts <> []) = is_fun && is_declared d then
          Some
            {
              name = d.name;
              sort = d.result_sort;
              is_fun;
              bound = (if is_fun then None else List.assoc_opt d.name bounds);
            }
        else None)
      decls
  in
  let slots = Array.of_list (slots_of ~is_fun:false @ slots_of ~is_fun:true) in
  let n = Array.length slots in
  let hit = match cov with Some cov -> fun key line -> cov key line 1 | None -> fun _ _ -> () in
  let assertions = Array.of_list (Script.assertions script) in
  let ctx = Eval.make_ctx ~config ~max_steps ~cov:hit script in
  (* depth.(j): the deepest slot that assertions 0..j read *)
  let depth =
    let slot_index = Hashtbl.create 16 in
    Array.iteri (fun i s -> Hashtbl.replace slot_index s.name i) slots;
    Array.map (deepest_slot ~slot_index ~defined:defined_names ~last:(n - 1)) assertions
  in
  for j = 1 to Array.length depth - 1 do
    depth.(j) <- max depth.(j) depth.(j - 1)
  done;
  (* a slot's domain depends on its sort and bound alone: build it at the
     first visit and reuse it; every visit still reports its coverage *)
  let domains = Array.make n None in
  let domain k =
    match domains.(k) with
    | Some d -> d
    | None ->
      let s = slots.(k) in
      let values = Domain.enumerate ~config ~datatypes s.sort in
      let values =
        match s.bound with Some iv -> Propagate.restrict_domain iv values | None -> values
      in
      let d =
        Array.of_list (match order with Ascending -> values | Descending -> List.rev values)
      in
      domains.(k) <- Some d;
      d
  in
  let visit k =
    let s = slots.(k) in
    hit (sort_cov_key s.sort) 0;
    let d = domain k in
    if s.bound <> None then hit "propagate.bound" 0;
    d
  in
  (* index of the first false assertion under a full assignment *)
  let first_false ctx consts funs =
    ctx.Eval.fun_defaults <- funs;
    let rec go j =
      if j = Array.length assertions then None
      else if Eval.eval_bool ctx consts assertions.(j) then go (j + 1)
      else Some j
    in
    go 0
  in
  let hits_of t =
    match t.hits with
    | Some hits -> hits
    | None ->
      let counts = Hashtbl.create 32 in
      let count key line =
        let c = Option.value ~default:0 (Hashtbl.find_opt counts (key, line)) in
        Hashtbl.replace counts (key, line) (c + 1)
      in
      ignore (first_false { ctx with Eval.cov = count; steps = t.start } t.consts t.funs);
      let hits = Hashtbl.fold (fun key c acc -> (key, c) :: acc) counts [] in
      t.hits <- Some hits;
      hits
  in
  (* Leaf counts saturate at [max_steps + 1]: a block that large cannot fit
     in the fuel left, since every leaf costs at least one step. *)
  let cap = max_steps + 1 in
  let times a b = if a = 0 || b = 0 then 0 else if a > cap / b then cap else a * b in
  (* leaves.(k): the leaves under one value of slot k. Every domain is built
     by the time the first leaf exists. *)
  let leaves =
    lazy
      (let a = Array.make n 1 in
       for k = n - 2 downto 0 do
         a.(k) <- times a.(k + 1) (Array.length (domain (k + 1)))
       done;
       a)
  in
  let fits count t = ctx.steps + times count t.cost <= max_steps in
  (* Account for [r] whole subtrees under values of slot [k], each leaf a
     repeat of [t]: its fuel, its coverage, and one node visit per node. *)
  let bulk k r t =
    let count = times r (Lazy.force leaves).(k) in
    ctx.steps <- ctx.steps + (count * t.cost);
    match cov with
    | None -> ()
    | Some cov ->
      let nodes = ref r in
      for m = k + 1 to n - 1 do
        let s = slots.(m) in
        cov (sort_cov_key s.sort) 0 !nodes;
        if s.bound <> None then cov "propagate.bound" 0 !nodes;
        nodes := !nodes * Array.length (domain m)
      done;
      List.iter (fun ((key, line), c) -> cov key line (c * count)) (hits_of t)
  in
  (* Charge [r] subtrees under values of slot [k]. When the fuel runs out
     inside them, charge sibling by sibling and walk the subtree that does
     not fit for real, down to the leaf that runs out: re-evaluated from the
     exact step count, it raises [Out_of_fuel] at the same tick with the same
     partial coverage as the full walk. *)
  let rec charge k r t =
    if fits (times r (Lazy.force leaves).(k)) t then bulk k r t
    else
      for _ = 1 to r do
        if fits (Lazy.force leaves).(k) t then bulk k 1 t else descend k t
      done
  and descend k t =
    if k = n - 1 then ignore (first_false ctx t.consts t.funs)
    else charge (k + 1) (Array.length (visit (k + 1))) t
  in
  let rec walk k consts funs =
    if k = n then (
      let start = ctx.steps in
      match first_false ctx consts funs with
      | None -> Found { Model.consts; fun_defaults = funs }
      | Some j when depth.(j) < n - 1 ->
        Repeats { depth = depth.(j); cost = ctx.steps - start; start; consts; funs; hits = None }
      | Some _ -> Failed)
    else (
      let s = slots.(k) in
      let values = visit k in
      let rec try_from i =
        if i = Array.length values then Failed
        else (
          let v = values.(i) in
          let consts', funs' =
            if s.is_fun then (consts, (s.name, v) :: funs) else ((s.name, v) :: consts, funs)
          in
          match walk (k + 1) consts' funs' with
          | Found model -> Found model
          | Repeats t when t.depth < k ->
            let r = Array.length values - i - 1 in
            if r > 0 then charge k r t;
            Repeats t
          | Failed | Repeats _ -> try_from (i + 1))
      in
      try_from 0)
  in
  hit "search.entry" 0;
  let outcome =
    match walk 0 [] [] with
    | Found model ->
      hit "search.sat" 0;
      Sat model
    | Failed | Repeats _ ->
      hit "search.unsat" 0;
      Unsat
    | exception Eval.Out_of_fuel -> Resource_limit
    | exception Eval.Eval_failure msg -> Unknown msg
  in
  (match steps_used with Some r -> r := ctx.Eval.steps | None -> ());
  outcome
