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
  vals : Value.t array;  (* the leaf's slot values *)
  mutable hits : (int * int) list option;
      (* the leaf's (counter, hits), recorded the first time a charge needs
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
  (* slot k of the search is slot k of the context; a later slot of the same
     name shadows an earlier one, so the deepest assignment of a name wins *)
  let ctx = Eval.make_ctx ~config ~max_steps script in
  let st = Eval.state ctx in
  Array.iter
    (fun s -> if s.is_fun then Eval.bind_fun ctx s.name else Eval.bind ctx s.name)
    slots;
  let assertions = Array.of_list (Script.assertions script) in
  let tests = Array.map (Eval.compile_bool ctx) assertions in
  let hit i by =
    let c = st.counts in
    c.(i) <- c.(i) + by
  in
  let entry = Eval.point ctx "search.entry" 0
  and sat = Eval.point ctx "search.sat" 0
  and unsat = Eval.point ctx "search.unsat" 0
  and bound = Eval.point ctx "propagate.bound" 0 in
  let decision = Array.map (fun s -> Eval.point ctx (sort_cov_key s.sort) 0) slots in
  (* depth.(j): the deepest slot that assertions 0..j read *)
  let depth =
    let slot_index = Hashtbl.create 16 in
    Array.iteri (fun i s -> Hashtbl.replace slot_index s.name i) slots;
    Array.map (deepest_slot ~slot_index ~defined:defined_names ~last:(n - 1)) assertions
  in
  for j = 1 to Array.length depth - 1 do
    depth.(j) <- max depth.(j) depth.(j - 1)
  done;
  (* a slot's domain depends on its sort and bound alone *)
  let domains =
    Array.map
      (fun s ->
        let values = Domain.enumerate ~config ~datatypes s.sort in
        let values =
          match s.bound with Some iv -> Propagate.restrict_domain iv values | None -> values
        in
        Array.of_list (match order with Ascending -> values | Descending -> List.rev values))
      slots
  in
  let visit k =
    hit decision.(k) 1;
    if slots.(k).bound <> None then hit bound 1;
    domains.(k)
  in
  (* index of the first false assertion under the slots' current values *)
  let first_false () =
    let rec go j =
      if j = Array.length tests then None else if tests.(j) () then go (j + 1) else Some j
    in
    go 0
  in
  let replay t =
    Array.blit t.vals 0 st.vals 0 n;
    first_false ()
  in
  let hits_of t =
    match t.hits with
    | Some hits -> hits
    | None ->
      let hits = Eval.recount ctx ~steps:t.start (fun () -> ignore (replay t)) in
      t.hits <- Some hits;
      hits
  in
  (* Leaf counts saturate at [max_steps + 1]: a block that large cannot fit
     in the fuel left, since every leaf costs at least one step. *)
  let cap = max_steps + 1 in
  let times a b = if a = 0 || b = 0 then 0 else if a > cap / b then cap else a * b in
  (* leaves.(k): the leaves under one value of slot k *)
  let leaves =
    let a = Array.make n 1 in
    for k = n - 2 downto 0 do
      a.(k) <- times a.(k + 1) (Array.length domains.(k + 1))
    done;
    a
  in
  let fits count t = st.steps + times count t.cost <= max_steps in
  (* Account for [r] whole subtrees under values of slot [k], each leaf a
     repeat of [t]: its fuel, its coverage, and one node visit per node. *)
  let bulk k r t =
    let count = times r leaves.(k) in
    st.steps <- st.steps + (count * t.cost);
    if cov <> None then (
      let nodes = ref r in
      for m = k + 1 to n - 1 do
        hit decision.(m) !nodes;
        if slots.(m).bound <> None then hit bound !nodes;
        nodes := !nodes * Array.length domains.(m)
      done;
      List.iter (fun (i, c) -> hit i (c * count)) (hits_of t))
  in
  (* Charge [r] subtrees under values of slot [k]. When the fuel runs out
     inside them, charge sibling by sibling and walk the subtree that does
     not fit for real, down to the leaf that runs out: re-evaluated from the
     exact step count, it raises [Out_of_fuel] at the same tick with the same
     partial coverage as the full walk. *)
  let rec charge k r t =
    if fits (times r leaves.(k)) t then bulk k r t
    else
      for _ = 1 to r do
        if fits leaves.(k) t then bulk k 1 t else descend k t
      done
  and descend k t =
    if k = n - 1 then ignore (replay t)
    else charge (k + 1) (Array.length (visit (k + 1))) t
  in
  let model () =
    let consts = ref [] and funs = ref [] in
    Array.iteri
      (fun k s ->
        if s.is_fun then funs := (s.name, st.vals.(k)) :: !funs
        else consts := (s.name, st.vals.(k)) :: !consts)
      slots;
    { Model.consts = !consts; fun_defaults = !funs }
  in
  let rec walk k =
    if k = n then (
      let start = st.steps in
      match first_false () with
      | None -> Found (model ())
      | Some j when depth.(j) < n - 1 ->
        Repeats
          {
            depth = depth.(j);
            cost = st.steps - start;
            start;
            vals = Array.sub st.vals 0 n;
            hits = None;
          }
      | Some _ -> Failed)
    else (
      let values = visit k in
      let rec try_from i =
        if i = Array.length values then Failed
        else (
          st.vals.(k) <- values.(i);
          match walk (k + 1) with
          | Found model -> Found model
          | Repeats t when t.depth < k ->
            let r = Array.length values - i - 1 in
            if r > 0 then charge k r t;
            Repeats t
          | Failed | Repeats _ -> try_from (i + 1))
      in
      try_from 0)
  in
  let flush () = match cov with Some cov -> Eval.flush ctx cov | None -> () in
  let outcome =
    Fun.protect ~finally:flush @@ fun () ->
    hit entry 1;
    (* a slot with no value leaves nothing to assign above it *)
    if Array.exists (fun d -> Array.length d = 0) domains then (
      hit unsat 1;
      Unsat)
    else
      match walk 0 with
      | Found model ->
        hit sat 1;
        Sat model
      | Failed | Repeats _ ->
        hit unsat 1;
        Unsat
      | exception Eval.Out_of_fuel -> Resource_limit
      | exception Eval.Eval_failure msg -> Unknown msg
  in
  (match steps_used with Some r -> r := st.steps | None -> ());
  outcome
