open Smtlib
module Rng = O4a_util.Rng
module Generator = Gensynth.Generator
module Trace = O4a_trace.Trace
module Names = Set.Make (String)

(* the adapt stage is deep inside hole-filling, far from any [?telemetry]
   parameter, so it reads the ambient handle *)
let adapt_span f = O4a_telemetry.Telemetry.with_span (O4a_telemetry.Telemetry.global ()) "adapt" f

type filled = {
  source : string;
  parsed : Script.t option;
  theories_spliced : string list;
}

(* one hole's content after generation *)
type hole_fill =
  | Ast of { term : Term.t; decls : Command.t list }
  | Raw of { text : string; decl_lines : string list }

let note_fill ~hole ~theory ~sort fill =
  if Trace.noting () then
    Trace.note
      (Trace.Hole_filled
         {
           hole;
           theory;
           sort;
           raw = (match fill with Raw _ -> true | Ast _ -> false);
         })

let parse_decl_commands lines =
  match Parser.parse_script (String.concat "\n" lines) with
  | Ok cmds -> Some cmds
  | Error _ -> None

let decl_vars cmds =
  List.filter_map
    (function
      | Command.Declare_fun (n, [], s) | Command.Declare_const (n, s) -> Some (n, s)
      | _ -> None)
    cmds

let rename_clashes ~taken term decls =
  (* suffix generated names that clash with seed symbols *)
  List.fold_left
    (fun (term, decls, taken) (name, _sort) ->
      if Names.mem name taken then (
        let rec fresh i =
          let candidate = Printf.sprintf "%s_g%d" name i in
          if Names.mem candidate taken then fresh (i + 1) else candidate
        in
        let name' = fresh 0 in
        let term = Term.rename_var ~old_name:name ~new_name:name' term in
        let decls =
          List.map
            (function
              | Command.Declare_fun (n, [], s) when n = name ->
                Command.Declare_fun (name', [], s)
              | Command.Declare_const (n, s) when n = name ->
                Command.Declare_const (name', s)
              | c -> c)
            decls
        in
        (term, decls, Names.add name' taken))
      else (term, decls, Names.add name taken))
    (term, decls, taken)
    (decl_vars decls)

(* One generator emission as a hole's fill: parsed, its names renamed
   apart from [taken] and adapted to the seed's variables, or, when it does
   not parse, its raw text spliced as is. *)
let fill_of_emission ~rng ~swap_prob ~seed_vars ~taken ~datatypes
    (emitted : Generator.emitted) =
  match
    ( Parser.parse_term ~datatypes emitted.Generator.term,
      parse_decl_commands emitted.Generator.decls )
  with
  | Ok term, Some decls ->
    let term, decls, taken = rename_clashes ~taken term decls in
    let term_vars = decl_vars decls in
    let term, remaining =
      adapt_span (fun () -> Adapt.adapt ~rng ~swap_prob ~seed_vars ~term_vars term)
    in
    (* drop declarations of variables adapted away *)
    let decls =
      List.filter
        (function
          | Command.Declare_fun (n, [], _) | Command.Declare_const (n, _) ->
            List.mem n remaining
          | _ -> true)
        decls
    in
    (Ast { term; decls }, taken)
  | _, _ ->
    (* ill-formed generator output: splice the raw text *)
    (Raw { text = emitted.Generator.term; decl_lines = emitted.Generator.decls }, taken)

let substitute_raw source fills =
  (* replace the i-th textual "<placeholder>" with the i-th raw text *)
  let marker = "<placeholder>" in
  let buf = Buffer.create (String.length source) in
  let n = String.length source and m = String.length marker in
  let rec marker_at i k = k = m || (source.[i + k] = marker.[k] && marker_at i (k + 1)) in
  let rec go i fills =
    if i >= n then ()
    else if i + m <= n && marker_at i 0 then (
      let text, rest =
        match fills with
        | Raw { text; _ } :: rest -> (text, rest)
        | Ast _ :: rest -> ("true", rest)
        | [] -> ("true", [])
      in
      Buffer.add_string buf text;
      go (i + m) rest)
    else (
      Buffer.add_char buf source.[i];
      go (i + 1) fills)
  in
  go 0 fills;
  Buffer.contents buf

let assemble ~skeleton ~fills =
  let theories_spliced = O4a_util.Listx.dedup (List.map fst fills) in
  let fill_terms = List.map snd fills in
  (* splice AST fills, consumed in placeholder order; leave raw fills as
     placeholders for the text pass *)
  let pending = ref fill_terms in
  let script_with_ast =
    Script.map_assertions
      (fun assertion ->
        Term.map_bottom_up
          (fun node ->
            match (node, !pending) with
            | Term.Placeholder _, fill :: rest -> (
              pending := rest;
              match fill with Ast { term; _ } -> term | Raw _ -> node)
            | _ -> node)
          assertion)
      skeleton
  in
  (* add declarations needed by AST fills *)
  let ast_decls =
    List.concat_map (function Ast { decls; _ } -> decls | Raw _ -> []) fill_terms
  in
  let script_with_ast = Script.add_declarations script_with_ast ast_decls in
  let text = Printer.script script_with_ast in
  let raw_decl_lines =
    List.concat_map
      (function Raw { decl_lines; _ } -> decl_lines | Ast _ -> [])
      fill_terms
  in
  let raw_fills = List.filter (function Raw _ -> true | Ast _ -> false) fill_terms in
  let source =
    if raw_fills = [] then text
    else (
      let substituted = substitute_raw text raw_fills in
      String.concat "\n" (O4a_util.Listx.dedup raw_decl_lines @ [ substituted ]))
  in
  let parsed = Result.to_option (Parser.parse_script source) in
  if Trace.noting () then
    Trace.note
      (Trace.Synthesized
         {
           bytes = String.length source;
           parse_ok = parsed <> None;
           theories = theories_spliced;
         });
  { source; parsed; theories_spliced }

let fill ?(swap_prob = 0.55) ~rng ~generators ~skeleton ~holes () =
  let seed_vars = Script.declared_consts skeleton in
  let taken = Names.of_list (Script.symbol_names skeleton) in
  let fills_rev, _ =
    List.fold_left
      (fun (fills, taken) hole ->
        let generator = Rng.choose rng generators in
        let fill, taken =
          match Generator.generate generator ~rng with
          | exception Failure _ -> (Raw { text = "true"; decl_lines = [] }, taken)
          | emitted ->
            let datatypes =
              if generator.Generator.theory.Theories.Theory.id = Theories.Theory.Datatypes
              then [ "Lst" ]
              else []
            in
            fill_of_emission ~rng ~swap_prob ~seed_vars ~taken ~datatypes emitted
        in
        let theory = generator.Generator.theory.Theories.Theory.key in
        note_fill ~hole ~theory ~sort:None fill;
        ((theory, fill) :: fills, taken))
      ([], taken)
      (O4a_util.Listx.range 0 (holes - 1))
  in
  assemble ~skeleton ~fills:(List.rev fills_rev)

(* ---------------- Mixed-sorts extension (paper 5.3) ---------------- *)

(* a last-resort constant of the requested sort when no generator covers it *)
let fallback_term_of_sort sort =
  Solver.Domain.default_value ~datatypes:[] sort |> Solver.Value.to_term_string

let fill_typed ?(swap_prob = 0.55) ~rng ~generators ~skeleton ~hole_sorts () =
  let seed_vars = Script.declared_consts skeleton in
  let taken = Names.of_list (Script.symbol_names skeleton) in
  let fills_rev, _ =
    List.fold_left
      (fun (fills, taken) (hole, sort) ->
        let sort_str = Some (Sort.to_string sort) in
        let fallback () =
          let fill = Raw { text = fallback_term_of_sort sort; decl_lines = [] } in
          note_fill ~hole ~theory:"core" ~sort:sort_str fill;
          (("core", fill) :: fills, taken)
        in
        let candidates =
          List.filter (fun g -> Generator.supports_sort g sort) generators
        in
        match candidates with
        | [] -> fallback ()
        | _ -> (
          let generator = Rng.choose rng candidates in
          match Generator.generate_of_sort generator ~rng sort with
          | Some emitted ->
            let datatypes = if sort = Sort.Datatype "Lst" then [ "Lst" ] else [] in
            let fill, taken =
              fill_of_emission ~rng ~swap_prob ~seed_vars ~taken ~datatypes emitted
            in
            let theory = generator.Generator.theory.Theories.Theory.key in
            note_fill ~hole ~theory ~sort:sort_str fill;
            ((theory, fill) :: fills, taken)
          | None -> fallback ()))
      ([], taken) hole_sorts
  in
  let fills = List.rev fills_rev in
  assemble ~skeleton ~fills

let direct ~rng ~generators ~terms =
  let emissions_and_keys =
    List.init (max 1 terms) (fun _ ->
        let generator = Rng.choose rng generators in
        match Generator.generate generator ~rng with
        | emitted -> Some (generator.Generator.theory.Theories.Theory.key, emitted)
        | exception Failure _ -> None)
    |> List.filter_map Fun.id
  in
  let source =
    Generator.render_script (List.map snd emissions_and_keys)
  in
  let parsed = Result.to_option (Parser.parse_script source) in
  let theories_spliced = O4a_util.Listx.dedup (List.map fst emissions_and_keys) in
  if Trace.noting () then (
    Trace.note
      (Trace.Direct_generated
         { terms = List.length emissions_and_keys; theories = theories_spliced });
    Trace.note
      (Trace.Synthesized
         {
           bytes = String.length source;
           parse_ok = parsed <> None;
           theories = theories_spliced;
         }));
  { source; parsed; theories_spliced }
