(* The SMT-LIB front end against the one it replaced, kept in
   test/reference/frontend.ml. On the corpus seeds, the bug witnesses,
   pinned streams of synthesized formulas, hand-written corners and mutated
   or truncated copies of all their text, [Lexer.read_sexps] must give the
   reference's S-expressions or its error message, the printer its bytes,
   the sort checker its results and messages, [Engine.parse_check] its
   verdicts, and [Signature.app] its result for every operator name crossed
   with the argument sorts the inputs use. A fixture written by the build
   before the one-pass reader pins the front end's output on four pinned
   streams across builds. *)

open Smtlib
module Ref = Reference.Frontend
module Typecheck = Theories.Typecheck
module Signature = Theories.Signature
module Engine = Solver.Engine
module Synthesize = Once4all.Synthesize

let lexed read text =
  match read text with sexps -> Ok sexps | exception Lexer.Lex_error m -> Error m

let brief text = String.escaped (O4a_util.Strx.truncate_mid 300 text)

(* ------------------------------------------------------------------ *)
(* Inputs                                                             *)
(* ------------------------------------------------------------------ *)

(* [Fuzz_stream.boolean] at seeds 1-4 (the fixture's streams) and
   [any_synthesis] at seeds 1-2, 500 ticks each *)
let boolean_streams =
  lazy (List.map (fun seed -> (seed, Fuzz_stream.stream ~seed ~ticks:500 ())) [ 1; 2; 3; 4 ])

let mixed_streams =
  lazy
    (List.map
       (fun seed -> Fuzz_stream.stream ~mutate:Fuzz_stream.any_synthesis ~seed ~ticks:500 ())
       [ 1; 2 ])

let stream_sources () =
  List.concat_map (List.map (fun (f : Synthesize.filled) -> f.Synthesize.source))
    (List.map snd (Lazy.force boolean_streams) @ Lazy.force mixed_streams)

(* Declarations a table could get wrong, and the lexer's error priority. *)
let corners =
  [
    (* a declared fun named like a datatype's tester, before and after the
       datatype: testers are outside the duplicate check, and the first
       declaration of a name wins *)
    "(declare-datatypes ((D 0)) ((C)))(declare-fun is-C (Int) Int)(assert (= (is-C 1) 1))";
    "(declare-fun is-C (Int) Int)(declare-datatypes ((D 0)) ((C)))(assert (= (is-C 1) 1))";
    "(declare-fun is-C (Int) Int)(declare-datatypes ((D 0)) ((C)))(declare-const d D)\
     (assert (is-C d))";
    (* an application with no arguments *)
    "(declare-const f Bool)(assert (f))";
    (* a duplicate is named in the command's own order *)
    "(declare-const b Int)(declare-const a Int)\
     (declare-datatypes ((L 0)) (((a) (b))))";
    (* a lexical error after an unbalanced parenthesis wins over it *)
    "(assert true)) #";
    "(assert true))\n(assert |x";
    ") \"open";
    "(assert (= x 1)";
    "(a)) ; comment\n)";
    "3x";
    "1.";
    "1.5x";
    "#";
    "#xg";
    "#x1g";
    "#b";
    ":";
    "(a ; comment\n b)";
    "(f |a b| \"a\"\"b\" #xFf #b01 :k 0.50 (_ bv5 3) x.1 <placeholder>)";
    "\001";
    "";
  ]

(* every input text: corpus seeds, witnesses, streams, corners *)
let texts =
  lazy
    (Array.of_list
       (Seeds.Corpus.sources ()
       @ List.map snd Witnesses.all
       @ stream_sources ()
       @ corners))

(* ------------------------------------------------------------------ *)
(* Where the front end and the reference disagree                     *)
(* ------------------------------------------------------------------ *)

let first_some checks = List.find_map (fun check -> check ()) checks

let differ what shown = Some (Printf.sprintf "%s: %s" what shown)

let script_differs script =
  let printed () =
    let mine = Printer.script script and theirs = Ref.script script in
    if mine <> theirs then differ "Printer.script" (brief mine ^ " vs " ^ brief theirs) else None
  in
  let commands () =
    List.find_map
      (fun cmd ->
        if Printer.command cmd <> Ref.command cmd then differ "Printer.command" (Ref.command cmd)
        else None)
      script
  in
  let terms () =
    List.find_map
      (fun t -> if Printer.term t <> Ref.term t then differ "Printer.term" (Ref.term t) else None)
      (Script.assertions script)
  in
  let checked allow_placeholders () =
    let mine = Typecheck.check_script ~allow_placeholders script
    and theirs = Ref.check_script ~allow_placeholders script in
    if mine <> theirs then
      let show = function Ok () -> "ok" | Error m -> m in
      differ "check_script" (show mine ^ " vs " ^ show theirs)
    else None
  in
  let inferred () =
    let env = Typecheck.env_of_script script and renv = Ref.env_of_script script in
    if Typecheck.env_vars env <> Ref.env_vars renv then differ "env_vars" ""
    else
      List.find_map
        (fun t ->
          if Typecheck.infer env t <> Ref.infer renv t then differ "infer" (Ref.term t) else None)
        (Script.assertions script)
  in
  first_some [ printed; commands; terms; checked false; checked true; inferred ]

let text_differs text =
  match (lexed Lexer.read_sexps text, lexed Ref.read_sexps text) with
  | Error m, Error m' when m <> m' -> differ "read_sexps" (m ^ " vs " ^ m')
  | Ok _, Error m | Error m, Ok _ -> differ "read_sexps" ("only one raises " ^ m)
  | Ok s, Ok s' when s <> s' -> differ "read_sexps" "different S-expressions"
  | _ -> (
    match Parser.parse_script text with Ok script -> script_differs script | Error _ -> None)

let engines = lazy [ Engine.zeal (); Engine.cove () ]

let parse_check_differs text =
  List.find_map
    (fun engine ->
      if Engine.parse_check engine text <> Ref.parse_check engine text then
        differ ("parse_check on " ^ Engine.name engine) ""
      else None)
    (Lazy.force engines)

let test_pinned_inputs () =
  let require differs text =
    match differs text with None -> () | Some why -> Alcotest.failf "%s on %s" why (brief text)
  in
  Array.iter (require text_differs) (Lazy.force texts);
  List.iter (require parse_check_differs) (stream_sources ())

(* Byte edits biased towards the characters the lexer dispatches on. *)
let alphabet = "()\"|#:;. \nxb019aZ-_<>{}\\'"

let edit st s =
  let n = String.length s in
  let pos bound = if bound <= 0 then 0 else Random.State.int st bound in
  let char () =
    if Random.State.int st 4 = 0 then Char.chr (Random.State.int st 256)
    else alphabet.[Random.State.int st (String.length alphabet)]
  in
  match Random.State.int st 4 with
  | 0 when n > 0 ->
    let i = pos n in
    String.mapi (fun j c -> if j = i then char () else c) s
  | 1 when n > 0 ->
    let i = pos n in
    String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1)
  | 2 ->
    let i = pos (n + 1) in
    String.sub s 0 i ^ String.make 1 (char ()) ^ String.sub s i (n - i)
  | _ -> String.sub s 0 (pos (n + 1))

let mutant (i, seed) =
  let pool = Lazy.force texts in
  let st = Random.State.make [| seed |] in
  let rec go k s = if k = 0 then s else go (k - 1) (edit st s) in
  go (1 + Random.State.int st 3) pool.(i mod Array.length pool)

let mutated_text =
  QCheck.Test.make ~name:"mutated text" ~count:2000
    (QCheck.make
       ~print:(fun x -> String.escaped (mutant x))
       QCheck.Gen.(pair (int_bound 1_000_000) int))
    (fun x ->
      match text_differs (mutant x) with
      | None -> true
      | Some why -> QCheck.Test.fail_report why)

(* names at the edges of each family's test; the dispatch test adds every
   operator name the theories list and every name the inputs apply *)
let edge_names =
  [ "bag"; "bag."; "bagx"; "bv"; "bvfoo"; "bv2nat"; "ubv_to_int"; "ubv"; "concat"; "str";
    "str."; "str.foo"; "re"; "re."; "seq"; "seq."; "set"; "set."; "rel"; "rel."; "ff"; "ff.";
    "ff.foo"; "tuple"; "tuples"; "tuple.select"; "select"; "selects"; "store"; "table.x";
    "f"; "x"; ""; "is-C"; "=="; "not "; "to_real"; "distinct" ]

let test_operator_dispatch () =
  let scripts =
    Array.to_list (Lazy.force texts)
    |> List.filter_map (fun text -> Result.to_option (Parser.parse_script text))
  in
  let names = Hashtbl.create 256 and sorts = Hashtbl.create 256 in
  List.iter (fun n -> Hashtbl.replace names n ()) edge_names;
  List.iter
    (fun (info : Theories.Theory.info) ->
      List.iter (fun n -> Hashtbl.replace names n ()) info.Theories.Theory.ops)
    Theories.Theory.all;
  List.iter
    (fun script ->
      ignore
        (Ref.check_script
           ~on_app:(fun name args ->
             Hashtbl.replace names name ();
             Hashtbl.replace sorts args ())
           script))
    scripts;
  List.iter
    (fun args -> Hashtbl.replace sorts args ())
    [ []; [ Sort.Int; Sort.Int ]; [ Sort.Bool ]; [ Sort.Bag Sort.Int; Sort.Bag Sort.Int ] ];
  Hashtbl.iter
    (fun name () ->
      Hashtbl.iter
        (fun args () ->
          let mine = Signature.app name args and theirs = Ref.app name args in
          if mine <> theirs then
            Alcotest.failf "Signature.app %S (%s) differs from the reference" name
              (String.concat " " (List.map Sort.to_string args)))
        sorts)
    names

(* the corners' expected outcomes, beside agreeing with the reference *)
let test_corners () =
  let check = Alcotest.(check (result unit string)) in
  let parse text =
    match Parser.parse_script text with
    | Ok s -> s
    | Error e -> Alcotest.failf "%s: %s" text (Parser.error_message e)
  in
  check "the tester declared first wins"
    (Error "wrong argument sorts for 'is-C': expected (D), got (Int)")
    (Typecheck.check_script (parse (List.nth corners 0)));
  check "the fun declared first wins" (Ok ()) (Typecheck.check_script (parse (List.nth corners 1)));
  check "first clashing name" (Error "symbol 'a' is already declared")
    (Typecheck.check_script (parse (List.nth corners 4)));
  Alcotest.(check string)
    "an application with no arguments prints bare" "(declare-const f Bool)\n(assert f)"
    (Printer.script (parse (List.nth corners 3)));
  Alcotest.(check (result unit string))
    "a later lexical error wins over an extra ')'" (Error "expected 'x' or 'b' after '#'")
    (Result.map ignore (lexed Lexer.read_sexps (List.nth corners 5)))

(* ------------------------------------------------------------------ *)
(* Output across builds                                               *)
(* ------------------------------------------------------------------ *)

(* One line per pinned boolean stream: the MD5 of every formula's source,
   each followed by both trunk engines' [parse_check]: "ok" and the printed
   script, or "error" and the message. *)
let stream_digests () =
  let zeal = Engine.zeal () and cove = Engine.cove () in
  Lazy.force boolean_streams
  |> List.map (fun (seed, stream) ->
         let b = Buffer.create 65536 in
         List.iter
           (fun (f : Synthesize.filled) ->
             Buffer.add_string b f.Synthesize.source;
             Buffer.add_char b '\n';
             List.iter
               (fun engine ->
                 (match Engine.parse_check engine f.Synthesize.source with
                 | Ok script ->
                   Buffer.add_string b "ok\n";
                   Buffer.add_string b (Printer.script script)
                 | Error m ->
                   Buffer.add_string b "error\n";
                   Buffer.add_string b m);
                 Buffer.add_char b '\n')
               [ zeal; cove ])
           stream;
         Printf.sprintf "boolean seed %d ticks %d %s\n" seed (List.length stream)
           (Digest.to_hex (Digest.string (Buffer.contents b))))
  |> String.concat ""

let test_stream_fixture () =
  let expected = In_channel.with_open_bin "fixtures/frontend_stream.txt" In_channel.input_all in
  Alcotest.(check string) "frontend_stream.txt" expected (stream_digests ())

let () =
  Alcotest.run "frontend"
    [
      ( "reference",
        [
          Alcotest.test_case "pinned inputs" `Quick test_pinned_inputs;
          Alcotest.test_case "operator dispatch" `Quick test_operator_dispatch;
          Alcotest.test_case "corners" `Quick test_corners;
          QCheck_alcotest.to_alcotest mutated_text;
        ] );
      ("fixture", [ Alcotest.test_case "pinned streams" `Quick test_stream_fixture ]);
    ]
