module Rng = O4a_util.Rng
module Theory = Theories.Theory

let generators =
  lazy
    (List.map Gensynth.Generator.perfect
       (List.filter
          (fun (t : Theory.info) ->
            t.Theory.standard && t.Theory.id <> Theory.Datatypes)
          Theory.all))

(* Each fuzzer value keeps its own enumeration cursor: depth grows slowly as
   its run proceeds, emulating size-bounded enumeration order. *)
let make () =
  let cursor = ref 0 in
  let generate ~rng ~seeds =
    ignore seeds;
    incr cursor;
    let depth = 3 + min 3 (!cursor / 4000) in
    let g = Rng.choose rng (Lazy.force generators) in
    let emitted = Gensynth.Generator.generate ~max_depth:depth g ~rng in
    Gensynth.Generator.render_script [ emitted ]
  in
  { Fuzzer.name = "ET"; tests_per_tick = 100; generate }
