(* Pinned streams of synthesized formulas, made as the fuzz loop makes
   them, for the tests that compare two front ends over realistic input:
   the [fuzz] CLI's default campaign (its generators, filtered seeds and
   fuzz config), a fresh seed every [mutations_per_seed] ticks, and each
   formula that parses carried into the next tick (Algorithm 2, line 9). *)

open Smtlib
module Rng = O4a_util.Rng
module Jobspec = O4a_server.Jobspec
module Fuzz = Once4all.Fuzz
module Synthesize = Once4all.Synthesize

let spec = Jobspec.default ~name:"stream"
let config = Jobspec.config spec
let campaign = lazy (Jobspec.prepare spec)

let direct ~rng ~generators =
  Synthesize.direct ~rng ~generators
    ~terms:(1 + Rng.int rng config.Fuzz.direct_terms_max)

(* one tick as the default config makes it: a Boolean skeleton filled by
   the generators, or direct generation when the skeleton has no hole *)
let boolean ~rng ~generators current =
  let skeleton, holes =
    Once4all.Skeleton.skeletonize ~rng ~keep_prob:config.Fuzz.keep_prob current
  in
  if holes = 0 then direct ~rng ~generators
  else
    Synthesize.fill ~swap_prob:config.Fuzz.adapt_prob ~rng ~generators ~skeleton
      ~holes ()

(* one tick of [Synthesize.fill], [fill_typed] (the mixed-sorts config) or
   [direct], picked at random *)
let any_synthesis ~rng ~generators current =
  match Rng.int rng 3 with
  | 0 -> boolean ~rng ~generators current
  | 1 ->
    let supported sort =
      List.exists (fun g -> Gensynth.Generator.supports_sort g sort) generators
    in
    let skeleton, hole_sorts =
      Once4all.Skeleton.skeletonize_typed ~rng ~keep_prob:config.Fuzz.keep_prob
        ~supported current
    in
    if hole_sorts = [] then direct ~rng ~generators
    else
      Synthesize.fill_typed ~swap_prob:config.Fuzz.adapt_prob ~rng ~generators
        ~skeleton ~hole_sorts ()
  | _ -> direct ~rng ~generators

(* [ticks] synthesized formulas from the RNG seed [seed] *)
let stream ?(mutate = boolean) ~seed ~ticks () =
  let { Jobspec.generators; seeds } = Lazy.force campaign in
  let rng = Rng.create seed in
  let out = ref [] and n = ref 0 in
  while !n < ticks do
    let seed = Rng.choose rng seeds in
    let current = ref seed in
    for _ = 1 to min config.Fuzz.mutations_per_seed (ticks - !n) do
      let filled = mutate ~rng ~generators !current in
      out := filled :: !out;
      incr n;
      current :=
        match filled.Synthesize.parsed with
        | Some s when Script.size s <= config.Fuzz.max_seed_growth -> s
        | _ -> seed
    done
  done;
  List.rev !out
