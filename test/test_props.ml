(* Cross-cutting property tests: the determinism contracts the chaos harness
   leans on. SMT-LIB printing must be a parser fixpoint (repro bundles round-
   trip), [Rng.split_indexed] must be a stable O(1) jump (shard and fault
   plans are derived from it), and [Profile.merge] must commute (the merge
   stage folds worker profiles in completion order). *)

open Smtlib
module Rng = O4a_util.Rng
module Profile = O4a_profile.Profile
module Campaign = Once4all.Campaign
module Synthesize = Once4all.Synthesize

(* shared generator library, built once *)
let campaign = lazy (Campaign.prepare ~seed:3 ())
let generators () = (Lazy.force campaign).Campaign.generators

(* ------------------------- SMT-LIB round-trip ------------------------- *)

let script_props =
  let arb = QCheck.(pair (int_range 0 100_000) (int_range 1 4)) in
  [
    QCheck.Test.make ~name:"synthesized script print/parse fixpoint" ~count:80
      arb
      (fun (seed, terms) ->
        let rng = Rng.create seed in
        let filled = Synthesize.direct ~rng ~generators:(generators ()) ~terms in
        (* generators keep a residue of deliberately flawed output (§3.2);
           the fixpoint claim is about scripts that do parse *)
        QCheck.assume (filled.Synthesize.parsed <> None);
        match filled.Synthesize.parsed with
        | None -> false
        | Some script -> (
            let printed = Printer.script script in
            match Parser.parse_script printed with
            | Error e ->
                QCheck.Test.fail_reportf "printed script no longer parses: %s"
                  (Parser.error_message e)
            | Ok script' ->
                script = script' && Printer.script script' = printed));
  ]

(* The scripts [Synthesize.assemble] splices (the corpus seeds and pinned
   streams of both mutators) print to text that parses back to them. Two
   constructs do not round-trip, and none of these scripts holds them: an
   application with no arguments, [(f)], prints as [f] and parses back as a
   variable, and a quoted symbol such as [|a b|] prints bare. *)
let test_campaign_round_trip () =
  let stream mutate seed =
    List.filter_map
      (fun (f : Synthesize.filled) -> f.Synthesize.parsed)
      (Fuzz_stream.stream ~mutate ~seed ~ticks:500 ())
  in
  let scripts =
    Seeds.Corpus.all ()
    @ List.concat_map
        (fun seed -> stream Fuzz_stream.boolean seed @ stream Fuzz_stream.any_synthesis seed)
        [ 1; 2; 3 ]
  in
  List.iter
    (fun script ->
      let printed = Printer.script script in
      match Parser.parse_script printed with
      | Ok script' when script' = script -> ()
      | Ok _ -> Alcotest.failf "parses back to another script: %s" printed
      | Error e -> Alcotest.failf "%s: %s" (Parser.error_message e) printed)
    scripts

(* ------------------------- Rng.split_indexed ------------------------- *)

let rec draws k g = if k = 0 then [] else let x = Rng.bits64 g in x :: draws (k - 1) g

let rng_props =
  let arb = QCheck.(pair int (int_range 0 200)) in
  [
    QCheck.Test.make ~name:"split_indexed is stable" ~count:300 arb
      (fun (seed, index) ->
        draws 8 (Rng.split_indexed ~seed ~index)
        = draws 8 (Rng.split_indexed ~seed ~index));
    QCheck.Test.make ~name:"split_indexed = split after index+1 draws" ~count:300
      arb
      (fun (seed, index) ->
        let parent = Rng.create seed in
        for _ = 0 to index do
          ignore (Rng.bits64 parent)
        done;
        draws 8 (Rng.split parent) = draws 8 (Rng.split_indexed ~seed ~index));
    QCheck.Test.make ~name:"distinct indices, distinct streams" ~count:300
      QCheck.(triple int (int_range 0 200) (int_range 0 200))
      (fun (seed, i, j) ->
        QCheck.assume (i <> j);
        Rng.bits64 (Rng.split_indexed ~seed ~index:i)
        <> Rng.bits64 (Rng.split_indexed ~seed ~index:j));
    QCheck.Test.make ~name:"split_indexed leaves no parent to disturb" ~count:100
      arb
      (fun (seed, index) ->
        (* deriving stream [index] must not depend on other derivations *)
        ignore (draws 3 (Rng.split_indexed ~seed ~index:(index + 7)));
        let a = draws 4 (Rng.split_indexed ~seed ~index) in
        ignore (draws 3 (Rng.split_indexed ~seed ~index:(index + 1)));
        a = draws 4 (Rng.split_indexed ~seed ~index));
  ]

(* ------------------------- Profile.merge ------------------------- *)

(* worker profiles are merged at the shard barrier in completion order, so
   the merge must be order-insensitive *)
let gen_profile =
  let open QCheck.Gen in
  let entry =
    oneofl [ "parse"; "skeletonize"; "synthesize"; "solver.run"; "other" ]
    >>= fun stage ->
    map3
      (fun calls (wall_ns, alloc_words) (consults, fuel) ->
        {
          Profile.stage;
          calls;
          wall_ns;
          alloc_words;
          promoted_words = alloc_words / 4;
          consults;
          fuel;
        })
      (int_range 1 50)
      (pair (int_range 0 1_000_000) (int_range 0 100_000))
      (pair (int_range 0 30) (int_range 0 5_000))
  in
  map3
    (fun ticks alloc_words stages -> { Profile.ticks; alloc_words; stages })
    (int_range 0 500) (int_range 0 1_000_000) (small_list entry)

let arb_profile =
  QCheck.make
    ~print:(fun p -> O4a_telemetry.Json.to_string (Profile.codec.enc p))
    gen_profile

(* generated stage lists may repeat a stage; merging with [empty]
   canonicalizes (dedups and sorts) without changing totals *)
let canon p = Profile.merge p Profile.empty

let profile_props =
  [
    QCheck.Test.make ~name:"merge commutes" ~count:300
      QCheck.(pair arb_profile arb_profile)
      (fun (a, b) -> Profile.merge a b = Profile.merge b a);
    QCheck.Test.make ~name:"merge is associative" ~count:300
      QCheck.(triple arb_profile arb_profile arb_profile)
      (fun (a, b, c) ->
        Profile.merge (Profile.merge a b) c
        = Profile.merge a (Profile.merge b c));
    QCheck.Test.make ~name:"empty is the identity" ~count:300 arb_profile
      (fun p -> Profile.merge (canon p) Profile.empty = canon p);
    QCheck.Test.make ~name:"merge preserves totals" ~count:300
      QCheck.(pair arb_profile arb_profile)
      (fun (a, b) ->
        let m = Profile.merge a b in
        m.Profile.ticks = a.Profile.ticks + b.Profile.ticks
        && Profile.total_alloc_words m
           = Profile.total_alloc_words a + Profile.total_alloc_words b
        && Profile.total_consults m
           = Profile.total_consults a + Profile.total_consults b
        && Profile.total_fuel m = Profile.total_fuel a + Profile.total_fuel b);
    QCheck.Test.make ~name:"strip_timing commutes with merge" ~count:300
      QCheck.(pair arb_profile arb_profile)
      (fun (a, b) ->
        Profile.strip_timing (Profile.merge a b)
        = Profile.merge (Profile.strip_timing a) (Profile.strip_timing b));
  ]

(* ------------------------- Analytics.merge ------------------------- *)

(* shard analytics are merged at the same barrier as profiles, in completion
   order, and the series must come out byte-identical at any --jobs N — so
   merge needs the full commutative-monoid contract plus total preservation *)
module Analytics = O4a_analytics.Analytics

let gen_analytics =
  let open QCheck.Gen in
  let sample =
    int_range 0 7 >>= fun bucket ->
    map3
      (fun (tests, parse_ok, solved) (findings, consults, fuel)
           (cov_points, clusters) ->
        {
          Analytics.bucket;
          first_tick = bucket * 50;
          ticks = 50;
          tests;
          parse_ok;
          solved;
          findings;
          consults;
          fuel;
          cov_points;
          clusters;
        })
      (triple (int_range 0 60) (int_range 0 60) (int_range 0 60))
      (triple (int_range 0 5) (int_range 0 120) (int_range 0 10_000))
      (pair
         (small_list (oneofl [ "z|a"; "z|b"; "c|a"; "c|b"; "c|c" ]))
         (small_list (oneofl [ "crash:x"; "unsound:y"; "timeout:z" ])))
  in
  let yrow =
    map3
      (fun theory cluster (tests, parse_ok, findings) ->
        {
          Analytics.y_theory = theory;
          y_profile = "gpt-4";
          y_seed_cluster = cluster;
          y_tests = tests;
          y_parse_ok = parse_ok;
          y_findings = findings;
        })
      (oneofl [ "strings"; "arrays"; "bitvectors" ])
      (oneofl [ "aa11"; "bb22"; "cc33" ])
      (triple (int_range 1 40) (int_range 0 40) (int_range 0 3))
  in
  map2
    (fun samples yield -> { Analytics.samples; yield })
    (small_list sample) (small_list yrow)

let arb_analytics =
  QCheck.make
    ~print:(fun t -> O4a_telemetry.Json.to_string (Analytics.codec.enc t))
    gen_analytics

(* generated records may repeat buckets and yield keys; merging with [empty]
   canonicalizes without changing totals *)
let acanon t = Analytics.merge t Analytics.empty

let analytics_props =
  [
    QCheck.Test.make ~name:"merge commutes" ~count:300
      QCheck.(pair arb_analytics arb_analytics)
      (fun (a, b) -> Analytics.merge a b = Analytics.merge b a);
    QCheck.Test.make ~name:"merge is associative" ~count:300
      QCheck.(triple arb_analytics arb_analytics arb_analytics)
      (fun (a, b, c) ->
        Analytics.merge (Analytics.merge a b) c
        = Analytics.merge a (Analytics.merge b c));
    QCheck.Test.make ~name:"empty is the identity" ~count:300 arb_analytics
      (fun t -> Analytics.merge (acanon t) Analytics.empty = acanon t);
    QCheck.Test.make ~name:"merge preserves bucket totals" ~count:300
      QCheck.(pair arb_analytics arb_analytics)
      (fun (a, b) ->
        let m = Analytics.merge a b in
        Analytics.total_tests m
        = Analytics.total_tests a + Analytics.total_tests b
        && Analytics.total_findings m
           = Analytics.total_findings a + Analytics.total_findings b);
    QCheck.Test.make ~name:"json round-trips to the canonical form" ~count:300
      arb_analytics
      (fun t -> Analytics.codec.dec (Analytics.codec.enc t) = Ok (acanon t));
    QCheck.Test.make ~name:"cumulative series is monotone" ~count:300
      arb_analytics
      (fun t ->
        let rec mono = function
          | (a : Analytics.point) :: (b :: _ as rest) ->
            a.Analytics.p_cum_cov <= b.Analytics.p_cum_cov
            && a.Analytics.p_cum_clusters <= b.Analytics.p_cum_clusters
            && mono rest
          | _ -> true
        in
        mono (Analytics.series (acanon t)));
  ]

let () =
  Alcotest.run "props"
    [
      ( "smtlib",
        Alcotest.test_case "campaign scripts round-trip" `Quick test_campaign_round_trip
        :: List.map QCheck_alcotest.to_alcotest script_props );
      ("rng", List.map QCheck_alcotest.to_alcotest rng_props);
      ("profile", List.map QCheck_alcotest.to_alcotest profile_props);
      ("analytics", List.map QCheck_alcotest.to_alcotest analytics_props);
    ]
