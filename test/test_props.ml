(* Cross-cutting property tests: the determinism contracts the chaos harness
   leans on. SMT-LIB printing must be a parser fixpoint (repro bundles round-
   trip), [Rng.split_indexed] must be a stable O(1) jump (shard and fault
   plans are derived from it), [Metrics.absorb] and [Profile.merge] must
   commute (the merge stage folds worker snapshots in completion order), and
   [Metrics.fits] must predict [absorb] without touching the registry (the
   coordinator vets remote results with it). *)

open Smtlib
module Rng = O4a_util.Rng
module Metrics = O4a_telemetry.Metrics
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

(* ------------------------- Metrics.absorb ------------------------- *)

let hist_bounds = [| 0.001; 0.01; 0.1 |]

let gen_snapshot =
  let open QCheck.Gen in
  let counter_entry =
    map2
      (fun name v ->
        { Metrics.name; labels = []; value = Metrics.Counter v })
      (oneofl [ "c.requests"; "c.hits"; "c.errors" ])
      (int_range 0 50)
  in
  let labeled_counter_entry =
    map3
      (fun name w v ->
        {
          Metrics.name;
          labels = [ ("worker", string_of_int w) ];
          value = Metrics.Counter v;
        })
      (oneofl [ "c.shards"; "c.tests" ])
      (int_range 0 2) (int_range 1 20)
  in
  let hist_entry =
    map
      (fun counts ->
        let counts = Array.of_list counts in
        let count = Array.fold_left ( + ) 0 counts in
        {
          Metrics.name = "h.latency";
          labels = [];
          value =
            Metrics.Histogram
              {
                Metrics.bounds = Array.copy hist_bounds;
                counts;
                (* multiples of 0.5 add exactly, so absorption order cannot
                   introduce float rounding differences *)
                sum = 0.5 *. float_of_int count;
                count;
              };
        })
      (list_repeat (Array.length hist_bounds + 1) (int_range 0 9))
  in
  small_list (frequency [ (3, counter_entry); (2, labeled_counter_entry); (2, hist_entry) ])

let arb_snapshot =
  QCheck.make
    ~print:(fun entries ->
      String.concat ";"
        (List.map
           (fun (e : Metrics.entry) ->
             match e.Metrics.value with
             | Metrics.Counter n -> Printf.sprintf "%s=%d" e.Metrics.name n
             | Metrics.Histogram h -> Printf.sprintf "%s#%d" e.Metrics.name h.Metrics.count)
           entries))
    gen_snapshot

(* a snapshot with one entry turned against the others: a histogram made a
   counter or given other bounds, or a counter renamed onto the histogram *)
let arb_clashing =
  let open QCheck.Gen in
  let clash k (entries : Metrics.entry list) =
    List.mapi
      (fun i (e : Metrics.entry) ->
        if i <> k then e
        else
          match e.Metrics.value with
          | Metrics.Histogram h when k mod 2 = 0 ->
            { e with
              Metrics.value =
                Metrics.Histogram
                  { h with Metrics.bounds = Array.map (fun b -> 2. *. b) h.Metrics.bounds } }
          | Metrics.Histogram _ -> { e with Metrics.value = Metrics.Counter 1 }
          | _ -> { e with Metrics.name = "h.latency"; labels = [] })
      entries
  in
  QCheck.make (map2 clash (int_range 0 4) gen_snapshot)

let absorb_all snapshots =
  let t = Metrics.create () in
  List.iter (Metrics.absorb t) snapshots;
  Metrics.snapshot t

let metrics_props =
  [
    QCheck.Test.make ~name:"absorb commutes" ~count:200
      QCheck.(pair arb_snapshot arb_snapshot)
      (fun (s1, s2) -> absorb_all [ s1; s2 ] = absorb_all [ s2; s1 ]);
    QCheck.Test.make ~name:"absorb is associative" ~count:200
      QCheck.(triple arb_snapshot arb_snapshot arb_snapshot)
      (fun (s1, s2, s3) ->
        (* ((s1 + s2) + s3) versus (s1 + (s2 + s3)) via an intermediate
           registry's own snapshot *)
        let left = absorb_all [ absorb_all [ s1; s2 ]; s3 ] in
        let right = absorb_all [ s1; absorb_all [ s2; s3 ] ] in
        left = right);
    QCheck.Test.make ~name:"fits is absorb's precondition and changes nothing"
      ~count:300
      QCheck.(pair arb_snapshot arb_clashing)
      (fun (s1, s2) ->
        let t = Metrics.create () in
        Metrics.absorb t s1;
        let before = Metrics.snapshot t in
        let verdict = Metrics.fits t s2 in
        Metrics.snapshot t = before
        &&
        match Metrics.absorb t s2 with
        | () -> Result.is_ok verdict
        | exception Invalid_argument _ -> Result.is_error verdict);
    QCheck.Test.make ~name:"absorbing a snapshot of itself doubles counters"
      ~count:200 arb_snapshot
      (fun s ->
        let once = absorb_all [ s ] in
        let twice = absorb_all [ s; s ] in
        List.for_all2
          (fun (a : Metrics.entry) (b : Metrics.entry) ->
            a.Metrics.name = b.Metrics.name
            && a.Metrics.labels = b.Metrics.labels
            &&
            match (a.Metrics.value, b.Metrics.value) with
            | Metrics.Counter x, Metrics.Counter y -> y = 2 * x
            | Metrics.Histogram x, Metrics.Histogram y ->
                y.Metrics.count = 2 * x.Metrics.count
            | _ -> false)
          once twice);
  ]

(* ------------------------- Profile.merge ------------------------- *)

(* worker profiles are merged at the shard barrier in completion order, so
   the merge must be order-insensitive like [Metrics.absorb] above *)
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
      ("metrics", List.map QCheck_alcotest.to_alcotest metrics_props);
      ("profile", List.map QCheck_alcotest.to_alcotest profile_props);
      ("analytics", List.map QCheck_alcotest.to_alcotest analytics_props);
    ]
