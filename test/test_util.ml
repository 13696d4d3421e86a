module Rng = O4a_util.Rng
module Listx = O4a_util.Listx
module Strx = O4a_util.Strx
module Stats = O4a_util.Stats

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------- Rng ------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check_bool "same stream" true (Rng.bits64 a = Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = List.init 20 (fun _ -> Rng.bits64 a = Rng.bits64 b) in
  check_bool "streams differ" true (List.mem false same)

let test_rng_int_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 10 in
    check_bool "in range" true (v >= 0 && v < 10)
  done

let test_rng_int_rejects_nonpositive () =
  let rng = Rng.create 7 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_int_in () =
  let rng = Rng.create 11 in
  for _ = 1 to 500 do
    let v = Rng.int_in rng (-3) 3 in
    check_bool "in closed range" true (v >= -3 && v <= 3)
  done

let test_rng_float_range () =
  let rng = Rng.create 13 in
  for _ = 1 to 500 do
    let f = Rng.float rng in
    check_bool "in [0,1)" true (f >= 0. && f < 1.)
  done

let test_rng_choose () =
  let rng = Rng.create 17 in
  for _ = 1 to 100 do
    check_bool "member" true (List.mem (Rng.choose rng [ 1; 2; 3 ]) [ 1; 2; 3 ])
  done

let test_rng_choose_empty () =
  let rng = Rng.create 17 in
  Alcotest.check_raises "empty" (Invalid_argument "Rng.choose: empty list") (fun () ->
      ignore (Rng.choose rng ([] : int list)))

let test_rng_weighted () =
  let rng = Rng.create 19 in
  (* weight 0 choices never picked *)
  for _ = 1 to 200 do
    check_bool "never zero-weight" true (Rng.weighted rng [ (0, "a"); (5, "b") ] = "b")
  done

let test_rng_weighted_distribution () =
  let rng = Rng.create 23 in
  let picks = List.init 2000 (fun _ -> Rng.weighted rng [ (9, `Heavy); (1, `Light) ]) in
  let heavy = List.length (List.filter (( = ) `Heavy) picks) in
  check_bool "roughly 90%" true (heavy > 1600 && heavy < 2000)

let test_rng_shuffle_permutation () =
  let rng = Rng.create 29 in
  let xs = Listx.range 1 50 in
  let shuffled = Rng.shuffle rng xs in
  check_bool "same elements" true (List.sort compare shuffled = xs)

let test_rng_sample () =
  let rng = Rng.create 31 in
  let s = Rng.sample rng 5 (Listx.range 1 20) in
  check_int "size" 5 (List.length s);
  check_int "distinct" 5 (List.length (Listx.dedup s))

let test_rng_split_independent () =
  let a = Rng.create 5 in
  let b = Rng.split a in
  let va = Rng.bits64 a and vb = Rng.bits64 b in
  check_bool "different values" true (va <> vb)

let test_rng_chance_extremes () =
  let rng = Rng.create 37 in
  for _ = 1 to 100 do
    check_bool "p=0 never" false (Rng.chance rng 0.);
    check_bool "p=1 always" true (Rng.chance rng 1.)
  done

let rng_props =
  [
    QCheck.Test.make ~name:"subset is a sublist" ~count:200
      QCheck.(pair small_int (small_list int))
      (fun (seed, xs) ->
        let rng = Rng.create seed in
        let sub = Rng.subset rng 0.5 xs in
        List.for_all (fun x -> List.mem x xs) sub);
    QCheck.Test.make ~name:"int n always < n" ~count:500
      QCheck.(pair small_int (int_range 1 1000))
      (fun (seed, n) ->
        let rng = Rng.create seed in
        let v = Rng.int rng n in
        v >= 0 && v < n);
  ]

(* ------------------------- Listx ------------------------- *)

let test_take_drop () =
  check_bool "take" true (Listx.take 2 [ 1; 2; 3 ] = [ 1; 2 ]);
  check_bool "take more" true (Listx.take 5 [ 1 ] = [ 1 ]);
  check_bool "take zero" true (Listx.take 0 [ 1 ] = []);
  check_bool "drop" true (Listx.drop 2 [ 1; 2; 3 ] = [ 3 ]);
  check_bool "drop all" true (Listx.drop 9 [ 1; 2 ] = [])

let test_last_init () =
  check_int "last" 3 (Listx.last [ 1; 2; 3 ]);
  check_bool "init" true (Listx.init_segment [ 1; 2; 3 ] = [ 1; 2 ]);
  Alcotest.check_raises "last empty" (Invalid_argument "Listx.last: empty list")
    (fun () -> ignore (Listx.last ([] : int list)))

let test_dedup () =
  check_bool "stable" true (Listx.dedup [ 3; 1; 3; 2; 1 ] = [ 3; 1; 2 ]);
  check_bool "custom eq" true
    (Listx.dedup ~eq:(fun a b -> String.lowercase_ascii a = String.lowercase_ascii b)
       [ "A"; "a"; "b" ]
    = [ "A"; "b" ])

let test_group_by () =
  let groups = Listx.group_by (fun n -> n mod 2) [ 1; 2; 3; 4; 5 ] in
  check_bool "odd group" true (List.assoc 1 groups = [ 1; 3; 5 ]);
  check_bool "even group" true (List.assoc 0 groups = [ 2; 4 ]);
  check_bool "first-appearance order" true (List.map fst groups = [ 1; 0 ]);
  (* keys interleaved: groups in order of first appearance, members in
     list order *)
  let words = [ "b1"; "a1"; "c1"; "a2"; "b2"; "c2"; "b3"; "a3" ] in
  check_bool "interleaved keys" true
    (Listx.group_by (fun w -> w.[0]) words
    = [ ('b', [ "b1"; "b2"; "b3" ]); ('a', [ "a1"; "a2"; "a3" ]);
        ('c', [ "c1"; "c2" ]) ])

let test_count_by () =
  check_bool "counts" true
    (Listx.count_by String.length [ "a"; "bb"; "c"; "dd" ] = [ (1, 2); (2, 2) ])

let test_find_index () =
  check_bool "found" true (Listx.find_index (( = ) 3) [ 1; 2; 3 ] = Some 2);
  check_bool "missing" true (Listx.find_index (( = ) 9) [ 1; 2; 3 ] = None)

let test_replace_remove () =
  check_bool "replace" true (Listx.replace_nth 1 9 [ 1; 2; 3 ] = [ 1; 9; 3 ]);
  check_bool "replace oob" true (Listx.replace_nth 7 9 [ 1 ] = [ 1 ]);
  check_bool "remove" true (Listx.remove_nth 0 [ 1; 2 ] = [ 2 ])

let test_range () =
  check_bool "range" true (Listx.range 2 5 = [ 2; 3; 4; 5 ]);
  check_bool "empty range" true (Listx.range 5 2 = []);
  check_bool "singleton" true (Listx.range 3 3 = [ 3 ])

let test_misc () =
  check_int "sum" 6 (Listx.sum [ 1; 2; 3 ]);
  check_bool "max_by" true (Listx.max_by String.length [ "a"; "abc"; "ab" ] = Some "abc");
  check_bool "max_by empty" true (Listx.max_by (fun x -> x) [] = None);
  check_int "cartesian" 6 (List.length (Listx.cartesian [ 1; 2 ] [ 'a'; 'b'; 'c' ]));
  check_bool "intersperse" true (Listx.intersperse 0 [ 1; 2; 3 ] = [ 1; 0; 2; 0; 3 ])

(* ------------------------- Strx ------------------------- *)

let test_starts_with () =
  check_bool "yes" true (Strx.starts_with ~prefix:"seq." "seq.rev");
  check_bool "no" false (Strx.starts_with ~prefix:"str." "seq.rev");
  check_bool "empty prefix" true (Strx.starts_with ~prefix:"" "x")

let test_contains_sub () =
  check_bool "middle" true (Strx.contains_sub ~sub:"lo w" "hello world");
  check_bool "absent" false (Strx.contains_sub ~sub:"xyz" "hello");
  check_bool "empty" true (Strx.contains_sub ~sub:"" "hello")

let test_indent_truncate () =
  check_bool "indent" true (Strx.indent 2 "a\nb" = "  a\n  b");
  check_bool "indent empty line" true (Strx.indent 2 "a\n\nb" = "  a\n\n  b");
  let t = Strx.truncate_mid 11 "abcdefghijklmnop" in
  check_bool "truncated" true (String.length t <= 11);
  check_bool "has ellipsis" true (Strx.contains_sub ~sub:"..." t)

let test_escape () =
  check_bool "doubles quotes" true (Strx.escape_smt_string {|a"b|} = {|a""b|});
  check_bool "plain" true (Strx.escape_smt_string "abc" = "abc")

(* ------------------------- Stats ------------------------- *)

let test_stats () =
  Alcotest.(check (float 1e-9)) "mean" 2. (Stats.mean [ 1.; 2.; 3. ]);
  Alcotest.(check (float 1e-9)) "mean empty" 0. (Stats.mean []);
  Alcotest.(check (float 1e-9)) "median" 2. (Stats.median [ 3.; 1.; 2. ]);
  Alcotest.(check (float 1e-9)) "min" 1. (Stats.minimum [ 3.; 1.; 2. ]);
  Alcotest.(check (float 1e-9)) "max" 3. (Stats.maximum [ 3.; 1.; 2. ]);
  check_bool "stddev positive" true (Stats.stddev [ 1.; 5.; 9. ] > 0.);
  Alcotest.(check (float 1e-9)) "stddev singleton" 0. (Stats.stddev [ 4. ])

let test_stats_empty () =
  (* every helper is total: 0. / [] on empty input, per the interface *)
  Alcotest.(check (float 1e-9)) "mean" 0. (Stats.mean []);
  Alcotest.(check (float 1e-9)) "median" 0. (Stats.median []);
  Alcotest.(check (float 1e-9)) "percentile" 0. (Stats.percentile 90. []);
  Alcotest.(check (float 1e-9)) "stddev" 0. (Stats.stddev []);
  Alcotest.(check (float 1e-9)) "minimum" 0. (Stats.minimum []);
  Alcotest.(check (float 1e-9)) "maximum" 0. (Stats.maximum []);
  check_bool "histogram empty data" true (Stats.histogram ~buckets:3 [] = []);
  check_bool "histogram no buckets" true (Stats.histogram ~buckets:0 [ 1. ] = []);
  check_bool "histogram negative buckets" true
    (Stats.histogram ~buckets:(-1) [ 1. ] = [])

let test_percentile () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 1e-9)) "p50" 50. (Stats.percentile 50. xs);
  Alcotest.(check (float 1e-9)) "p90" 90. (Stats.percentile 90. xs);
  Alcotest.(check (float 1e-9)) "p99" 99. (Stats.percentile 99. xs);
  Alcotest.(check (float 1e-9)) "p0 clamps to min" 1. (Stats.percentile 0. xs);
  Alcotest.(check (float 1e-9)) "p100 is max" 100. (Stats.percentile 100. xs);
  Alcotest.(check (float 1e-9)) "singleton" 7. (Stats.percentile 99. [ 7. ])

let test_histogram () =
  let h = Stats.histogram ~buckets:2 [ 0.; 1.; 2.; 3. ] in
  check_int "buckets" 2 (List.length h);
  let total = List.fold_left (fun acc (_, _, c) -> acc + c) 0 h in
  check_int "all counted" 4 total

let test_histogram_degenerate () =
  (* all-equal data: the range collapses to a width-1 span from the datum *)
  match Stats.histogram ~buckets:2 [ 5.; 5. ] with
  | [] -> Alcotest.fail "expected buckets"
  | ((lo, _, _) :: _) as h ->
    Alcotest.(check (float 1e-9)) "starts at datum" 5. lo;
    check_int "all counted" 2 (List.fold_left (fun acc (_, _, c) -> acc + c) 0 h)

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int rejects <=0" `Quick test_rng_int_rejects_nonpositive;
          Alcotest.test_case "int_in bounds" `Quick test_rng_int_in;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "choose member" `Quick test_rng_choose;
          Alcotest.test_case "choose empty" `Quick test_rng_choose_empty;
          Alcotest.test_case "weighted zero" `Quick test_rng_weighted;
          Alcotest.test_case "weighted distribution" `Quick test_rng_weighted_distribution;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "sample distinct" `Quick test_rng_sample;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "chance extremes" `Quick test_rng_chance_extremes;
        ]
        @ List.map QCheck_alcotest.to_alcotest rng_props );
      ( "listx",
        [
          Alcotest.test_case "take/drop" `Quick test_take_drop;
          Alcotest.test_case "last/init" `Quick test_last_init;
          Alcotest.test_case "dedup" `Quick test_dedup;
          Alcotest.test_case "group_by" `Quick test_group_by;
          Alcotest.test_case "count_by" `Quick test_count_by;
          Alcotest.test_case "find_index" `Quick test_find_index;
          Alcotest.test_case "replace/remove nth" `Quick test_replace_remove;
          Alcotest.test_case "range" `Quick test_range;
          Alcotest.test_case "misc" `Quick test_misc;
        ] );
      ( "strx",
        [
          Alcotest.test_case "starts_with" `Quick test_starts_with;
          Alcotest.test_case "contains_sub" `Quick test_contains_sub;
          Alcotest.test_case "indent/truncate" `Quick test_indent_truncate;
          Alcotest.test_case "escape" `Quick test_escape;
        ] );
      ( "stats",
        [
          Alcotest.test_case "descriptive" `Quick test_stats;
          Alcotest.test_case "empty inputs" `Quick test_stats_empty;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "histogram" `Quick test_histogram;
          Alcotest.test_case "histogram degenerate" `Quick test_histogram_degenerate;
        ] );
    ]
