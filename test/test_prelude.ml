(* Unit and property tests for the prelude substrate. *)

open Prelude

let rng_deterministic () =
  let a = Rng.create ~seed:123L and b = Rng.create ~seed:123L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let rng_seeds_differ () =
  let a = Rng.create ~seed:1L and b = Rng.create ~seed:2L in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.int64 a = Rng.int64 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let rng_copy_independent () =
  let a = Rng.create ~seed:9L in
  ignore (Rng.int64 a : int64);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.int64 a)
    (Rng.int64 b);
  (* Now they diverge independently but deterministically. *)
  let x = Rng.int64 a in
  let y = Rng.int64 b in
  Alcotest.(check int64) "same continuation" x y

let rng_split_independent () =
  let a = Rng.create ~seed:77L in
  let child = Rng.split a in
  let xs = List.init 32 (fun _ -> Rng.int64 a) in
  let ys = List.init 32 (fun _ -> Rng.int64 child) in
  Alcotest.(check bool) "split streams differ" true (xs <> ys)

let rng_int_bounds () =
  let r = Rng.create ~seed:5L in
  for _ = 1 to 1000 do
    let v = Rng.int r 7 in
    Alcotest.(check bool) "in [0,7)" true (v >= 0 && v < 7)
  done;
  Alcotest.check_raises "bound 0 rejected"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int r 0 : int))

let rng_unit_float_range () =
  let r = Rng.create ~seed:6L in
  for _ = 1 to 1000 do
    let v = Rng.unit_float r in
    Alcotest.(check bool) "in [0,1)" true (v >= 0. && v < 1.)
  done

let rng_bernoulli_extremes () =
  let r = Rng.create ~seed:8L in
  Alcotest.(check bool) "p=0 never" false (Rng.bernoulli r ~p:0.);
  Alcotest.(check bool) "p=1 always" true (Rng.bernoulli r ~p:1.);
  Alcotest.(check bool) "p<0 never" false (Rng.bernoulli r ~p:(-0.5));
  Alcotest.(check bool) "p>1 always" true (Rng.bernoulli r ~p:1.5)

let rng_bernoulli_mean () =
  let r = Rng.create ~seed:10L in
  let hits = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Rng.bernoulli r ~p:0.3 then incr hits
  done;
  let mean = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "mean near 0.3" true (abs_float (mean -. 0.3) < 0.02)

let rng_exponential_mean () =
  let r = Rng.create ~seed:11L in
  let n = 20_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential r ~mean:5.
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 5" true (abs_float (mean -. 5.) < 0.3)

let rng_gaussian_moments () =
  let r = Rng.create ~seed:12L in
  let n = 20_000 in
  let samples = Array.init n (fun _ -> Rng.gaussian r ~mu:2. ~sigma:3.) in
  Alcotest.(check bool) "mu" true (abs_float (Stats.mean samples -. 2.) < 0.1);
  Alcotest.(check bool) "sigma" true
    (abs_float (Stats.stddev samples -. 3.) < 0.1)

let rng_shuffle_permutation () =
  let r = Rng.create ~seed:13L in
  let a = Array.init 50 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

let rng_sample_without_replacement () =
  let r = Rng.create ~seed:14L in
  let s = Rng.sample_without_replacement r ~k:10 ~n:20 in
  Alcotest.(check int) "k elements" 10 (List.length s);
  Alcotest.(check int) "distinct" 10 (List.length (List.sort_uniq compare s));
  List.iter
    (fun x -> Alcotest.(check bool) "in range" true (x >= 0 && x < 20))
    s;
  Alcotest.(check bool) "sorted" true (List.sort compare s = s)

(* -- Heap ----------------------------------------------------------------- *)

let heap_ordering () =
  let h = Heap.create () in
  List.iter
    (fun p -> Heap.push h ~priority:p p)
    [ 5.; 1.; 3.; 2.; 4.; 0.5; 10. ];
  let drained = List.map fst (Heap.to_sorted_list h) in
  Alcotest.(check (list (float 1e-9)))
    "sorted" [ 0.5; 1.; 2.; 3.; 4.; 5.; 10. ] drained

let heap_fifo_ties () =
  let h = Heap.create () in
  Heap.push h ~priority:1. "a";
  Heap.push h ~priority:1. "b";
  Heap.push h ~priority:1. "c";
  let pop () = snd (Option.get (Heap.pop h)) in
  Alcotest.(check string) "first in first out" "a" (pop ());
  Alcotest.(check string) "second" "b" (pop ());
  Alcotest.(check string) "third" "c" (pop ())

let heap_empty () =
  let h : int Heap.t = Heap.create () in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Alcotest.(check bool) "pop none" true (Heap.pop h = None);
  Alcotest.(check bool) "peek none" true (Heap.peek h = None)

let heap_peek_does_not_remove () =
  let h = Heap.create () in
  Heap.push h ~priority:2. 2;
  Heap.push h ~priority:1. 1;
  Alcotest.(check bool) "peek min" true (Heap.peek h = Some (1., 1));
  Alcotest.(check int) "length unchanged" 2 (Heap.length h)

let heap_to_sorted_preserves () =
  let h = Heap.create () in
  List.iter (fun p -> Heap.push h ~priority:(float_of_int p) p) [ 3; 1; 2 ];
  ignore (Heap.to_sorted_list h);
  Alcotest.(check int) "heap intact" 3 (Heap.length h)

let heap_property_sorted =
  QCheck.Test.make ~name:"heap drains in sorted order" ~count:200
    QCheck.(list (float_bound_exclusive 1000.))
    (fun priorities ->
      let h = Heap.create () in
      List.iter (fun p -> Heap.push h ~priority:p p) priorities;
      let drained = List.map fst (Heap.to_sorted_list h) in
      drained = List.stable_sort Float.compare priorities)

(* -- Stats ---------------------------------------------------------------- *)

let stats_mean_var () =
  let a = [| 1.; 2.; 3.; 4. |] in
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Stats.mean a);
  Alcotest.(check (float 1e-9)) "variance" 1.25 (Stats.variance a);
  Alcotest.(check (float 1e-9)) "empty mean" 0. (Stats.mean [||])

let stats_percentiles () =
  let a = [| 1.; 2.; 3.; 4.; 5. |] in
  Alcotest.(check (float 1e-9)) "p0" 1. (Stats.percentile a ~p:0.);
  Alcotest.(check (float 1e-9)) "p50" 3. (Stats.percentile a ~p:50.);
  Alcotest.(check (float 1e-9)) "p100" 5. (Stats.percentile a ~p:100.);
  Alcotest.(check (float 1e-9)) "p25 interpolated" 2. (Stats.percentile a ~p:25.)

let stats_histogram () =
  let h = Stats.histogram [| 0.; 1.; 2.; 3.; 4. |] ~bins:5 in
  Alcotest.(check (array int)) "uniform" [| 1; 1; 1; 1; 1 |] h.bins;
  let h2 = Stats.histogram [| 1.; 1.; 1. |] ~bins:3 in
  Alcotest.(check int) "degenerate data lands in bin 0" 3 h2.bins.(0)

let stats_summary () =
  let s = Stats.summarize [| 5.; 1.; 3. |] in
  Alcotest.(check int) "n" 3 s.n;
  Alcotest.(check (float 1e-9)) "min" 1. s.min;
  Alcotest.(check (float 1e-9)) "max" 5. s.max;
  Alcotest.(check (float 1e-9)) "median" 3. s.p50

let stats_ratio () =
  Alcotest.(check (float 1e-9)) "ratio" 0.5 (Stats.ratio 1 2);
  Alcotest.(check (float 1e-9)) "zero denominator" 0. (Stats.ratio 1 0)

let percentile_property =
  QCheck.Test.make ~name:"percentile within min..max" ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 50) (float_bound_exclusive 100.))
        (float_bound_inclusive 100.))
    (fun (l, p) ->
      let a = Array.of_list l in
      let v = Stats.percentile a ~p in
      let lo, hi = Stats.min_max a in
      v >= lo -. 1e-9 && v <= hi +. 1e-9)

(* -- Text table / charts --------------------------------------------------- *)

let table_alignment () =
  let s =
    Text_table.render ~header:[ "a"; "bb" ] [ [ "xxx"; "y" ]; [ "z" ] ]
  in
  let lines = String.split_on_char '\n' s in
  Alcotest.(check bool) "has header + rule + 2 rows" true
    (List.length (List.filter (fun l -> l <> "") lines) = 4)

let chart_smoke () =
  let s =
    Ascii_chart.scatter ~title:"t"
      [ { label = "a"; marker = '*'; points = [ (0., 0.); (1., 1.) ] } ]
  in
  Alcotest.(check bool) "contains marker" true (String.contains s '*');
  let b = Ascii_chart.bar ~title:"b" [ ("x", 1.); ("y", 2.) ] in
  Alcotest.(check bool) "contains hash" true (String.contains b '#');
  let sb =
    Ascii_chart.stacked_bars ~title:"s" ~series_labels:[ "u"; "v" ]
      [ ("r", [ 0.5; 0.5 ]) ]
  in
  Alcotest.(check bool) "nonempty" true (String.length sb > 0)

let sparkline_bounds () =
  Alcotest.(check string) "empty" "" (Ascii_chart.sparkline [||]);
  let s = Ascii_chart.sparkline [| 0.; 1. |] in
  Alcotest.(check int) "one char per sample" 2 (String.length s)

(* The flow, provenance and checkpoint writers' ints spell as
   [string_of_int] does, at the ends of the range too. *)
let decimal_matches_string_of_int =
  QCheck.Test.make ~name:"Decimal.add_int == string_of_int" ~count:2000
    QCheck.(
      oneof
        [
          int;
          int_range (-1000) 1000;
          oneofl [ min_int; max_int; min_int + 1; max_int - 1; 0; -1 ];
        ])
    (fun n ->
      let b = Buffer.create 4 in
      Decimal.add_int b n;
      Decimal.add_field b n;
      Buffer.contents b = string_of_int n ^ " " ^ string_of_int n)

(* The dump writer's times spell as [%.6f] does: simulated times (up to
   thirty days in seconds, microsecond grid and off it), exact binary
   ties, values a hair off a tie, negatives and -0., magnitudes past the
   fast path's limit, and non-finite values. *)
let fixed6_matches_printf =
  let open QCheck.Gen in
  let tie =
    (* k / 2^e with e >= 7: exact binary values, many of them halfway
       between two six-decimal numbers. *)
    map2 (fun k e -> Float.ldexp (float_of_int k) (-e)) (int_range 0 100_000)
      (int_range 7 20)
  in
  let gen =
    oneof
      [
        float_range 0. 2.6e6;
        map (fun k -> float_of_int k /. 1e6) (int_range 0 2_600_000_000);
        tie;
        map Float.succ tie;
        map Float.pred tie;
        map Float.neg (float_range 0. 1e4);
        float_range (-1e-6) 1e-6;
        float_range 4e6 1e12;
        float;
        oneofl [ 0.; -0.; Float.nan; Float.infinity; Float.neg_infinity;
                 0.0078125; 2.5e-7; 4398046.5111; Float.min_float ];
      ]
  in
  QCheck.Test.make ~name:"Decimal.add_fixed6 == Printf %.6f" ~count:20_000
    (QCheck.make ~print:(Printf.sprintf "%h") gen)
    (fun x ->
      let b = Buffer.create 16 in
      Decimal.add_fixed6 b x;
      Buffer.contents b = Printf.sprintf "%.6f" x)

let () =
  Alcotest.run "prelude"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick rng_deterministic;
          Alcotest.test_case "seeds differ" `Quick rng_seeds_differ;
          Alcotest.test_case "copy" `Quick rng_copy_independent;
          Alcotest.test_case "split" `Quick rng_split_independent;
          Alcotest.test_case "int bounds" `Quick rng_int_bounds;
          Alcotest.test_case "unit float range" `Quick rng_unit_float_range;
          Alcotest.test_case "bernoulli extremes" `Quick rng_bernoulli_extremes;
          Alcotest.test_case "bernoulli mean" `Quick rng_bernoulli_mean;
          Alcotest.test_case "exponential mean" `Quick rng_exponential_mean;
          Alcotest.test_case "gaussian moments" `Quick rng_gaussian_moments;
          Alcotest.test_case "shuffle permutation" `Quick
            rng_shuffle_permutation;
          Alcotest.test_case "sample without replacement" `Quick
            rng_sample_without_replacement;
        ] );
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick heap_ordering;
          Alcotest.test_case "fifo ties" `Quick heap_fifo_ties;
          Alcotest.test_case "empty" `Quick heap_empty;
          Alcotest.test_case "peek" `Quick heap_peek_does_not_remove;
          Alcotest.test_case "to_sorted preserves" `Quick
            heap_to_sorted_preserves;
          QCheck_alcotest.to_alcotest heap_property_sorted;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean/var" `Quick stats_mean_var;
          Alcotest.test_case "percentiles" `Quick stats_percentiles;
          Alcotest.test_case "histogram" `Quick stats_histogram;
          Alcotest.test_case "summary" `Quick stats_summary;
          Alcotest.test_case "ratio" `Quick stats_ratio;
          QCheck_alcotest.to_alcotest percentile_property;
        ] );
      ( "text",
        [
          Alcotest.test_case "table alignment" `Quick table_alignment;
          Alcotest.test_case "charts" `Quick chart_smoke;
          Alcotest.test_case "sparkline" `Quick sparkline_bounds;
          QCheck_alcotest.to_alcotest decimal_matches_string_of_int;
          QCheck_alcotest.to_alcotest fixed6_matches_printf;
        ] );
    ]
