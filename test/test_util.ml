(* Unit and property tests for the util library: RNG determinism and
   distribution sanity, statistics, table rendering. *)

module Rng = Vbl_util.Rng
module Stats = Vbl_util.Stats
module Table = Vbl_util.Table

let rng_tests =
  [
    Alcotest.test_case "same seed, same stream" `Quick (fun () ->
        let a = Rng.create ~seed:42L () and b = Rng.create ~seed:42L () in
        for _ = 1 to 100 do
          Alcotest.(check int64) "lockstep" (Rng.next_int64 a) (Rng.next_int64 b)
        done);
    Alcotest.test_case "different seeds diverge" `Quick (fun () ->
        let a = Rng.create ~seed:1L () and b = Rng.create ~seed:2L () in
        let same = ref 0 in
        for _ = 1 to 64 do
          if Rng.next_int64 a = Rng.next_int64 b then incr same
        done;
        Alcotest.(check bool) "mostly different" true (!same < 4));
    Alcotest.test_case "split streams are independent of parent use" `Quick (fun () ->
        let parent1 = Rng.create ~seed:7L () in
        let child1 = Rng.split parent1 in
        let first = Rng.next_int64 child1 in
        let parent2 = Rng.create ~seed:7L () in
        let child2 = Rng.split parent2 in
        Alcotest.(check int64) "same child stream" first (Rng.next_int64 child2));
    Alcotest.test_case "int respects bound" `Quick (fun () ->
        let r = Rng.create ~seed:3L () in
        for _ = 1 to 10_000 do
          let v = Rng.int r 17 in
          if v < 0 || v >= 17 then Alcotest.failf "out of range: %d" v
        done);
    Alcotest.test_case "int bound=1 always 0" `Quick (fun () ->
        let r = Rng.create ~seed:3L () in
        for _ = 1 to 100 do
          Alcotest.(check int) "zero" 0 (Rng.int r 1)
        done);
    Alcotest.test_case "int rejects non-positive bound" `Quick (fun () ->
        let r = Rng.create ~seed:3L () in
        Alcotest.check_raises "zero bound"
          (Invalid_argument "Rng.int: bound must be positive") (fun () ->
            ignore (Rng.int r 0)));
    Alcotest.test_case "in_range covers range" `Quick (fun () ->
        let r = Rng.create ~seed:5L () in
        let seen = Array.make 10 false in
        for _ = 1 to 5_000 do
          let v = Rng.in_range r ~lo:5 ~hi:15 in
          if v < 5 || v >= 15 then Alcotest.failf "out of range: %d" v;
          seen.(v - 5) <- true
        done;
        Alcotest.(check bool) "all values hit" true (Array.for_all Fun.id seen));
    Alcotest.test_case "float in unit interval" `Quick (fun () ->
        let r = Rng.create ~seed:9L () in
        for _ = 1 to 10_000 do
          let f = Rng.float r in
          if f < 0. || f >= 1. then Alcotest.failf "out of range: %f" f
        done);
    Alcotest.test_case "int roughly uniform" `Quick (fun () ->
        let r = Rng.create ~seed:13L () in
        let buckets = Array.make 10 0 in
        let n = 100_000 in
        for _ = 1 to n do
          let v = Rng.int r 10 in
          buckets.(v) <- buckets.(v) + 1
        done;
        Array.iteri
          (fun i c ->
            let expected = n / 10 in
            if abs (c - expected) > expected / 5 then
              Alcotest.failf "bucket %d count %d too far from %d" i c expected)
          buckets);
    Alcotest.test_case "bool is balanced" `Quick (fun () ->
        let r = Rng.create ~seed:17L () in
        let trues = ref 0 in
        let n = 100_000 in
        for _ = 1 to n do
          if Rng.bool r then incr trues
        done;
        Alcotest.(check bool) "near half" true (abs (!trues - (n / 2)) < n / 20));
    Alcotest.test_case "stream is a pure function of seed and index" `Quick
      (fun () ->
        let a = Rng.stream ~seed:42L ~index:3 in
        (* Deriving stream 3 must not depend on any other stream's state. *)
        let b0 = Rng.stream ~seed:42L ~index:0 in
        ignore (Rng.next_int64 b0);
        let a' = Rng.stream ~seed:42L ~index:3 in
        for _ = 1 to 50 do
          Alcotest.(check int64) "identical" (Rng.next_int64 a) (Rng.next_int64 a')
        done);
    Alcotest.test_case "stream indexes give distinct streams" `Quick (fun () ->
        let streams = List.init 8 (fun i -> (i, Rng.stream ~seed:42L ~index:i)) in
        let firsts = List.map (fun (i, r) -> (i, Rng.next_int64 r)) streams in
        List.iter
          (fun (i, vi) ->
            List.iter
              (fun (j, vj) ->
                if i < j && vi = vj then
                  Alcotest.failf "streams %d and %d collide on their first draw" i j)
              firsts)
          firsts;
        (* And streams with the same index but different seeds diverge. *)
        let x = Rng.stream ~seed:1L ~index:0 and y = Rng.stream ~seed:2L ~index:0 in
        let same = ref 0 in
        for _ = 1 to 64 do
          if Rng.next_int64 x = Rng.next_int64 y then incr same
        done;
        Alcotest.(check bool) "mostly different" true (!same < 4));
    Alcotest.test_case "stream rejects negative index" `Quick (fun () ->
        Alcotest.check_raises "negative"
          (Invalid_argument "Rng.stream: index must be >= 0") (fun () ->
            ignore (Rng.stream ~seed:1L ~index:(-1))));
  ]

(* ------------------------------------------------------------------ *)
(* Goodness of fit.  Pearson chi-squared against the claimed           *)
(* distribution, 1e6 draws from a fixed seed.  The critical value for  *)
(* df = 99 at significance 0.001 is 148.23: a correct generator fails  *)
(* one run in a thousand, and these runs are seeded, so a failure is a *)
(* real distribution bug, not flakiness.                               *)
(* ------------------------------------------------------------------ *)

let chi_squared ~observed ~expected =
  let chi2 = ref 0. in
  Array.iteri
    (fun i o ->
      let e = expected.(i) in
      let d = float_of_int o -. e in
      chi2 := !chi2 +. (d *. d /. e))
    observed;
  !chi2

let critical_df99_p001 = 148.23

let statistical_tests =
  [
    Alcotest.test_case "chi-squared: Rng.int is uniform (1e6 draws)" `Quick (fun () ->
        let r = Rng.create ~seed:0xC41L () in
        let k = 100 and n = 1_000_000 in
        let observed = Array.make k 0 in
        for _ = 1 to n do
          let v = Rng.int r k in
          observed.(v) <- observed.(v) + 1
        done;
        let expected = Array.make k (float_of_int n /. float_of_int k) in
        let chi2 = chi_squared ~observed ~expected in
        Alcotest.(check bool)
          (Printf.sprintf "chi2 %.1f below critical %.2f (df=99, p=0.001)" chi2
             critical_df99_p001)
          true (chi2 < critical_df99_p001));
    Alcotest.test_case "chi-squared: Zipf s=1 matches (1/k)/H_n (1e6 draws)" `Quick
      (fun () ->
        let k = 100 and n = 1_000_000 in
        let z = Vbl_util.Zipf.create ~s:1.0 ~n:k () in
        let r = Rng.create ~seed:0x21FL () in
        let observed = Array.make k 0 in
        for _ = 1 to n do
          let v = Vbl_util.Zipf.sample z r in
          observed.(v - 1) <- observed.(v - 1) + 1
        done;
        let harmonic = ref 0. in
        for i = 1 to k do
          harmonic := !harmonic +. (1. /. float_of_int i)
        done;
        let expected =
          Array.init k (fun i ->
              float_of_int n /. (float_of_int (i + 1) *. !harmonic))
        in
        (* Smallest expected cell: 1e6 / (100 * H_100) ~ 1900 >> 5, so the
           chi-squared approximation is valid for every bucket. *)
        let chi2 = chi_squared ~observed ~expected in
        Alcotest.(check bool)
          (Printf.sprintf "chi2 %.1f below critical %.2f (df=99, p=0.001)" chi2
             critical_df99_p001)
          true (chi2 < critical_df99_p001));
    Alcotest.test_case "stream outputs do not overlap across indexes" `Quick (fun () ->
        (* Jump-ahead-style stream derivation is only useful if the streams
           never re-enter each other's sequences: the first 10k outputs of
           streams 0..3 must be pairwise disjoint (64-bit outputs collide
           by birthday only with probability ~4e-11 here). *)
        let per_stream = 10_000 in
        let seen : (int64, int) Hashtbl.t = Hashtbl.create (4 * per_stream) in
        for index = 0 to 3 do
          let r = Rng.stream ~seed:42L ~index in
          for draw = 1 to per_stream do
            let v = Rng.next_int64 r in
            match Hashtbl.find_opt seen v with
            | Some other when other <> index ->
                Alcotest.failf
                  "streams %d and %d share output %Ld (draw %d of stream %d)" other
                  index v draw index
            | _ -> Hashtbl.replace seen v index
          done
        done);
  ]

let stats_tests =
  let feq = Alcotest.float 1e-9 in
  [
    Alcotest.test_case "mean" `Quick (fun () ->
        Alcotest.check feq "mean" 2.5 (Stats.mean [| 1.; 2.; 3.; 4. |]));
    Alcotest.test_case "stddev of constant is zero" `Quick (fun () ->
        Alcotest.check feq "stddev" 0. (Stats.stddev [| 5.; 5.; 5. |]));
    Alcotest.test_case "stddev sample formula" `Quick (fun () ->
        (* var of 2,4,4,4,5,5,7,9 is 32/7 with n-1 denominator *)
        let s = Stats.stddev [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |] in
        Alcotest.check (Alcotest.float 1e-6) "stddev" (sqrt (32. /. 7.)) s);
    Alcotest.test_case "stddev singleton is zero" `Quick (fun () ->
        Alcotest.check feq "stddev" 0. (Stats.stddev [| 1.0 |]));
    Alcotest.test_case "percentile endpoints" `Quick (fun () ->
        let xs = [| 10.; 20.; 30.; 40. |] in
        Alcotest.check feq "p0" 10. (Stats.percentile xs 0.);
        Alcotest.check feq "p100" 40. (Stats.percentile xs 100.));
    Alcotest.test_case "percentile interpolates" `Quick (fun () ->
        Alcotest.check feq "p50" 25. (Stats.percentile [| 10.; 20.; 30.; 40. |] 50.));
    Alcotest.test_case "median odd length" `Quick (fun () ->
        Alcotest.check feq "p50" 20. (Stats.percentile [| 30.; 10.; 20. |] 50.));
    Alcotest.test_case "summarize" `Quick (fun () ->
        let s = Stats.summarize [| 3.; 1.; 2. |] in
        Alcotest.(check int) "n" 3 s.Stats.n;
        Alcotest.check feq "mean" 2. s.Stats.mean;
        Alcotest.check feq "min" 1. s.Stats.min;
        Alcotest.check feq "max" 3. s.Stats.max;
        Alcotest.check feq "median" 2. s.Stats.median);
    Alcotest.test_case "empty input rejected" `Quick (fun () ->
        Alcotest.check_raises "mean" (Invalid_argument "Stats.mean: empty")
          (fun () -> ignore (Stats.mean [||])));
    Alcotest.test_case "speedup" `Quick (fun () ->
        Alcotest.check feq "2x" 2. (Stats.speedup ~baseline:5. 10.));
    Alcotest.test_case "summary_with_percentiles rejects empty input" `Quick
      (fun () ->
        Alcotest.check_raises "empty"
          (Invalid_argument "Stats.summary_with_percentiles: empty") (fun () ->
            ignore (Stats.summary_with_percentiles [||])));
    Alcotest.test_case "summary_with_percentiles single element" `Quick (fun () ->
        let s = Stats.summary_with_percentiles [| 7. |] in
        Alcotest.(check int) "n" 1 s.Stats.base.Stats.n;
        Alcotest.check feq "p50" 7. s.Stats.p50;
        Alcotest.check feq "p90" 7. s.Stats.p90;
        Alcotest.check feq "p99" 7. s.Stats.p99);
    Alcotest.test_case "summary_with_percentiles interpolates" `Quick (fun () ->
        (* 1..100: rank r maps to 1 + 99*r/100, linearly interpolated. *)
        let xs = Array.init 100 (fun i -> float_of_int (i + 1)) in
        let s = Stats.summary_with_percentiles xs in
        Alcotest.check feq "p50" 50.5 s.Stats.p50;
        Alcotest.check feq "p90" 90.1 s.Stats.p90;
        Alcotest.check feq "p99" 99.01 s.Stats.p99;
        Alcotest.check feq "mean via base" 50.5 s.Stats.base.Stats.mean;
        (* unsorted input gives the same answer *)
        let shuffled = Array.copy xs in
        let r = Rng.create ~seed:11L () in
        for i = Array.length shuffled - 1 downto 1 do
          let j = Rng.int r (i + 1) in
          let tmp = shuffled.(i) in
          shuffled.(i) <- shuffled.(j);
          shuffled.(j) <- tmp
        done;
        let s' = Stats.summary_with_percentiles shuffled in
        Alcotest.check feq "order-independent" s.Stats.p99 s'.Stats.p99);
  ]

let table_tests =
  [
    Alcotest.test_case "render aligns columns" `Quick (fun () ->
        let t = Table.create [ "name"; "value" ] in
        Table.add_row t [ "a"; "1" ];
        Table.add_row t [ "long-name"; "22" ];
        let lines = String.split_on_char '\n' (Table.render t) in
        Alcotest.(check int) "4 lines" 4 (List.length lines);
        (* all lines equally wide (right-padded) *)
        let widths = List.map String.length lines in
        Alcotest.(check bool) "uniform width" true
          (List.for_all (fun w -> w = List.hd widths) widths));
    Alcotest.test_case "short rows padded" `Quick (fun () ->
        let t = Table.create [ "a"; "b"; "c" ] in
        Table.add_row t [ "x" ];
        let csv = Table.render_csv t in
        Alcotest.(check string) "csv" "a,b,c\nx,," csv);
    Alcotest.test_case "over-long row rejected" `Quick (fun () ->
        let t = Table.create [ "a" ] in
        Alcotest.check_raises "too many"
          (Invalid_argument "Table.add_row: more cells than headers") (fun () ->
            Table.add_row t [ "1"; "2" ]));
    Alcotest.test_case "csv quotes specials" `Quick (fun () ->
        let t = Table.create [ "h" ] in
        Table.add_row t [ "a,b" ];
        Table.add_row t [ "say \"hi\"" ];
        Alcotest.(check string) "csv" "h\n\"a,b\"\n\"say \"\"hi\"\"\""
          (Table.render_csv t));
    Alcotest.test_case "si cells" `Quick (fun () ->
        Alcotest.(check string) "millions" "12.30M" (Table.si_cell 12.3e6);
        Alcotest.(check string) "thousands" "4.50k" (Table.si_cell 4500.);
        Alcotest.(check string) "units" "89.00" (Table.si_cell 89.);
        Alcotest.(check string) "billions" "1.20G" (Table.si_cell 1.2e9));
    Alcotest.test_case "float cells" `Quick (fun () ->
        Alcotest.(check string) "default" "3.14" (Table.float_cell 3.14159);
        Alcotest.(check string) "decimals" "3.1416" (Table.float_cell ~decimals:4 3.14159));
  ]

let zipf_tests =
  [
    Alcotest.test_case "samples stay in range" `Quick (fun () ->
        let z = Vbl_util.Zipf.create ~n:100 () in
        let r = Rng.create ~seed:3L () in
        for _ = 1 to 10_000 do
          let v = Vbl_util.Zipf.sample z r in
          if v < 1 || v > 100 then Alcotest.failf "out of range: %d" v
        done);
    Alcotest.test_case "skew concentrates on low keys" `Quick (fun () ->
        let z = Vbl_util.Zipf.create ~s:1.0 ~n:1000 () in
        let r = Rng.create ~seed:4L () in
        let low = ref 0 in
        let n = 50_000 in
        for _ = 1 to n do
          if Vbl_util.Zipf.sample z r <= 10 then incr low
        done;
        (* With s=1, n=1000: P(k<=10) = H(10)/H(1000) ~ 0.39. *)
        let frac = float_of_int !low /. float_of_int n in
        Alcotest.(check bool)
          (Printf.sprintf "top-10 mass %.2f in [0.3, 0.5]" frac)
          true
          (frac > 0.3 && frac < 0.5));
    Alcotest.test_case "s=0 degenerates to uniform" `Quick (fun () ->
        let z = Vbl_util.Zipf.create ~s:0. ~n:10 () in
        let r = Rng.create ~seed:5L () in
        let counts = Array.make 11 0 in
        let n = 50_000 in
        for _ = 1 to n do
          let v = Vbl_util.Zipf.sample z r in
          counts.(v) <- counts.(v) + 1
        done;
        for k = 1 to 10 do
          let expected = n / 10 in
          if abs (counts.(k) - expected) > expected / 4 then
            Alcotest.failf "key %d count %d too far from uniform %d" k counts.(k) expected
        done);
    Alcotest.test_case "invalid parameters rejected" `Quick (fun () ->
        Alcotest.check_raises "n" (Invalid_argument "Zipf.create: n must be >= 1")
          (fun () -> ignore (Vbl_util.Zipf.create ~n:0 ()));
        Alcotest.check_raises "s" (Invalid_argument "Zipf.create: s must be >= 0")
          (fun () -> ignore (Vbl_util.Zipf.create ~s:(-1.) ~n:5 ())));
  ]

module Json = Vbl_util.Json

let json_error text =
  match Json.parse text with
  | exception Json.Parse_error (msg, at) -> Printf.sprintf "%s at %d" msg at
  | _ -> "parsed"

let json_tests =
  [
    Alcotest.test_case "nested values, escapes and members" `Quick (fun () ->
        let v =
          Json.parse {| { "a": [1, -2.5e1, true, null], "s": "x\"y\n\u00e9", "o": {} } |}
        in
        Alcotest.(check bool)
          "array" true
          (Json.member "a" v = Some (Json.Arr [ Num 1.; Num (-25.); Bool true; Null ]));
        Alcotest.(check bool) "string" true (Json.member "s" v = Some (Json.Str "x\"y\n?"));
        Alcotest.(check bool) "empty object" true (Json.member "o" v = Some (Json.Obj []));
        Alcotest.(check bool) "missing" true (Json.member "z" v = None));
    Alcotest.test_case "errors carry a message and a byte offset" `Quick (fun () ->
        let check text expected = Alcotest.(check string) text expected (json_error text) in
        check {|{"points": [|} "unexpected end of input at 12";
        check "[1 2]" "expected ',' or ']' at 3";
        check "{} x" "trailing content at 3";
        check "[tru]" "expected true at 1";
        check {|"\q"|} "bad escape at 2";
        check "@" "unexpected character at 0");
  ]

let () =
  Alcotest.run "util"
    [
      ("json", json_tests);
      ("rng", rng_tests);
      ("statistical", statistical_tests);
      ("stats", stats_tests);
      ("table", table_tests);
      ("zipf", zipf_tests);
    ]
