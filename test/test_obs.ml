(* Tests for the observability layer: the sharded counter registry, the
   log-bucketed latency histograms, the event-trace ring, the probe
   install/uninstall contract, and — end to end — the counters produced
   by a real harness run and by a deterministically forced 2-thread
   contention schedule on the instrumented backend. *)

module Obs = Vbl_obs
module Metrics = Vbl_obs.Metrics
module Histogram = Vbl_obs.Histogram
module Trace = Vbl_obs.Trace
module Probe = Vbl_obs.Probe
module Instr = Vbl_memops.Instr_mem
open Vbl_sched

(* Every test that installs a probe or touches the global registry runs
   single-threaded, so reset/install here are at quiescence as required. *)
let with_metrics_probe f =
  Metrics.reset ();
  Probe.install (Probe.metrics ());
  Fun.protect ~finally:Probe.uninstall f

(* ------------------------------------------------------------------ *)
(* Metrics registry.                                                   *)
(* ------------------------------------------------------------------ *)

let metrics_tests =
  [
    Alcotest.test_case "labels are unique and indexes dense" `Quick (fun () ->
        Alcotest.(check int) "count" Metrics.num_counters (List.length Metrics.all);
        let labels = List.map Metrics.label Metrics.all in
        Alcotest.(check int) "labels unique" (List.length labels)
          (List.length (List.sort_uniq compare labels));
        let idxs = List.sort compare (List.map Metrics.index Metrics.all) in
        Alcotest.(check (list int)) "dense" (List.init Metrics.num_counters Fun.id) idxs);
    Alcotest.test_case "incr / snapshot / reset" `Quick (fun () ->
        Metrics.reset ();
        Metrics.incr Metrics.Restarts;
        Metrics.incr Metrics.Restarts;
        Metrics.add Metrics.Cas_attempts 5;
        let s = Metrics.snapshot () in
        Alcotest.(check int) "restarts" 2 (Metrics.get s Metrics.Restarts);
        Alcotest.(check int) "cas" 5 (Metrics.get s Metrics.Cas_attempts);
        Alcotest.(check int) "untouched" 0 (Metrics.get s Metrics.Logical_deletes);
        Metrics.reset ();
        let z = Metrics.snapshot () in
        List.iter (fun c -> Alcotest.(check int) "zeroed" 0 (Metrics.get z c)) Metrics.all);
    Alcotest.test_case "diff and sum" `Quick (fun () ->
        Metrics.reset ();
        Metrics.incr Metrics.Traversal_steps;
        let before = Metrics.snapshot () in
        Metrics.add Metrics.Traversal_steps 9;
        let after = Metrics.snapshot () in
        let d = Metrics.diff after before in
        Alcotest.(check int) "diff" 9 (Metrics.get d Metrics.Traversal_steps);
        let s = Metrics.sum [ d; d; d ] in
        Alcotest.(check int) "sum" 27 (Metrics.get s Metrics.Traversal_steps));
    Alcotest.test_case "to_assoc order and to_json shape" `Quick (fun () ->
        Metrics.reset ();
        Metrics.incr Metrics.Restarts;
        let s = Metrics.snapshot () in
        Alcotest.(check (list string))
          "assoc follows reporting order"
          (List.map Metrics.label Metrics.all)
          (List.map fst (Metrics.to_assoc s));
        let json = Metrics.to_json s in
        Alcotest.(check bool) "json has the field" true
          (let sub = "\"restarts\": 1" in
           let rec find i =
             i + String.length sub <= String.length json
             && (String.sub json i (String.length sub) = sub || find (i + 1))
           in
           find 0));
    Alcotest.test_case "shard labels are memoized and stable" `Quick (fun () ->
        Alcotest.(check string) "shard0" "shard0" (Metrics.shard_label 0);
        Alcotest.(check string) "shard9" "shard9" (Metrics.shard_label 9);
        Alcotest.(check bool) "memoized: same physical string" true
          (Metrics.shard_label 9 == Metrics.shard_label 9);
        Alcotest.check_raises "negative raises"
          (Invalid_argument "Metrics.shard_label: negative index") (fun () ->
            ignore (Metrics.shard_label (-1))));
    Alcotest.test_case "multi-domain increments all land" `Quick (fun () ->
        Metrics.reset ();
        let per_domain = 10_000 in
        let ds =
          List.init 4 (fun _ ->
              Domain.spawn (fun () ->
                  for _ = 1 to per_domain do
                    Metrics.incr Metrics.Traversal_steps
                  done))
        in
        List.iter Domain.join ds;
        Alcotest.(check int) "total" (4 * per_domain)
          (Metrics.get (Metrics.snapshot ()) Metrics.Traversal_steps));
  ]

(* ------------------------------------------------------------------ *)
(* Latency histograms.                                                 *)
(* ------------------------------------------------------------------ *)

let histogram_tests =
  [
    Alcotest.test_case "empty histogram summarizes to None" `Quick (fun () ->
        Alcotest.(check bool) "none" true (Histogram.summarize (Histogram.create ()) = None));
    Alcotest.test_case "single sample: exact extremes, bucketed middle" `Quick
      (fun () ->
        let h = Histogram.create () in
        Histogram.record h 1000;
        match Histogram.summarize h with
        | None -> Alcotest.fail "expected a summary"
        | Some s ->
            Alcotest.(check int) "n" 1 s.Histogram.n;
            Alcotest.check (Alcotest.float 1e-9) "max exact" 1000. s.Histogram.max;
            (* quantiles are bucket midpoints: within 12.5% of the truth *)
            Alcotest.(check bool) "p50 close" true
              (abs_float (s.Histogram.p50 -. 1000.) <= 125.);
            Alcotest.(check bool) "p99 close" true
              (abs_float (s.Histogram.p99 -. 1000.) <= 125.));
    Alcotest.test_case "quantiles are ordered and within relative error" `Quick
      (fun () ->
        let h = Histogram.create () in
        for v = 1 to 10_000 do
          Histogram.record h v
        done;
        match Histogram.summarize h with
        | None -> Alcotest.fail "expected a summary"
        | Some s ->
            Alcotest.(check bool) "p50 <= p90" true (s.Histogram.p50 <= s.Histogram.p90);
            Alcotest.(check bool) "p90 <= p99" true (s.Histogram.p90 <= s.Histogram.p99);
            Alcotest.(check bool) "p99 <= max" true (s.Histogram.p99 <= s.Histogram.max);
            Alcotest.(check bool)
              (Printf.sprintf "p50 %.0f within 12.5%% of 5000" s.Histogram.p50)
              true
              (abs_float (s.Histogram.p50 -. 5_000.) <= 650.);
            Alcotest.(check bool)
              (Printf.sprintf "p99 %.0f within 12.5%% of 9900" s.Histogram.p99)
              true
              (abs_float (s.Histogram.p99 -. 9_900.) <= 1_300.);
            Alcotest.check (Alcotest.float 1e-9) "max exact" 10_000. s.Histogram.max;
            Alcotest.(check bool) "mean near 5000" true
              (abs_float (s.Histogram.mean -. 5_000.5) <= 1.));
    Alcotest.test_case "small values are exact" `Quick (fun () ->
        let h = Histogram.create () in
        List.iter (Histogram.record h) [ 0; 1; 2; 3; 4; 5; 6; 7 ];
        Alcotest.check (Alcotest.float 1e-9) "p0" 0. (Histogram.percentile h 0.);
        Alcotest.check (Alcotest.float 1e-9) "p100" 7. (Histogram.percentile h 100.));
    Alcotest.test_case "negative samples clamp to zero" `Quick (fun () ->
        let h = Histogram.create () in
        Histogram.record h (-42);
        Alcotest.(check int) "counted" 1 (Histogram.count h);
        Alcotest.check (Alcotest.float 1e-9) "max" 0. (Histogram.percentile h 100.));
    Alcotest.test_case "merge adds counts and keeps extremes" `Quick (fun () ->
        let a = Histogram.create () and b = Histogram.create () in
        for _ = 1 to 10 do
          Histogram.record a 100
        done;
        Histogram.record b 1_000_000;
        Histogram.merge ~into:a b;
        match Histogram.summarize a with
        | None -> Alcotest.fail "expected a summary"
        | Some s ->
            Alcotest.(check int) "n" 11 s.Histogram.n;
            Alcotest.check (Alcotest.float 1e-9) "max from b" 1_000_000. s.Histogram.max;
            Alcotest.(check bool) "p50 still around 100" true
              (abs_float (s.Histogram.p50 -. 100.) <= 13.));
    Alcotest.test_case "huge values do not crash the bucketing" `Quick (fun () ->
        let h = Histogram.create () in
        Histogram.record h max_int;
        Histogram.record h 1;
        Alcotest.(check int) "n" 2 (Histogram.count h);
        Alcotest.(check bool) "p100 positive" true (Histogram.percentile h 100. > 0.));
    Alcotest.test_case "empty histogram: nan percentile and mean, no raise" `Quick
      (fun () ->
        let h = Histogram.create () in
        Alcotest.(check bool) "p50 nan" true (Float.is_nan (Histogram.percentile h 50.));
        Alcotest.(check bool) "p0 nan" true (Float.is_nan (Histogram.percentile h 0.));
        Alcotest.(check bool) "p100 nan" true (Float.is_nan (Histogram.percentile h 100.));
        Alcotest.(check bool) "mean nan" true (Float.is_nan (Histogram.mean h));
        (* range errors still raise, even on an empty histogram *)
        Alcotest.check_raises "p>100 raises"
          (Invalid_argument "Histogram.percentile: p out of range") (fun () ->
            ignore (Histogram.percentile h 101.)));
    Alcotest.test_case "single sample: every percentile is that sample" `Quick
      (fun () ->
        let h = Histogram.create () in
        Histogram.record h 7;
        (* 7 is below the exact-bucket boundary, so no bucketing error *)
        List.iter
          (fun p ->
            Alcotest.check (Alcotest.float 1e-9)
              (Printf.sprintf "p%.0f" p)
              7. (Histogram.percentile h p))
          [ 0.; 50.; 99.9; 100. ];
        Alcotest.check (Alcotest.float 1e-9) "mean" 7. (Histogram.mean h));
    Alcotest.test_case "values above the top bucket keep percentiles finite" `Quick
      (fun () ->
        (* max_int lands in the final log bucket, whose lower bound is
           2^62: the old int-arithmetic bucket_low overflowed to min_int
           here, producing negative percentiles. *)
        let h = Histogram.create () in
        for _ = 1 to 100 do
          Histogram.record h max_int
        done;
        let p99 = Histogram.percentile h 99. in
        Alcotest.(check bool) "p99 finite" true (Float.is_finite p99);
        Alcotest.(check bool) "p99 at least 2^62" true (p99 >= Float.ldexp 1. 62);
        Alcotest.(check bool) "p99 not above max sample" true
          (p99 <= float_of_int max_int);
        Alcotest.check (Alcotest.float 1e-9) "p100 exact max" (float_of_int max_int)
          (Histogram.percentile h 100.);
        Alcotest.(check bool) "mean in the top octave" true
          (Histogram.mean h >= Float.ldexp 1. 62));
    Alcotest.test_case "p99.9 on 1000 samples does not overshoot to max" `Quick
      (fun () ->
        (* 99.9/100*1000 = 999.00000000000006 in floats: a bare ceil gave
           rank 1000 and returned the outlier max.  The closest rank is
           999, which must land in the bulk. *)
        let h = Histogram.create () in
        for _ = 1 to 999 do
          Histogram.record h 100
        done;
        Histogram.record h 1_000_000;
        Alcotest.(check bool) "p99.9 in the bulk" true (Histogram.percentile h 99.9 <= 113.);
        Alcotest.check (Alcotest.float 1e-9) "p99.99 is the exact max" 1_000_000.
          (Histogram.percentile h 99.99));
    Alcotest.test_case "sparse two-sample histogram: extreme percentiles exact" `Quick
      (fun () ->
        let h = Histogram.create () in
        Histogram.record h 10;
        Histogram.record h 1_000_000;
        (* rank 1 -> exact min, rank n -> exact max, no bucket smearing *)
        Alcotest.check (Alcotest.float 1e-9) "p0.1 = min" 10. (Histogram.percentile h 0.1);
        Alcotest.check (Alcotest.float 1e-9) "p50 = min" 10. (Histogram.percentile h 50.);
        Alcotest.check (Alcotest.float 1e-9) "p99.9 = max" 1_000_000.
          (Histogram.percentile h 99.9));
    Alcotest.test_case "summary carries min, p999, p9999" `Quick (fun () ->
        let h = Histogram.create () in
        for v = 1 to 10_000 do
          Histogram.record h v
        done;
        match Histogram.summarize h with
        | None -> Alcotest.fail "expected a summary"
        | Some s ->
            Alcotest.check (Alcotest.float 1e-9) "min exact" 1. s.Histogram.min;
            Alcotest.(check bool) "p99 <= p999" true (s.Histogram.p99 <= s.Histogram.p999);
            Alcotest.(check bool) "p999 <= p9999" true
              (s.Histogram.p999 <= s.Histogram.p9999);
            Alcotest.(check bool) "p9999 <= max" true (s.Histogram.p9999 <= s.Histogram.max);
            Alcotest.(check bool)
              (Printf.sprintf "p999 %.0f within 12.5%% of 9990" s.Histogram.p999)
              true
              (abs_float (s.Histogram.p999 -. 9_990.) <= 1_300.));
    Alcotest.test_case "min_value / max_value / sum / clear" `Quick (fun () ->
        let h = Histogram.create () in
        Alcotest.(check bool) "empty min nan" true (Float.is_nan (Histogram.min_value h));
        Alcotest.(check bool) "empty max nan" true (Float.is_nan (Histogram.max_value h));
        List.iter (Histogram.record h) [ 3; 500; 100 ];
        Alcotest.check (Alcotest.float 1e-9) "min" 3. (Histogram.min_value h);
        Alcotest.check (Alcotest.float 1e-9) "max" 500. (Histogram.max_value h);
        Alcotest.check (Alcotest.float 1e-9) "sum" 603. (Histogram.sum h);
        Histogram.clear h;
        Alcotest.(check int) "cleared" 0 (Histogram.count h);
        Alcotest.(check bool) "no summary" true (Histogram.summarize h = None));
    Alcotest.test_case "merged combines counts and extremes" `Quick (fun () ->
        let a = Histogram.create () and b = Histogram.create () and c = Histogram.create () in
        Histogram.record a 10;
        Histogram.record b 20;
        Histogram.record c 1_000_000;
        let m = Histogram.merged [ a; b; c ] in
        Alcotest.(check int) "n" 3 (Histogram.count m);
        Alcotest.check (Alcotest.float 1e-9) "min" 10. (Histogram.min_value m);
        Alcotest.check (Alcotest.float 1e-9) "max" 1_000_000. (Histogram.max_value m);
        (* sources untouched *)
        Alcotest.(check int) "a intact" 1 (Histogram.count a));
    Alcotest.test_case "cumulative_buckets covers all samples" `Quick (fun () ->
        let h = Histogram.create () in
        Alcotest.(check bool) "empty has a bucket" true
          (Histogram.cumulative_buckets h = [ (8., 0) ]);
        List.iter (Histogram.record h) [ 1; 2; 3 ];
        Alcotest.(check bool) "small values in first bucket" true
          (Histogram.cumulative_buckets h = [ (8., 3) ]);
        Histogram.record h 100_000;
        let buckets = Histogram.cumulative_buckets h in
        let prev = ref 0 in
        List.iter
          (fun (_, c) ->
            Alcotest.(check bool) "non-decreasing" true (c >= !prev);
            prev := c)
          buckets;
        Alcotest.(check int) "last covers everything" 4 (snd (List.nth buckets (List.length buckets - 1))));
  ]

(* ------------------------------------------------------------------ *)
(* Event-trace ring.                                                   *)
(* ------------------------------------------------------------------ *)

let ev thread step kind = { Trace.thread; step; kind }

let trace_tests =
  [
    Alcotest.test_case "ring keeps the most recent events" `Quick (fun () ->
        let t = Trace.create ~capacity:4 () in
        for i = 1 to 6 do
          Trace.emit t (ev 0 (Printf.sprintf "s%d" i) Trace.Read)
        done;
        Alcotest.(check int) "emitted" 6 (Trace.emitted t);
        Alcotest.(check int) "dropped" 2 (Trace.dropped t);
        Alcotest.(check (list string))
          "oldest-first, oldest two gone"
          [ "s3"; "s4"; "s5"; "s6" ]
          (List.map (fun (e : Trace.event) -> e.Trace.step) (Trace.events t)));
    Alcotest.test_case "event rendering carries thread, kind, step" `Quick (fun () ->
        let line = Trace.event_to_string (ev 3 "X5.next" Trace.Write) in
        List.iter
          (fun needle ->
            let rec find i =
              i + String.length needle <= String.length line
              && (String.sub line i (String.length needle) = needle || find (i + 1))
            in
            Alcotest.(check bool) ("has " ^ needle) true (find 0))
          [ "t3"; "X5.next"; Trace.kind_to_string Trace.Write ]);
  ]

(* ------------------------------------------------------------------ *)
(* Contention profiler, flight recorder, interval reporter.            *)
(* ------------------------------------------------------------------ *)

let contention_tests =
  [
    Alcotest.test_case "ring-overflow count reaches the metrics registry" `Quick
      (fun () ->
        Metrics.reset ();
        let t = Trace.create ~capacity:4 () in
        for i = 1 to 6 do
          Trace.emit t (ev 0 (Printf.sprintf "s%d" i) Trace.Read)
        done;
        Alcotest.(check int) "trace_dropped counter" 2
          (Metrics.get (Metrics.snapshot ()) Metrics.Trace_dropped));
    Alcotest.test_case "contention: per-site attribution and hot shards" `Quick
      (fun () ->
        Obs.Contention.reset ();
        Obs.Contention.enable ();
        Fun.protect ~finally:Obs.Contention.disable (fun () ->
            Obs.Contention.record_wait Obs.Contention.Lock_next_at 100;
            Obs.Contention.record_wait Obs.Contention.Lock_next_at 300;
            Obs.Contention.record_hold Obs.Contention.Lock_next_at 50;
            Obs.Contention.record_wait Obs.Contention.Blocking_acquire 1_000;
            Obs.Contention.shard_op 3;
            Obs.Contention.shard_op 3;
            Obs.Contention.shard_op 1);
        let stats = Obs.Contention.report () in
        let by site =
          List.find (fun (s : Obs.Contention.site_stats) -> s.site = site) stats
        in
        Alcotest.(check int) "two lock_next_at waits" 2
          (Histogram.count (by Obs.Contention.Lock_next_at).wait);
        Alcotest.(check int) "one lock_next_at hold" 1
          (Histogram.count (by Obs.Contention.Lock_next_at).hold);
        Alcotest.(check int) "one blocking acquire" 1
          (Histogram.count (by Obs.Contention.Blocking_acquire).wait);
        (match Obs.Contention.hot_shards () with
        | (s, n) :: _ ->
            Alcotest.(check int) "hottest shard" 3 s;
            Alcotest.(check int) "its traffic" 2 n
        | [] -> Alcotest.fail "expected sharded traffic");
        let table = Obs.Contention.render_site_table () in
        Alcotest.(check bool) "table names the site" true
          (let needle = "lock_next_at" in
           let rec find i =
             i + String.length needle <= String.length table
             && (String.sub table i (String.length needle) = needle || find (i + 1))
           in
           find 0);
        Obs.Contention.reset ();
        Alcotest.(check (list (pair int int))) "reset clears shards" []
          (Obs.Contention.hot_shards ()));
    Alcotest.test_case "recorder: ring keeps most recent, overflow counted" `Quick
      (fun () ->
        Metrics.reset ();
        Obs.Recorder.reset ();
        Obs.Recorder.set_capacity 2;
        Obs.Recorder.set_enabled true;
        (* A fresh domain gets a fresh ring at the new capacity. *)
        Domain.join
          (Domain.spawn (fun () ->
               for i = 1 to 3 do
                 Obs.Recorder.record ~thread:9 ~kind:Obs.Recorder.Insert ~key:i
                   ~shard:(-1) ~ok:true ~restarts:0 ~t0_ns:(i * 10)
                   ~t1_ns:((i * 10) + 5)
               done));
        Obs.Recorder.set_enabled false;
        Obs.Recorder.set_capacity 4096;
        let mine =
          List.filter
            (fun (e : Obs.Recorder.entry) -> e.thread = 9)
            (Obs.Recorder.entries ())
        in
        Alcotest.(check (list int))
          "two most recent survive, start-time order" [ 2; 3 ]
          (List.map (fun (e : Obs.Recorder.entry) -> e.key) mine);
        Alcotest.(check bool) "overflow counted" true (Obs.Recorder.dropped () >= 1);
        Alcotest.(check bool) "overflow reaches metrics" true
          (Metrics.get (Metrics.snapshot ()) Metrics.Recorder_dropped >= 1);
        let dump = Obs.Recorder.dump () in
        Alcotest.(check bool) "dump has the header" true
          (String.length dump >= 15 && String.sub dump 0 15 = "flight recorder");
        Obs.Recorder.reset ();
        Alcotest.(check (list int)) "reset empties" []
          (List.map
             (fun (e : Obs.Recorder.entry) -> e.key)
             (Obs.Recorder.entries ())));
    Alcotest.test_case "interval reporter: snapshot-delta lines" `Quick (fun () ->
        Metrics.reset ();
        let r = Obs.Interval.start () in
        Metrics.add Metrics.Ops_completed 100;
        let l1 = Obs.Interval.tick r in
        Metrics.add Metrics.Ops_completed 50;
        let l2 = Obs.Interval.tick r in
        let has needle hay =
          let rec find i =
            i + String.length needle <= String.length hay
            && (String.sub hay i (String.length needle) = needle || find (i + 1))
          in
          find 0
        in
        Alcotest.(check bool) "first tick numbered" true (has "[interval 1]" l1);
        Alcotest.(check bool) "second tick numbered" true (has "[interval 2]" l2);
        Alcotest.(check bool) "reports restart rate" true (has "restarts/op" l1));
  ]

(* ------------------------------------------------------------------ *)
(* Probe contract.                                                     *)
(* ------------------------------------------------------------------ *)

let probe_tests =
  [
    Alcotest.test_case "no probe installed: counts go nowhere" `Quick (fun () ->
        if Probe.installed () then Probe.uninstall ();
        Metrics.reset ();
        Probe.count Metrics.Restarts;
        Probe.count Metrics.Cas_failures;
        Alcotest.(check int) "restarts still zero" 0
          (Metrics.get (Metrics.snapshot ()) Metrics.Restarts);
        Alcotest.(check bool) "tracing off" false (Probe.trace_enabled ()));
    Alcotest.test_case "metrics probe routes counts to the registry" `Quick (fun () ->
        with_metrics_probe (fun () ->
            Probe.count Metrics.Restarts;
            Alcotest.(check int) "restart counted" 1
              (Metrics.get (Metrics.snapshot ()) Metrics.Restarts));
        Metrics.reset ();
        Probe.count Metrics.Restarts;
        Alcotest.(check int) "uninstalled again" 0
          (Metrics.get (Metrics.snapshot ()) Metrics.Restarts));
    Alcotest.test_case "tracer probe routes events, with_trace combines" `Quick
      (fun () ->
        let tr = Trace.create () in
        Probe.install (Probe.tracer tr);
        Alcotest.(check bool) "tracing on" true (Probe.trace_enabled ());
        Probe.emit (ev 0 "a" Trace.Note);
        Probe.uninstall ();
        Probe.emit (ev 0 "dropped" Trace.Note);
        Alcotest.(check int) "one event" 1 (Trace.emitted tr);
        Metrics.reset ();
        Probe.install (Probe.with_trace tr (Probe.metrics ()));
        Probe.count Metrics.Restarts;
        Probe.emit (ev 1 "b" Trace.Note);
        Probe.uninstall ();
        Alcotest.(check int) "count and trace" 1
          (Metrics.get (Metrics.snapshot ()) Metrics.Restarts);
        Alcotest.(check int) "two events" 2 (Trace.emitted tr));
  ]

(* ------------------------------------------------------------------ *)
(* End to end: counters from real runs and from a forced contention     *)
(* schedule.                                                            *)
(* ------------------------------------------------------------------ *)

(* Single-threaded read-only run: nothing can restart, fail a lock
   validation, or delete — those counters must be exactly zero, while
   traversal work must show up. *)
let single_threaded_readonly_test =
  Alcotest.test_case "1-thread read-only run: zero restarts and lock failures"
    `Quick (fun () ->
      let impl = Vbl_harness.Sweep.find_real "vbl" in
      let params =
        {
          Vbl_harness.Runner.threads = 1;
          spec = Vbl_harness.Workload.uniform ~update_percent:0 ~key_range:64;
          duration_s = 0.05;
          warmup_s = 0.0;
          trials = 1;
          seed = 7L;
        }
      in
      let r = Vbl_harness.Runner.run ~metrics:true impl params in
      match r.Vbl_harness.Runner.metrics with
      | None -> Alcotest.fail "expected a metrics snapshot"
      | Some m ->
          List.iter
            (fun c ->
              Alcotest.(check int) ("zero " ^ Metrics.label c) 0 (Metrics.get m c))
            [
              Metrics.Restarts;
              Metrics.Lock_next_at_failures;
              Metrics.Lock_next_at_value_failures;
              Metrics.Validation_failures;
              Metrics.Lock_contended;
              Metrics.Cas_failures;
              Metrics.Logical_deletes;
              Metrics.Physical_unlinks;
            ];
          Alcotest.(check bool) "traversed" true
            (Metrics.get m Metrics.Traversal_steps > 0);
          Alcotest.(check bool) "contains latency measured" true
            (List.mem_assoc "contains" r.Vbl_harness.Runner.latency))

(* Forced contention on the instrumented backend, deterministically:
   T0 = remove 5 runs up to the point where it holds its locks and is
   about to mark X5; T1 = insert 7 then needs X5 (its predecessor) and
   must park; T0 finishes, T1 wakes into a failed lock_next_at
   validation and restarts.  Every interesting counter is pinned. *)
let forced_contention_test =
  Alcotest.test_case "2-thread forced contention: restarts and lock failures"
    `Quick (fun () ->
      let module S = Vbl_lists.Registry.Vbl_i in
      let t =
        Instr.run_sequential (fun () ->
            let t = S.create () in
            ignore (S.insert t 5);
            t)
      in
      Metrics.reset ();
      Probe.install (Probe.metrics ());
      Fun.protect ~finally:Probe.uninstall (fun () ->
          let exec =
            Exec.create
              [ (fun () -> ignore (S.remove t 5)); (fun () -> ignore (S.insert t 7)) ]
          in
          (* T0 to the brink of its logical delete (locks held). *)
          let rec advance_t0 () =
            match Exec.pending exec 0 with
            | Exec.Access a when a.Instr.name = "X5.del" && a.Instr.kind = Instr.Write
              ->
                ()
            | Exec.Access _ ->
                Exec.step exec 0;
                advance_t0 ()
            | _ -> Alcotest.fail "remove(5) blocked or finished before marking X5"
          in
          advance_t0 ();
          (* T1 locates (X5, tail) and must park on X5's held lock. *)
          let rec advance_t1 () =
            if Exec.runnable exec 1 then begin
              (match Exec.pending exec 1 with
              | Exec.Done -> Alcotest.fail "insert(7) finished without contention"
              | _ -> ());
              Exec.step exec 1;
              advance_t1 ()
            end
          in
          advance_t1 ();
          (match Exec.pending exec 1 with
          | Exec.Blocked l -> Alcotest.(check string) "parked on X5" "X5.lock" l.Instr.l_name
          | _ -> Alcotest.fail "expected insert(7) parked on X5.lock");
          (* Finish T0; its unlink frees the lock, T1 restarts and succeeds. *)
          while Exec.pending exec 0 <> Exec.Done do
            Exec.step exec 0
          done;
          Exec.drain exec;
          let m = Metrics.snapshot () in
          Alcotest.(check bool) "restarted" true (Metrics.get m Metrics.Restarts >= 1);
          Alcotest.(check bool) "lock_next_at failed" true
            (Metrics.get m Metrics.Lock_next_at_failures >= 1);
          Alcotest.(check int) "one logical delete" 1
            (Metrics.get m Metrics.Logical_deletes);
          Alcotest.(check int) "one physical unlink" 1
            (Metrics.get m Metrics.Physical_unlinks);
          Alcotest.(check bool) "locks were acquired" true
            (Metrics.get m Metrics.Lock_acquisitions >= 2));
      Alcotest.(check bool) "5 removed" false
        (Instr.run_sequential (fun () -> S.contains t 5));
      Alcotest.(check bool) "7 inserted" true
        (Instr.run_sequential (fun () -> S.contains t 7)))

(* vbl-bst probes, pinned per operation on a fixed tree.  A descent
   counts one hop per child slot it reads; a lock counts once it passes
   its validation (the state lock: not unlinked; the splice's tree
   locks: the victim is still the parent's live child).  A remove's
   cleanup takes the victim's state lock again, then both tree locks. *)
let bst_probe_counts f =
  with_metrics_probe (fun () -> ignore (f () : bool));
  let m = Metrics.snapshot () in
  Metrics.(get m Traversal_steps, get m Lock_acquisitions, get m Restarts)

let bst_fixed_tree_test =
  Alcotest.test_case "vbl-bst: exact counts on a fixed tree" `Quick (fun () ->
      let module S = Vbl_trees.Registry.Vbl_bst_impl in
      (*        rt
               /
              4
             / \
            2   6
           / \
          1   3      *)
      let t = S.create () in
      List.iter (fun v -> ignore (S.insert t v)) [ 4; 2; 6; 1; 3 ];
      List.iter
        (fun (what, f, expected) ->
          Alcotest.(check (triple int int int))
            (what ^ ": hops, lock acquisitions, restarts")
            expected (bst_probe_counts f))
        [
          ("contains 3", (fun () -> S.contains t 3), (3, 0, 0));
          ("contains 5 (falls off 6)", (fun () -> S.contains t 5), (3, 0, 0));
          ("insert 4 (present)", (fun () -> S.insert t 4), (1, 0, 0));
          ("remove 7 (absent)", (fun () -> S.remove t 7), (3, 0, 0));
          ("insert 5 (link under 6)", (fun () -> S.insert t 5), (3, 1, 0));
          ("remove 2 (two children: stays)", (fun () -> S.remove t 2), (2, 4, 0));
          ("contains 2 (routing node)", (fun () -> S.contains t 2), (2, 0, 0));
          ("insert 2 (revive)", (fun () -> S.insert t 2), (2, 1, 0));
          ("remove 1 (leaf: spliced)", (fun () -> S.remove t 1), (3, 4, 0));
          ("contains 1", (fun () -> S.contains t 1), (3, 0, 0));
        ];
      Alcotest.(check (list int)) "contents" [ 2; 3; 4; 5; 6 ] (S.to_list t))

(* lazy-bst and lockfree-bst count hops the same way, on the same fixed
   tree in their external shape (keys in the leaves; a router per
   insert).  lazy-bst descends from its inner sentinel, lockfree-bst
   from the root, whose left slot it reads first: one more hop per
   descent.  lazy-bst locks before it decides, so its failed updates
   take locks; lockfree-bst takes none. *)
let external_bst_fixed_tree_test name (module S : Vbl_lists.Set_intf.S) expected =
  Alcotest.test_case (name ^ ": exact counts on a fixed tree") `Quick (fun () ->
      (*          inner
                  /
                R4
               /  \
             R2    R6
            /  \   / \
          R1   R3 4   6
          / \  / \
        min 1 2   3     *)
      let t = S.create () in
      List.iter (fun v -> ignore (S.insert t v)) [ 4; 2; 6; 1; 3 ];
      List.iter2
        (fun (what, f) expected ->
          Alcotest.(check (triple int int int))
            (what ^ ": hops, lock acquisitions, restarts")
            expected (bst_probe_counts f))
        [
          ("contains 3", fun () -> S.contains t 3);
          ("contains 5 (absent)", fun () -> S.contains t 5);
          ("insert 4 (present)", fun () -> S.insert t 4);
          ("remove 7 (absent)", fun () -> S.remove t 7);
          ("insert 5 (router over 4 and 5)", fun () -> S.insert t 5);
          ("remove 1 (its router spliced)", fun () -> S.remove t 1);
          ("contains 1", fun () -> S.contains t 1);
        ]
        expected;
      Alcotest.(check (list int)) "contents" [ 2; 3; 4; 5; 6 ] (S.to_list t))

let lazy_bst_fixed_tree_test =
  external_bst_fixed_tree_test "lazy-bst"
    (module Vbl_trees.Registry.Lazy_bst_impl)
    [ (4, 0, 0); (3, 0, 0); (3, 1, 0); (3, 2, 0); (3, 1, 0); (4, 2, 0); (3, 0, 0) ]

let lockfree_bst_fixed_tree_test =
  external_bst_fixed_tree_test "lockfree-bst"
    (module Vbl_trees.Registry.Lockfree_bst_impl)
    [ (5, 0, 0); (4, 0, 0); (4, 0, 0); (4, 0, 0); (4, 0, 0); (5, 0, 0); (4, 0, 0) ]

(* Two inserts race for the one window of a fresh set: T1 runs its
   descent up to the first access that [stop] names — after the
   descent, before its update — while T0 runs to completion.  T1's
   window has then moved: it restarts once and links beside T0's node.
   Returns the summed hops, validated lock acquisitions and restarts. *)
let forced_restart (module S : Vbl_lists.Set_intf.S) ~stop =
  let t = Instr.run_sequential S.create in
  let counts =
    bst_probe_counts (fun () ->
        let exec =
          Exec.create [ (fun () -> ignore (S.insert t 1)); (fun () -> ignore (S.insert t 2)) ]
        in
        let rec advance_t1 () =
          match Exec.pending exec 1 with
          | Exec.Access a when stop a -> ()
          | Exec.Access _ ->
              Exec.step exec 1;
              advance_t1 ()
          | _ -> Alcotest.fail "insert(2) finished or blocked before its update"
        in
        advance_t1 ();
        while Exec.pending exec 0 <> Exec.Done do
          Exec.step exec 0
        done;
        Exec.drain exec;
        true)
  in
  Alcotest.(check (list int)) "both linked" [ 1; 2 ]
    (Instr.run_sequential (fun () -> S.to_list t));
  counts

(* vbl-bst: both inserts fall off the root sentinel's empty left slot;
   T1 stops at new(N2), and the link finds [rt.ver] moved under the
   lock. *)
let bst_forced_restart_test =
  Alcotest.test_case "vbl-bst: a moved window version restarts the insert" `Quick
    (fun () ->
      let hops, acquisitions, restarts =
        forced_restart
          (module Vbl_trees.Registry.Vbl_bst_i)
          ~stop:(fun a -> a.Instr.name = "N2" && a.Instr.kind = Instr.New_node)
      in
      Alcotest.(check int) "hops: 1 + 1, then 2 after the restart" 4 hops;
      Alcotest.(check int) "one validated link each" 2 acquisitions;
      Alcotest.(check int) "one restart" 1 restarts)

(* lazy-bst: T1 stops at its lock on the inner sentinel, and validates a
   child that T0 has replaced by a router: one failed validation. *)
let lazy_bst_forced_restart_test =
  Alcotest.test_case "lazy-bst: a replaced leaf restarts the insert" `Quick (fun () ->
      Alcotest.(check (triple int int int))
        "hops (1 + 1, then 2), one validated lock each, one restart" (4, 2, 1)
        (forced_restart
           (module Vbl_trees.Registry.Lazy_bst_i)
           ~stop:(fun a -> a.Instr.kind = Instr.Lock_try));
      Alcotest.(check int) "one validation failure" 1
        (Metrics.get (Metrics.snapshot ()) Validation_failures))

(* lockfree-bst: T1 stops at its flagging CAS on the inner sentinel,
   whose clean stamp T0's unflag has replaced. *)
let lockfree_bst_forced_restart_test =
  Alcotest.test_case "lockfree-bst: a moved clean stamp restarts the insert" `Quick
    (fun () ->
      Alcotest.(check (triple int int int))
        "hops (2 + 2, then 3), no locks, one restart" (7, 0, 1)
        (forced_restart
           (module Vbl_trees.Registry.Lockfree_bst_i)
           ~stop:(fun a -> a.Instr.kind = Instr.Cas)))

(* The lock-based lists' probes, pinned per operation on a list {1, 3, 5}
   built afresh for each: hops, validated lock acquisitions, restarts,
   logical deletes and physical unlinks.  A walk counts one hop per node
   it moves to.  vbl decides a failed update before it locks; lazy locks
   [prev] and [curr] and validates both before it decides; vbl-postlock
   locks [prev] before it decides, so its failed insert and absent
   remove each take the one lock vbl's do not.  hand-over-hand locks the
   head and every node it moves to, one lock more than its hops;
   optimistic locks and validates its window as lazy does.  Neither has
   a deletion flag, so a remove unlinks without a logical delete. *)
let list_ops =
  [
    ("contains 3 (hit)", `Contains, 3);
    ("contains 4 (miss)", `Contains, 4);
    ("insert 3 (present)", `Insert, 3);
    ("insert 4 (fresh)", `Insert, 4);
    ("remove 4 (absent)", `Remove, 4);
    ("remove 3 (present)", `Remove, 3);
  ]

let list_counts =
  [
    ( "vbl",
      [ [ 2; 0; 0; 0; 0 ]; [ 3; 0; 0; 0; 0 ]; [ 2; 0; 0; 0; 0 ]; [ 3; 1; 0; 0; 0 ];
        [ 3; 0; 0; 0; 0 ]; [ 2; 2; 0; 1; 1 ] ] );
    ( "lazy",
      [ [ 2; 0; 0; 0; 0 ]; [ 3; 0; 0; 0; 0 ]; [ 2; 2; 0; 0; 0 ]; [ 3; 2; 0; 0; 0 ];
        [ 3; 2; 0; 0; 0 ]; [ 2; 2; 0; 1; 1 ] ] );
    ( "vbl-postlock",
      [ [ 2; 0; 0; 0; 0 ]; [ 3; 0; 0; 0; 0 ]; [ 2; 1; 0; 0; 0 ]; [ 3; 1; 0; 0; 0 ];
        [ 3; 1; 0; 0; 0 ]; [ 2; 2; 0; 1; 1 ] ] );
    ( "hand-over-hand",
      [ [ 2; 3; 0; 0; 0 ]; [ 3; 4; 0; 0; 0 ]; [ 2; 3; 0; 0; 0 ]; [ 3; 4; 0; 0; 0 ];
        [ 3; 4; 0; 0; 0 ]; [ 2; 3; 0; 0; 1 ] ] );
    ( "optimistic",
      [ [ 2; 2; 0; 0; 0 ]; [ 3; 2; 0; 0; 0 ]; [ 2; 2; 0; 0; 0 ]; [ 3; 2; 0; 0; 0 ];
        [ 3; 2; 0; 0; 0 ]; [ 2; 2; 0; 0; 1 ] ] );
  ]

(* optimistic: T1 stops at its lock on the head, and validates a
   successor that T0's insert has replaced: one validation failure, and
   a restart whose walk makes two hops. *)
let optimistic_forced_restart_test =
  Alcotest.test_case "optimistic: a replaced successor restarts the insert" `Quick
    (fun () ->
      Alcotest.(check (triple int int int))
        "hops (1 + 1, then 2), one validated window each, one restart" (4, 4, 1)
        (forced_restart
           (module Vbl_lists.Registry.Optimistic_i)
           ~stop:(fun a -> a.Instr.kind = Instr.Lock_try));
      Alcotest.(check int) "one validation failure" 1
        (Metrics.get (Metrics.snapshot ()) Validation_failures))

let list_fixed_tests =
  List.map
    (fun (name, expected) ->
      Alcotest.test_case (name ^ ": exact counts on a fixed list") `Quick (fun () ->
          let module S = (val Vbl_harness.Sweep.find_real name : Vbl_lists.Set_intf.S) in
          List.iter2
            (fun (what, op, v) expected ->
              let t = S.create () in
              List.iter (fun v -> ignore (S.insert t v : bool)) [ 1; 3; 5 ];
              with_metrics_probe (fun () ->
                  ignore
                    (match op with
                     | `Contains -> S.contains t v
                     | `Insert -> S.insert t v
                     | `Remove -> S.remove t v));
              let m = Metrics.snapshot () in
              Alcotest.(check (list int))
                (what ^ ": hops, lock acquisitions, restarts, logical deletes, unlinks")
                expected
                Metrics.
                  [
                    get m Traversal_steps;
                    get m Lock_acquisitions;
                    get m Restarts;
                    get m Logical_deletes;
                    get m Physical_unlinks;
                  ])
            list_ops expected))
    list_counts

(* The conductor emits one trace event per executed step when a tracer
   is installed. *)
let exec_trace_test =
  Alcotest.test_case "conductor emits one event per step" `Quick (fun () ->
      let module S = Vbl_lists.Registry.Vbl_i in
      let t = Instr.run_sequential (fun () -> S.create ()) in
      let tr = Trace.create () in
      Probe.install (Probe.tracer tr);
      Fun.protect ~finally:Probe.uninstall (fun () ->
          let exec = Exec.create [ (fun () -> ignore (S.contains t 1)) ] in
          Exec.drain exec;
          Alcotest.(check int) "events = steps" (Exec.steps_taken exec)
            (Trace.emitted tr);
          match Trace.events tr with
          | [] -> Alcotest.fail "expected events"
          | e :: _ ->
              Alcotest.(check int) "thread 0" 0 e.Trace.thread;
              Alcotest.(check bool) "starts at the head" true
                (String.length e.Trace.step >= 1 && e.Trace.step.[0] = 'h')))

let () =
  Alcotest.run "obs"
    [
      ("metrics", metrics_tests);
      ("histogram", histogram_tests);
      ("trace", trace_tests);
      ("contention-recorder-interval", contention_tests);
      ("probe", probe_tests);
      ( "end-to-end",
        [
          single_threaded_readonly_test;
          forced_contention_test;
          bst_fixed_tree_test;
          bst_forced_restart_test;
          lazy_bst_fixed_tree_test;
          lazy_bst_forced_restart_test;
          lockfree_bst_fixed_tree_test;
          lockfree_bst_forced_restart_test;
          optimistic_forced_restart_test;
          exec_trace_test;
        ]
        @ list_fixed_tests );
    ]
