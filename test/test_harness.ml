(* Tests for the benchmark harness: workload distribution, pre-population,
   the real-domain runner, sweeps and report rendering. *)

module W = Vbl_harness.Workload

let workload_tests =
  [
    Alcotest.test_case "update fraction matches the spec" `Quick (fun () ->
        let rng = Vbl_util.Rng.create ~seed:5L () in
        let spec = W.uniform ~update_percent:20 ~key_range:100 in
        let n = 50_000 in
        let updates = ref 0 and inserts = ref 0 and removes = ref 0 in
        for _ = 1 to n do
          match W.next rng spec with
          | W.Insert _ ->
              incr updates;
              incr inserts
          | W.Remove _ ->
              incr updates;
              incr removes
          | W.Contains _ -> ()
        done;
        let frac = float_of_int !updates /. float_of_int n in
        Alcotest.(check bool) "≈20%" true (frac > 0.18 && frac < 0.22);
        (* insert/remove balanced *)
        let bal = float_of_int !inserts /. float_of_int !updates in
        Alcotest.(check bool) "balanced" true (bal > 0.45 && bal < 0.55));
    Alcotest.test_case "0%% yields only contains; 100%% only updates" `Quick (fun () ->
        let rng = Vbl_util.Rng.create ~seed:6L () in
        for _ = 1 to 1_000 do
          (match W.next rng (W.uniform ~update_percent:0 ~key_range:10) with
          | W.Contains _ -> ()
          | _ -> Alcotest.fail "update under 0%");
          match W.next rng (W.uniform ~update_percent:100 ~key_range:10) with
          | W.Contains _ -> Alcotest.fail "contains under 100%"
          | _ -> ()
        done);
    Alcotest.test_case "keys stay in range" `Quick (fun () ->
        let rng = Vbl_util.Rng.create ~seed:7L () in
        for _ = 1 to 10_000 do
          match W.next rng (W.uniform ~update_percent:50 ~key_range:17) with
          | W.Insert v | W.Remove v | W.Contains v ->
              if v < 1 || v > 17 then Alcotest.failf "key %d out of range" v
        done);
    Alcotest.test_case "prepopulation is about half the range" `Quick (fun () ->
        let module S = Vbl_lists.Registry.Vbl in
        let t = S.create () in
        let rng = Vbl_util.Rng.create ~seed:8L () in
        W.prepopulate (module S) t rng (W.uniform ~update_percent:0 ~key_range:1000);
        let size = S.size t in
        Alcotest.(check bool) "≈500" true (size > 400 && size < 600));
    Alcotest.test_case "zipfian keys are skewed, uniform keys are not" `Quick (fun () ->
        let rng = Vbl_util.Rng.create ~seed:9L () in
        let hot spec =
          let n = 20_000 in
          let low = ref 0 in
          for _ = 1 to n do
            if W.draw_key rng spec <= 10 then incr low
          done;
          float_of_int !low /. float_of_int n
        in
        let zipf_mass = hot (W.zipfian ~update_percent:0 ~key_range:1000 ()) in
        let unif_mass = hot (W.uniform ~update_percent:0 ~key_range:1000) in
        Alcotest.(check bool)
          (Printf.sprintf "zipf %.3f >> uniform %.3f" zipf_mass unif_mass)
          true
          (zipf_mass > 10. *. unif_mass));
    Alcotest.test_case "spec validation" `Quick (fun () ->
        Alcotest.check_raises "bad percent"
          (Invalid_argument "Workload: update_percent must be in [0, 100]") (fun () ->
            W.validate (W.uniform ~update_percent:101 ~key_range:10));
        Alcotest.check_raises "bad range"
          (Invalid_argument "Workload: key_range must be >= 1") (fun () ->
            W.validate (W.uniform ~update_percent:0 ~key_range:0)));
  ]

let runner_tests =
  [
    Alcotest.test_case "runner measures and keeps the list intact" `Slow (fun () ->
        let impl = (module Vbl_lists.Registry.Vbl : Vbl_lists.Set_intf.S) in
        let r =
          Vbl_harness.Runner.run impl
            {
              Vbl_harness.Runner.threads = 2;
              spec = W.uniform ~update_percent:50 ~key_range:64;
              duration_s = 0.1;
              warmup_s = 0.02;
              trials = 2;
              seed = 3L;
            }
        in
        Alcotest.(check int) "trials" 2 r.Vbl_harness.Runner.throughput.Vbl_util.Stats.n;
        Alcotest.(check bool) "did work" true
          (r.Vbl_harness.Runner.throughput.Vbl_util.Stats.mean > 1000.);
        match r.Vbl_harness.Runner.invariants with
        | Ok () -> ()
        | Error msg -> Alcotest.fail msg);
    Alcotest.test_case "runner validates parameters" `Quick (fun () ->
        let impl = (module Vbl_lists.Registry.Vbl : Vbl_lists.Set_intf.S) in
        Alcotest.check_raises "threads" (Invalid_argument "Runner.run: threads must be >= 1")
          (fun () ->
            ignore
              (Vbl_harness.Runner.run impl
                 { Vbl_harness.Runner.default_params with Vbl_harness.Runner.threads = 0 })));
  ]

let sweep_tests =
  [
    Alcotest.test_case "simulated sweep produces all points" `Slow (fun () ->
        let engine = Vbl_harness.Sweep.simulated ~horizon:5_000. ~trials:2 () in
        let points =
          Vbl_harness.Sweep.series engine ~algorithms:[ "vbl"; "lazy" ]
            ~thread_counts:[ 1; 4 ] ~update_percent:20 ~key_range:32 ~seed:1L
        in
        Alcotest.(check int) "4 points" 4 (List.length points);
        List.iter
          (fun (p : Vbl_harness.Sweep.point) ->
            Alcotest.(check int) "trials" 2 p.Vbl_harness.Sweep.throughput.Vbl_util.Stats.n;
            Alcotest.(check bool) "positive" true
              (p.Vbl_harness.Sweep.throughput.Vbl_util.Stats.mean > 0.))
          points);
    Alcotest.test_case "figure1 uses lazy and vbl only" `Slow (fun () ->
        let engine = Vbl_harness.Sweep.simulated ~horizon:5_000. ~trials:1 () in
        let points = Vbl_harness.Sweep.figure1 ~thread_counts:[ 1; 2 ] engine ~seed:1L in
        let algos =
          List.sort_uniq compare (List.map (fun p -> p.Vbl_harness.Sweep.algorithm) points)
        in
        Alcotest.(check (list string)) "algos" [ "lazy"; "vbl" ] algos);
    Alcotest.test_case "report renders a table with all rows" `Slow (fun () ->
        let engine = Vbl_harness.Sweep.simulated ~horizon:5_000. ~trials:1 () in
        let points =
          Vbl_harness.Sweep.series engine ~algorithms:[ "vbl" ] ~thread_counts:[ 1; 2; 4 ]
            ~update_percent:0 ~key_range:16 ~seed:1L
        in
        let rendered = Vbl_harness.Report.render_panel ~engine ~title:"t" points in
        let lines = String.split_on_char '\n' rendered in
        (* title + header + separator + 3 rows *)
        Alcotest.(check int) "lines" 6 (List.length lines));
    Alcotest.test_case "csv export has one line per point plus header" `Slow (fun () ->
        let engine = Vbl_harness.Sweep.simulated ~horizon:5_000. ~trials:1 () in
        let points =
          Vbl_harness.Sweep.series engine ~algorithms:[ "vbl"; "lazy" ] ~thread_counts:[ 1 ]
            ~update_percent:0 ~key_range:16 ~seed:1L
        in
        let csv = Vbl_harness.Report.points_csv points in
        Alcotest.(check int) "lines" 3 (List.length (String.split_on_char '\n' csv)));
  ]

(* The step-name vocabulary of every instrumented set: the distinct names
   one seeded simulated run steps through, digit runs written [#].
   Schedule scripts address steps by these names and [Pattern] classifies
   steps by their suffixes, so a builder that names a cell differently on
   some path shows up here, and so does a cell left unnamed (an empty
   name). *)
let vocabulary =
  let lists = "X# X#.del X#.lock X#.next X#.val h.del h.lock h.next" in
  let skiplists = "X# X#.del X#.linked X#.lock X#.next# X#.val h.del h.lock h.next# t.val" in
  let bsts = "L# L#.val Lmin.val R# R#.del R#.key R#.left R#.right Rmax.key Rmax.left" in
  let sharded = "X# X#.del X#.lock X#.next X#.val h.del h.lock h.next h.val shard#.size t.val" in
  [
    ("sequential", "X# X#.next X#.val h.next t.val");
    ("coarse", "X# X#.next X#.val global.lock h.next t.val");
    ("hand-over-hand", "X# X#.lock X#.next X#.val h.lock h.next t.lock t.val");
    ("optimistic", "X# X#.lock X#.next X#.val h.lock h.next h.val t.lock t.val");
    ("lazy", lists ^ " t.del t.lock t.val");
    ("harris-michael", "X# X#.amr X#.val h.amr pair");
    ("harris-michael-tagged", "X# X#.next X#.val h.next");
    ("fomitchev-ruppert", "X# X#.back X#.next X#.val h.next h.val t.val");
    ("vbl-postlock", lists ^ " h.val t.val");
    ( "vbl-versioned",
      "X# X#.del X#.lock X#.next X#.val X#.ver h.del h.lock h.next h.val h.ver t.val" );
    ("vbl", lists ^ " h.val t.val");
    ("lazy-reclaim", lists ^ " reclaim.epoch t.del t.lock t.val");
    ("harris-michael-reclaim", "X# X#.amr X#.val h.amr pair reclaim.epoch");
    ("vbl-reclaim", lists ^ " h.val reclaim.epoch t.val");
    ("lazy-skiplist", skiplists);
    ("vbl-skiplist", skiplists);
    ("lockfree-skiplist", "X# X#.next# X#.val h.next# t.val");
    ("sequential-bst", bsts);
    ("coarse-bst", bsts ^ " bst.lock");
    ( "lazy-bst",
      "L# L#.val Lmin.val R# R#.del R#.key R#.left R#.lock R#.right Rmax.del Rmax.key \
       Rmax.left Rmax.lock" );
    ("lockfree-bst", "L# R# R#.left R#.right R#.upd Rmax.left Rmax.upd");
    ( "vbl-bst",
      "N# N#.del N#.left N#.lock N#.right N#.slock N#.ulk N#.ver rt.left rt.lock rt.ulk \
       rt.ver" );
    ("vbl-sharded-2", sharded);
    ("vbl-sharded-4", sharded);
    ("vbl-sharded-8", sharded);
    ("vbl-sharded-16", sharded);
  ]

let is_digit = function '0' .. '9' -> true | _ -> false

(* [s] with each run of digits replaced by one [#]. *)
let hash_digits s =
  let b = Buffer.create (String.length s) in
  String.iteri
    (fun i c ->
      if not (is_digit c) then Buffer.add_char b c
      else if i = 0 || not (is_digit s.[i - 1]) then Buffer.add_char b '#')
    s;
  Buffer.contents b

let step_vocabulary name =
  let impl = Vbl_harness.Sweep.find_instrumented name in
  let threads = if name = "sequential" || name = "sequential-bst" then 1 else 3 in
  let tr = Vbl_obs.Trace.create ~capacity:65_536 () in
  Vbl_obs.Probe.install (Vbl_obs.Probe.tracer tr);
  Fun.protect ~finally:Vbl_obs.Probe.uninstall (fun () ->
      ignore
        (Vbl_sim.Sim_run.run impl
           {
             Vbl_sim.Sim_run.threads;
             update_percent = 60;
             key_range = 12;
             horizon = 5_000.;
             seed = 7L;
             zipf = None;
           }));
  Alcotest.(check int) (name ^ ": no event dropped") 0 (Vbl_obs.Trace.dropped tr);
  Vbl_obs.Trace.events tr
  |> List.map (fun (e : Vbl_obs.Trace.event) -> hash_digits e.step)
  |> List.sort_uniq compare |> String.concat " "

let instrumented_names =
  List.map (fun (module S : Vbl_lists.Set_intf.S) -> S.name) Vbl_harness.Sweep.instrumented

let lookup_tests =
  [
    Alcotest.test_case "find_real resolves every registry" `Quick (fun () ->
        List.iter
          (fun name ->
            let module S = (val Vbl_harness.Sweep.find_real name) in
            Alcotest.(check string) "name" name S.name)
          Vbl_harness.Sweep.names);
    Alcotest.test_case "find_instrumented resolves every registry" `Quick (fun () ->
        List.iter
          (fun name ->
            let module S = (val Vbl_harness.Sweep.find_instrumented name) in
            Alcotest.(check string) "name" name S.name)
          instrumented_names);
    Alcotest.test_case "every instrumented set keeps its step-name vocabulary" `Quick
      (fun () ->
        List.iter
          (fun (name, expected) ->
            Alcotest.(check string) name expected (step_vocabulary name))
          vocabulary);
    (* A set registered without a vocabulary row would go unchecked. *)
    Alcotest.test_case "the vocabulary names every instrumented set" `Quick (fun () ->
        Alcotest.(check (list string))
          "vocabulary rows"
          (List.sort compare instrumented_names)
          (List.sort compare (List.map fst vocabulary)));
    Alcotest.test_case "unknown names are rejected" `Quick (fun () ->
        Alcotest.check_raises "real"
          (Invalid_argument "Sweep.find_real: unknown algorithm no-such-thing")
          (fun () -> ignore (Vbl_harness.Sweep.find_real "no-such-thing")));
  ]

let () =
  Alcotest.run "harness"
    [
      ("workload", workload_tests);
      ("runner", runner_tests);
      ("sweep", sweep_tests);
      ("lookup", lookup_tests);
    ]
