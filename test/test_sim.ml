(* Tests for the multicore cost simulator: coherence-model unit tests,
   machine-level clock behaviour, determinism, and the qualitative shapes
   the reproduction depends on (these are the load-bearing assertions
   behind EXPERIMENTS.md). *)

module C = Vbl_sim.Coherence
module Instr = Vbl_memops.Instr_mem

let costs = C.default_costs

let coherence_tests =
  [
    Alcotest.test_case "first read is a clean miss, second a hit" `Quick (fun () ->
        let d = C.create ~n_threads:4 () in
        Alcotest.(check int) "miss" costs.C.remote_clean (C.read d ~thread:0 ~line:1);
        Alcotest.(check int) "hit" costs.C.l1_hit (C.read d ~thread:0 ~line:1));
    Alcotest.test_case "reading another core's dirty line is expensive" `Quick
      (fun () ->
        let d = C.create ~n_threads:4 () in
        ignore (C.write d ~thread:0 ~line:1);
        Alcotest.(check int) "dirty read" costs.C.remote_dirty (C.read d ~thread:1 ~line:1);
        (* the owner was downgraded: a third reader now sees a clean copy *)
        Alcotest.(check int) "clean read" costs.C.remote_clean (C.read d ~thread:2 ~line:1));
    Alcotest.test_case "writes invalidate readers" `Quick (fun () ->
        let d = C.create ~n_threads:4 () in
        ignore (C.read d ~thread:0 ~line:1);
        ignore (C.read d ~thread:1 ~line:1);
        (* thread 2 writes: upgrade over the sharers *)
        Alcotest.(check int) "upgrade" costs.C.upgrade (C.write d ~thread:2 ~line:1);
        (* previous sharers now miss *)
        Alcotest.(check int) "invalidated" costs.C.remote_dirty (C.read d ~thread:0 ~line:1));
    Alcotest.test_case "owner re-writes are hits" `Quick (fun () ->
        let d = C.create ~n_threads:4 () in
        ignore (C.write d ~thread:0 ~line:1);
        Alcotest.(check int) "hit" costs.C.l1_hit (C.write d ~thread:0 ~line:1));
    Alcotest.test_case "sole sharer upgrades silently" `Quick (fun () ->
        let d = C.create ~n_threads:4 () in
        ignore (C.read d ~thread:0 ~line:1);
        Alcotest.(check int) "silent upgrade" costs.C.l1_hit (C.write d ~thread:0 ~line:1));
    Alcotest.test_case "alloc grants ownership" `Quick (fun () ->
        let d = C.create ~n_threads:4 () in
        Alcotest.(check int) "alloc" costs.C.alloc (C.alloc d ~thread:0 ~line:9);
        Alcotest.(check int) "own write hit" costs.C.l1_hit (C.write d ~thread:0 ~line:9));
  ]

let numa_tests =
  let topology = C.intel_topology in
  [
    Alcotest.test_case "same-socket dirty reads are cheaper" `Quick (fun () ->
        let d = C.create ~topology ~n_threads:72 () in
        ignore (C.write d ~thread:0 ~line:1);
        (* thread 1 shares socket 0 with thread 0; thread 20 is on socket 1 *)
        let near = C.read d ~thread:1 ~line:1 in
        let d2 = C.create ~topology ~n_threads:72 () in
        ignore (C.write d2 ~thread:0 ~line:1);
        let far = C.read d2 ~thread:20 ~line:1 in
        Alcotest.(check bool)
          (Printf.sprintf "near %d < flat %d < far %d" near costs.C.remote_dirty far)
          true
          (near < costs.C.remote_dirty && costs.C.remote_dirty < far));
    Alcotest.test_case "cross-socket writes pay the interconnect" `Quick (fun () ->
        let d = C.create ~topology ~n_threads:72 () in
        ignore (C.write d ~thread:0 ~line:1);
        Alcotest.(check bool) "cross write dearer" true
          (C.write d ~thread:40 ~line:1 > costs.C.remote_write));
    Alcotest.test_case "flat topology unchanged" `Quick (fun () ->
        let d = C.create ~n_threads:72 () in
        ignore (C.write d ~thread:0 ~line:1);
        Alcotest.(check int) "flat dirty" costs.C.remote_dirty (C.read d ~thread:40 ~line:1));
    Alcotest.test_case "invalid topology rejected" `Quick (fun () ->
        Alcotest.check_raises "zero sockets"
          (Invalid_argument "Coherence.create: invalid topology") (fun () ->
            ignore
              (C.create ~topology:{ C.sockets = 0; cores_per_socket = 1 } ~n_threads:2 ())));
  ]

let machine_tests =
  [
    Alcotest.test_case "clocks advance by access costs" `Quick (fun () ->
        let coherence = C.create ~n_threads:1 () in
        let body () =
          let c = Instr.make ~name:"c" ~line:(Instr.fresh_line ()) 0 in
          Instr.set c 1;
          ignore (Instr.get c)
        in
        let m = Vbl_sim.Machine.create ~coherence [ body ] in
        let steps = Vbl_sim.Machine.run m ~horizon:1_000. in
        Alcotest.(check int) "steps" 2 steps;
        (* write miss (clean) + read hit *)
        Alcotest.(check (float 0.001)) "clock"
          (float_of_int (costs.C.remote_clean + costs.C.l1_hit))
          (Vbl_sim.Machine.clock m 0));
    Alcotest.test_case "horizon stops the run" `Quick (fun () ->
        let coherence = C.create ~n_threads:1 () in
        let line = Instr.fresh_line () in
        let body () =
          let c = Instr.make ~name:"c" ~line 0 in
          for _ = 1 to 1_000_000 do
            Instr.set c 1
          done
        in
        let m = Vbl_sim.Machine.create ~coherence [ body ] in
        let steps = Vbl_sim.Machine.run m ~horizon:50. in
        Alcotest.(check bool) "bounded" true (steps < 200));
    Alcotest.test_case "lock handoff pulls waiter clocks forward" `Quick (fun () ->
        let coherence = C.create ~n_threads:2 () in
        let line = Instr.fresh_line () in
        let lock = Instr.make_lock ~name:"l" ~line () in
        let body () =
          Instr.lock lock;
          Instr.unlock lock
        in
        let m = Vbl_sim.Machine.create ~coherence [ body; body ] in
        ignore (Vbl_sim.Machine.run m ~horizon:10_000.);
        (* The second thread could not finish before the first released. *)
        let c0 = Vbl_sim.Machine.clock m 0 and c1 = Vbl_sim.Machine.clock m 1 in
        Alcotest.(check bool) "serialized" true (Float.max c0 c1 > Float.min c0 c1));
  ]

let sim_params threads update range =
  {
    Vbl_sim.Sim_run.threads;
    update_percent = update;
    key_range = range;
    horizon = 30_000.;
    seed = 11L;
    zipf = None;
  }

let run name threads update range =
  Vbl_sim.Sim_run.run
    (Vbl_harness.Sweep.find_instrumented name)
    (sim_params threads update range)

let sim_run_tests =
  [
    Alcotest.test_case "deterministic for a fixed seed" `Quick (fun () ->
        let a = run "vbl" 4 20 64 and b = run "vbl" 4 20 64 in
        Alcotest.(check int) "ops" a.Vbl_sim.Sim_run.ops_completed b.Vbl_sim.Sim_run.ops_completed;
        Alcotest.(check int) "steps" a.Vbl_sim.Sim_run.steps b.Vbl_sim.Sim_run.steps);
    Alcotest.test_case "different seeds differ" `Quick (fun () ->
        let a = run "vbl" 4 20 64 in
        let b =
          Vbl_sim.Sim_run.run
            (Vbl_harness.Sweep.find_instrumented "vbl")
            { (sim_params 4 20 64) with Vbl_sim.Sim_run.seed = 12L }
        in
        Alcotest.(check bool) "ops differ" true
          (a.Vbl_sim.Sim_run.ops_completed <> b.Vbl_sim.Sim_run.ops_completed));
    Alcotest.test_case "steady-state size stays near range/2" `Quick (fun () ->
        let r = run "vbl" 8 100 64 in
        Alcotest.(check bool) "size sane" true
          (r.Vbl_sim.Sim_run.final_size > 8 && r.Vbl_sim.Sim_run.final_size < 56));
    Alcotest.test_case "parameter validation" `Quick (fun () ->
        Alcotest.check_raises "threads"
          (Invalid_argument "Sim_run.run: threads must be >= 1") (fun () ->
            ignore (run "vbl" 0 20 64));
        Alcotest.check_raises "update"
          (Invalid_argument "Sim_run.run: update_percent must be in [0, 100]") (fun () ->
            ignore (run "vbl" 1 101 64)));
    (* The qualitative claims of the paper, as assertions. *)
    Alcotest.test_case "shape: vbl scales on the Figure 1 workload" `Slow (fun () ->
        let t1 = (run "vbl" 1 20 50).Vbl_sim.Sim_run.throughput in
        let t48 = (run "vbl" 48 20 50).Vbl_sim.Sim_run.throughput in
        Alcotest.(check bool) "scales" true (t48 > 3. *. t1));
    Alcotest.test_case "shape: lazy collapses under contention (Fig 1)" `Slow (fun () ->
        let vbl = (run "vbl" 64 20 50).Vbl_sim.Sim_run.throughput in
        let lz = (run "lazy" 64 20 50).Vbl_sim.Sim_run.throughput in
        Alcotest.(check bool) "vbl well ahead" true (vbl > 1.5 *. lz));
    Alcotest.test_case "shape: vbl beats HM-AMR on read-only (1.6x claim)" `Slow
      (fun () ->
        let vbl = (run "vbl" 48 0 200).Vbl_sim.Sim_run.throughput in
        let hm = (run "harris-michael" 48 0 200).Vbl_sim.Sim_run.throughput in
        let ratio = vbl /. hm in
        Alcotest.(check bool)
          (Printf.sprintf "ratio %.2f in [1.2, 2.2]" ratio)
          true
          (ratio > 1.2 && ratio < 2.2));
    Alcotest.test_case "shape: equal at one thread (no-interference case)" `Slow
      (fun () ->
        let vbl = (run "vbl" 1 20 200).Vbl_sim.Sim_run.throughput in
        let lz = (run "lazy" 1 20 200).Vbl_sim.Sim_run.throughput in
        let ratio = vbl /. lz in
        Alcotest.(check bool)
          (Printf.sprintf "ratio %.2f near 1" ratio)
          true
          (ratio > 0.9 && ratio < 1.1));
    Alcotest.test_case "shape: pre-lock validation beats post-lock (ablation)" `Slow
      (fun () ->
        let vbl = (run "vbl" 64 20 50).Vbl_sim.Sim_run.throughput in
        let post = (run "vbl-postlock" 64 20 50).Vbl_sim.Sim_run.throughput in
        Alcotest.(check bool) "vbl ahead" true (vbl > post));
  ]

let () =
  Alcotest.run "sim"
    [
      ("coherence", coherence_tests);
      ("numa", numa_tests);
      ("machine", machine_tests);
      ("sim-run", sim_run_tests);
    ]
