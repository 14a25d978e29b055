(* Tests for the concurrency-analysis layer: DPOR exploration (failure
   variants with reproducing schedules, DFS parity, reduction factor), the
   pluggable schedule bounds (preempt/delay/none) and the randomized swarm
   strategy, the counterexample shrinker, the happens-before race detector
   and lock-discipline linter, and the seeded mutation suite. *)

open Vbl_sched
module Instr = Vbl_memops.Instr_mem
module Monitor = Vbl_analysis.Monitor
module Check = Vbl_analysis.Check
module Mutants = Vbl_analysis.Mutants
module Ll = Ll_abstract

let quick_config = { Explore.max_executions = 200_000; max_steps = 5_000 }

(* The brute-force DFS the parity tests compare DPOR against, under the
   bound DPOR runs with by default. *)
let naive_dfs = Explore.Dfs (Explore.preempt 3)

let is_infix ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

(* Raw-body scenarios with a trivially linearizable (empty) history, so the
   only possible verdicts come from the explorer and the monitor. *)
let raw_scenario mk_bodies : Explore.scenario =
  {
    Explore.make =
      (fun () ->
        {
          Explore.bodies = mk_bodies ();
          history = (fun () -> Vbl_spec.History.of_list []);
          invariants = (fun () -> Ok ());
        });
  }

(* Replay a schedule against a fresh instance of the scenario; returns the
   conductor at the point the schedule ends. *)
let replay scenario schedule =
  let inst = scenario.Explore.make () in
  let exec = Exec.create inst.Explore.bodies in
  List.iter (fun t -> Exec.step exec t) schedule;
  exec

(* ------------------------------------------------------------------ *)
(* Failure variants carry reproducing schedules.                       *)
(* ------------------------------------------------------------------ *)

let failure_tests =
  [
    Alcotest.test_case "Deadlock carries a schedule that replays to deadlock" `Quick
      (fun () ->
        let mk () =
          let line = Instr.fresh_line () in
          let a = Instr.make_lock ~name:"A.lock" ~line () in
          let b = Instr.make_lock ~name:"B.lock" ~line () in
          let grab l1 l2 () =
            Instr.lock l1;
            Instr.lock l2;
            Instr.unlock l2;
            Instr.unlock l1
          in
          [ grab a b; grab b a ]
        in
        let scenario = raw_scenario mk in
        let report = Explore.run ~config:quick_config scenario in
        match report.Explore.failure with
        | Some (Explore.Deadlock { schedule }) ->
            Alcotest.(check bool) "non-empty schedule" true (schedule <> []);
            let exec = replay scenario schedule in
            Alcotest.(check bool) "replays to deadlock" true (Exec.deadlocked exec)
        | Some f -> Alcotest.failf "expected Deadlock, got %a" Explore.pp_failure f
        | None -> Alcotest.fail "expected Deadlock, found no failure");
    Alcotest.test_case "Step_limit carries the truncated schedule" `Quick (fun () ->
        let mk () =
          let line = Instr.fresh_line () in
          let c = Instr.make ~name:"c" ~line 0 in
          [
            (fun () ->
              while Instr.get c >= 0 do
                ()
              done);
          ]
        in
        let config = { quick_config with Explore.max_steps = 40 } in
        let report = Explore.run ~config (raw_scenario mk) in
        match report.Explore.failure with
        | Some (Explore.Step_limit { schedule }) ->
            Alcotest.(check int) "schedule hits the cap" 40 (List.length schedule);
            (* The schedule replays without raising: the instance really
               does run that long. *)
            ignore (replay (raw_scenario mk) schedule)
        | _ -> Alcotest.fail "expected Step_limit");
    Alcotest.test_case "Crashed carries the exception and its schedule" `Quick (fun () ->
        let mk () =
          let line = Instr.fresh_line () in
          let c = Instr.make ~name:"c" ~line 0 in
          [
            (fun () ->
              if Instr.get c = 0 then failwith "seeded crash";
              ());
          ]
        in
        let report = Explore.run ~config:quick_config (raw_scenario mk) in
        match report.Explore.failure with
        | Some (Explore.Crashed { schedule; exn }) ->
            Alcotest.(check bool) "exn mentions seed" true
              (is_infix ~affix:"seeded crash" exn);
            Alcotest.(check int) "crash after the read step" 1 (List.length schedule)
        | _ -> Alcotest.fail "expected Crashed");
    Alcotest.test_case "naive DFS reports the same deadlock" `Quick (fun () ->
        let mk () =
          let line = Instr.fresh_line () in
          let a = Instr.make_lock ~name:"A.lock" ~line () in
          let b = Instr.make_lock ~name:"B.lock" ~line () in
          let grab l1 l2 () =
            Instr.lock l1;
            Instr.lock l2;
            Instr.unlock l2;
            Instr.unlock l1
          in
          [ grab a b; grab b a ]
        in
        let report = Explore.run ~config:quick_config ~strategy:naive_dfs (raw_scenario mk) in
        match report.Explore.failure with
        | Some (Explore.Deadlock _) -> ()
        | _ -> Alcotest.fail "expected Deadlock from the naive DFS");
  ]

(* ------------------------------------------------------------------ *)
(* DPOR vs naive DFS: identical verdicts, fewer executions.            *)
(* ------------------------------------------------------------------ *)

let reference_scenarios =
  [
    ("vbl 2-thread", "vbl", [ 2 ], [ Ll.insert 1; Ll.remove 2 ]);
    ("vbl 3-thread", "vbl", [ 2 ], [ Ll.insert 1; Ll.remove 2; Ll.contains 1 ]);
    ("lazy 3-thread", "lazy", [ 2 ], [ Ll.insert 1; Ll.remove 2; Ll.contains 1 ]);
  ]

let dpor_tests =
  List.map
    (fun (label, nm, initial, ops) ->
      Alcotest.test_case (Printf.sprintf "parity + reduction: %s" label) `Slow (fun () ->
          let impl = Vbl_harness.Sweep.find_instrumented nm in
          let scenario = Drive.explore_scenario impl ~initial ~ops in
          let naive = Explore.run ~config:quick_config ~strategy:naive_dfs scenario in
          let dpor = Explore.run ~config:quick_config scenario in
          Alcotest.(check bool) "naive passes" true (naive.Explore.failure = None);
          Alcotest.(check bool) "dpor passes" true (dpor.Explore.failure = None);
          Alcotest.(check bool) "neither truncated" true
            ((not naive.Explore.truncated) && not dpor.Explore.truncated);
          Alcotest.(check bool) "dpor explores more than one execution" true
            (dpor.Explore.executions > 1);
          (* The acceptance bar: >= 5x fewer executions on the 3-thread
             scenarios (the 2-thread one also clears it comfortably). *)
          Alcotest.(check bool)
            (Printf.sprintf "5x reduction (naive %d vs dpor %d)" naive.Explore.executions
               dpor.Explore.executions)
            true
            (naive.Explore.executions >= 5 * dpor.Explore.executions)))
      reference_scenarios
  @ [
      Alcotest.test_case "parity on a buggy list: both explorers fail" `Quick (fun () ->
          let impl = Vbl_harness.Sweep.find_instrumented "sequential" in
          let scenario =
            Drive.explore_scenario impl ~initial:[ 2 ] ~ops:[ Ll.insert 1; Ll.remove 2 ]
          in
          let failed r =
            match r.Explore.failure with
            | Some (Explore.Not_linearizable _) | Some (Explore.Invariant_broken _) -> true
            | _ -> false
          in
          Alcotest.(check bool) "naive finds the bug" true
            (failed (Explore.run ~config:quick_config ~strategy:naive_dfs scenario));
          Alcotest.(check bool) "dpor finds the bug" true
            (failed (Explore.run ~config:quick_config scenario)));
    ]

(* ------------------------------------------------------------------ *)
(* Verdict parity on randomized scenarios.                             *)
(* ------------------------------------------------------------------ *)

(* DPOR and the naive DFS must agree on the ok/failure verdict for small
   randomized scenarios, clean or mutated.  The PRNG seed is fixed so the
   three scenarios (and the test's cost) are reproducible. *)
let verdict_parity_tests =
  let impls =
    [|
      ("vbl", fun () -> Vbl_harness.Sweep.find_instrumented "vbl");
      ("lazy", fun () -> Vbl_harness.Sweep.find_instrumented "lazy");
      ("harris-michael", fun () -> Vbl_harness.Sweep.find_instrumented "harris-michael");
      ("vbl-no-deleted-check", fun () -> Mutants.find "vbl-no-deleted-check");
      ("lazy-no-validation", fun () -> Mutants.find "lazy-no-validation");
    |]
  in
  let gen_op st =
    let v = 1 + Random.State.int st 3 in
    match Random.State.int st 3 with
    | 0 -> Ll.insert v
    | 1 -> Ll.remove v
    | _ -> Ll.contains v
  in
  let gen_scenario st =
    let nm, mk = impls.(Random.State.int st (Array.length impls)) in
    let initial = List.filter (fun _ -> Random.State.bool st) [ 1; 2; 3 ] in
    let ops = [ gen_op st; gen_op st ] in
    (nm, mk (), initial, ops)
  in
  (* The bounds the parity sweep runs under: each must yield the same
     ok/failure verdict from DPOR and the brute-force DFS. *)
  let parity_bounds =
    [ ("preempt:3", Explore.preempt 3); ("delay:3", Explore.delay 3); ("none", Explore.none) ]
  in
  [
    Alcotest.test_case "random scenarios: run and run_naive verdicts agree" `Slow
      (fun () ->
        let st = Random.State.make [| 0x5eed |] in
        for i = 1 to 3 do
          let nm, impl, initial, ops = gen_scenario st in
          let scenario = Drive.explore_scenario impl ~initial ~ops in
          let dpor = Explore.run ~config:quick_config scenario in
          let naive = Explore.run ~config:quick_config ~strategy:naive_dfs scenario in
          Alcotest.(check bool)
            (Printf.sprintf "scenario %d (%s): verdicts agree" i nm)
            (naive.Explore.failure = None)
            (dpor.Explore.failure = None)
        done);
    Alcotest.test_case "random scenarios: Dpor and Dfs agree under every bound" `Slow
      (fun () ->
        (* Same seed as above, so the sweep covers the same three
           scenarios — once per bound instance. *)
        let st = Random.State.make [| 0x5eed |] in
        for i = 1 to 3 do
          let nm, impl, initial, ops = gen_scenario st in
          let scenario = Drive.explore_scenario impl ~initial ~ops in
          List.iter
            (fun (bname, b) ->
              let dpor = Explore.run ~config:quick_config ~strategy:(Explore.Dpor b) scenario in
              let dfs = Explore.run ~config:quick_config ~strategy:(Explore.Dfs b) scenario in
              Alcotest.(check bool)
                (Printf.sprintf "scenario %d (%s) under %s: verdicts agree" i nm bname)
                (dfs.Explore.failure = None)
                (dpor.Explore.failure = None);
              Alcotest.(check bool)
                (Printf.sprintf "scenario %d (%s) under %s: dpor not above dfs" i nm bname)
                true
                (dpor.Explore.executions <= dfs.Explore.executions))
            parity_bounds
        done);
    Alcotest.test_case "swarm scheduling agrees with DPOR on clean scenarios" `Slow
      (fun () ->
        (* The random strategy is incomplete by design, so agreement is
           asserted one-sided: it must not report a failure DPOR (sound
           and complete up to the bound) rules out. *)
        let st = Random.State.make [| 0x5eed |] in
        for i = 1 to 3 do
          let nm, impl, initial, ops = gen_scenario st in
          let scenario = Drive.explore_scenario impl ~initial ~ops in
          let dpor = Explore.run ~config:quick_config ~strategy:(Explore.Dpor Explore.none) scenario in
          let rand =
            Explore.run ~config:quick_config
              ~strategy:(Explore.Random { Explore.seed = Int64.of_int (0xbeef + i); iters = 50 })
              scenario
          in
          if dpor.Explore.failure = None then
            Alcotest.(check bool)
              (Printf.sprintf "scenario %d (%s): no false alarm from swarm" i nm)
              true (rand.Explore.failure = None);
          Alcotest.(check bool)
            (Printf.sprintf "scenario %d (%s): swarm ran all iterations or failed" i nm)
            true
            (rand.Explore.failure <> None || rand.Explore.executions = 50);
          Alcotest.(check bool)
            (Printf.sprintf "scenario %d (%s): distinct <= runs" i nm)
            true
            (rand.Explore.distinct_schedules <= rand.Explore.executions)
        done);
  ]

(* ------------------------------------------------------------------ *)
(* Monitor unit tests on synthetic event streams.                      *)
(* ------------------------------------------------------------------ *)

let ev ?(effective = true) ?(completed = false) thread kind shadow name : Explore.event =
  {
    Explore.ev_thread = thread;
    ev_access = { Instr.line = 1; name; kind; shadow };
    ev_effective = effective;
    ev_completed = completed;
  }

let kinds_of m = List.map (fun v -> v.Monitor.v_kind) (Monitor.violations m)

let monitor_tests =
  [
    Alcotest.test_case "unordered plain writes race" `Quick (fun () ->
        let m = Monitor.create ~threads:2 () in
        let c = Instr.fresh_shadow () in
        Monitor.on_step m (ev 0 Instr.Write c "x.next");
        Monitor.on_step m (ev 1 Instr.Write c "x.next");
        (* Both writers are lockless, so the lockset lint fires too; the
           race is the first (and leading) violation. *)
        Alcotest.(check (list string)) "race reported" [ "race"; "lockset" ] (kinds_of m));
    Alcotest.test_case "lock-ordered writes do not race" `Quick (fun () ->
        let m = Monitor.create ~threads:2 () in
        let c = Instr.fresh_shadow () in
        let l = Instr.fresh_shadow () in
        Monitor.on_step m (ev 0 Instr.Lock_try l "x.lock");
        Monitor.on_step m (ev 0 Instr.Write c "x.next");
        Monitor.on_step m (ev 0 Instr.Lock_release l "x.lock");
        Monitor.on_step m (ev 1 Instr.Lock_try l "x.lock");
        Monitor.on_step m (ev 1 Instr.Write c "x.next");
        Monitor.on_step m (ev 1 Instr.Lock_release l "x.lock");
        Alcotest.(check (list string)) "clean" [] (kinds_of m));
    Alcotest.test_case "reading a release does not excuse a later write" `Quick (fun () ->
        (* Thread 1 reads the cell after thread 0's write (acquiring its
           publication clock) but its own overwrite happens without any
           lock: still a race?  No - the read *does* order the write via
           s_sync publication.  The racy pattern is read first, write after
           the victim's store. *)
        let m = Monitor.create ~threads:2 () in
        let c = Instr.fresh_shadow () in
        Monitor.on_step m (ev 1 Instr.Read c "x.next");
        Monitor.on_step m (ev 0 Instr.Write c "x.next");
        Monitor.on_step m (ev 1 Instr.Write c "x.next");
        Alcotest.(check (list string)) "stale write races" [ "race"; "lockset" ]
          (kinds_of m));
    Alcotest.test_case "CAS discipline is race-free" `Quick (fun () ->
        let m = Monitor.create ~threads:2 () in
        let c = Instr.fresh_shadow () in
        Monitor.on_step m (ev 0 Instr.Cas c "x.next");
        Monitor.on_step m (ev 1 Instr.Cas c "x.next");
        Monitor.on_step m (ev ~effective:false 0 Instr.Cas c "x.next");
        Alcotest.(check (list string)) "clean" [] (kinds_of m));
    Alcotest.test_case "lockset: no common lock over plain writes" `Quick (fun () ->
        let m = Monitor.create ~threads:3 () in
        let c = Instr.fresh_shadow () in
        let l1 = Instr.fresh_shadow () in
        let l2 = Instr.fresh_shadow () in
        (* Thread 0 writes under l1 twice (first write is the exempt
           exclusive phase), thread 1 under l2: the intersection empties on
           the third write.  The HB race also fires; the lockset lint is
           the second, distinct violation. *)
        Monitor.on_step m (ev 0 Instr.Lock_try l1 "l1");
        Monitor.on_step m (ev 0 Instr.Write c "x.next");
        Monitor.on_step m (ev 0 Instr.Lock_release l1 "l1");
        Monitor.on_step m (ev 1 Instr.Lock_try l2 "l2");
        Monitor.on_step m (ev 1 Instr.Write c "x.next");
        Monitor.on_step m (ev 1 Instr.Lock_release l2 "l2");
        Monitor.on_step m (ev 2 Instr.Lock_try l1 "l1");
        Monitor.on_step m (ev 2 Instr.Write c "x.next");
        Monitor.on_step m (ev 2 Instr.Lock_release l1 "l1");
        Alcotest.(check bool) "lockset lint present" true
          (List.mem "lockset" (kinds_of m)));
    Alcotest.test_case "first-writer exclusive phase is exempt" `Quick (fun () ->
        let m = Monitor.create ~threads:2 () in
        let c = Instr.fresh_shadow () in
        let l = Instr.fresh_shadow () in
        (* Unlocked initialization write by thread 0, then both threads
           write under the same lock: no lockset lint. *)
        Monitor.on_step m (ev 0 Instr.Write c "x.next");
        Monitor.on_step m (ev 0 Instr.Lock_try l "l");
        Monitor.on_step m (ev 0 Instr.Write c "x.next");
        Monitor.on_step m (ev 0 Instr.Lock_release l "l");
        Monitor.on_step m (ev 1 Instr.Lock_try l "l");
        Monitor.on_step m (ev 1 Instr.Write c "x.next");
        Monitor.on_step m (ev 1 Instr.Lock_release l "l");
        Alcotest.(check bool) "no lockset lint" true
          (not (List.mem "lockset" (kinds_of m))));
    Alcotest.test_case "double-acquire lint" `Quick (fun () ->
        let m = Monitor.create ~threads:1 () in
        let l = Instr.fresh_shadow () in
        Monitor.on_step m (ev 0 Instr.Lock_try l "x.lock");
        Monitor.on_step m (ev ~effective:false 0 Instr.Lock_try l "x.lock");
        Alcotest.(check (list string)) "reported" [ "double-acquire" ] (kinds_of m));
    Alcotest.test_case "release-without-acquire lint" `Quick (fun () ->
        let m = Monitor.create ~threads:1 () in
        let l = Instr.fresh_shadow () in
        Monitor.on_step m (ev 0 Instr.Lock_release l "x.lock");
        Alcotest.(check (list string)) "reported" [ "release-without-acquire" ]
          (kinds_of m));
    Alcotest.test_case "lock-held-at-return lint" `Quick (fun () ->
        let m = Monitor.create ~threads:1 () in
        let l = Instr.fresh_shadow () in
        Monitor.on_step m (ev ~completed:true 0 Instr.Lock_try l "x.lock");
        Alcotest.(check (list string)) "reported" [ "lock-held-at-return" ] (kinds_of m));
  ]

(* ------------------------------------------------------------------ *)
(* End-to-end: monitored exploration of raw bodies.                    *)
(* ------------------------------------------------------------------ *)

let integration_tests =
  [
    Alcotest.test_case "unsynchronized writers are flagged as a race" `Quick (fun () ->
        let mk () =
          let line = Instr.fresh_line () in
          let c = Instr.make ~name:"c" ~line 0 in
          [ (fun () -> Instr.set c 1); (fun () -> Instr.set c 2) ]
        in
        let report =
          Explore.run ~config:quick_config ~monitor:(Monitor.make ~threads:2 ())
            (raw_scenario mk)
        in
        match report.Explore.failure with
        | Some (Explore.Analysis_violation { kind = "race"; schedule; _ }) ->
            Alcotest.(check bool) "schedule attached" true (schedule <> [])
        | _ -> Alcotest.fail "expected a race violation");
    Alcotest.test_case "lock-protected writers pass the analysis" `Quick (fun () ->
        let mk () =
          let line = Instr.fresh_line () in
          let c = Instr.make ~name:"c" ~line 0 in
          let l = Instr.make_lock ~name:"c.lock" ~line () in
          let body v () =
            Instr.lock l;
            Instr.set c v;
            Instr.unlock l
          in
          [ body 1; body 2 ]
        in
        let report =
          Explore.run ~config:quick_config ~monitor:(Monitor.make ~threads:2 ())
            (raw_scenario mk)
        in
        Alcotest.(check bool) "no failure" true (report.Explore.failure = None));
    Alcotest.test_case "self try-lock while holding is linted" `Quick (fun () ->
        let mk () =
          let line = Instr.fresh_line () in
          let l = Instr.make_lock ~name:"c.lock" ~line () in
          [
            (fun () ->
              Instr.lock l;
              ignore (Instr.try_lock l);
              Instr.unlock l);
          ]
        in
        let report =
          Explore.run ~config:quick_config ~monitor:(Monitor.make ~threads:1 ())
            (raw_scenario mk)
        in
        match report.Explore.failure with
        | Some (Explore.Analysis_violation { kind = "double-acquire"; _ }) -> ()
        | _ -> Alcotest.fail "expected double-acquire");
  ]

(* ------------------------------------------------------------------ *)
(* Mutation suite and clean suite.                                     *)
(* ------------------------------------------------------------------ *)

let mutation_tests =
  [
    Alcotest.test_case "every seeded mutant is caught with a schedule" `Slow (fun () ->
        List.iter
          (fun (r : Check.mutation_result) ->
            let name = r.Check.case.Check.mutant in
            match r.Check.report.Explore.failure with
            | None -> Alcotest.failf "mutant %s escaped the analysis" name
            | Some f ->
                Alcotest.(check bool)
                  (Printf.sprintf "%s: schedule attached" name)
                  true
                  (Explore.failure_schedule f <> []))
          (Check.mutation_suite ~config:quick_config ()));
    Alcotest.test_case "unlocked unlink is caught by the race detector" `Slow (fun () ->
        let impl = Mutants.find "vbl-unlocked-unlink" in
        let report =
          Check.analyze ~config:quick_config impl ~initial:[ 5 ]
            ~ops:[ Ll.remove 5; Ll.insert 3 ]
        in
        match report.Explore.failure with
        | Some (Explore.Analysis_violation { kind; _ }) ->
            Alcotest.(check bool) "race or lockset" true (kind = "race" || kind = "lockset")
        | Some f ->
            Alcotest.failf "expected a race, got %a" Explore.pp_failure f
        | None -> Alcotest.fail "mutant escaped");
    Alcotest.test_case "leaky lock is caught by the lock linter" `Slow (fun () ->
        let impl = Mutants.find "vbl-leaky-lock" in
        let report =
          Check.analyze ~config:quick_config impl ~initial:[]
            ~ops:[ Ll.insert 1; Ll.insert 2 ]
        in
        match report.Explore.failure with
        | Some (Explore.Analysis_violation { kind = "lock-held-at-return"; _ })
        | Some (Explore.Deadlock _) -> ()
        | Some f -> Alcotest.failf "unexpected failure %a" Explore.pp_failure f
        | None -> Alcotest.fail "mutant escaped");
    Alcotest.test_case "clean vbl/lazy/harris-michael/vbl-bst pass race-free" `Slow (fun () ->
        List.iter
          (fun (nm, report) ->
            (match report.Explore.failure with
            | None -> ()
            | Some f -> Alcotest.failf "%s flagged: %a" nm Explore.pp_failure f);
            Alcotest.(check bool)
              (Printf.sprintf "%s explored" nm)
              true
              (report.Explore.executions > 1))
          (Check.clean_suite ~config:quick_config ()));
  ]

(* ------------------------------------------------------------------ *)
(* Counterexample shrinking.                                           *)
(* ------------------------------------------------------------------ *)

(* Locally minimal hint-schedule length for every mutation case, pinned:
   a regression here means the shrinker got weaker (longer) or the
   violation changed (shorter).  Zero steps means the violation already
   manifests under the deterministic baseline scheduler. *)
let expected_shrunk_steps =
  [
    ("vbl-no-deleted-check", 11);
    ("vbl-unlocked-unlink", 3);
    ("vbl-no-logical-delete", 12);
    ("vbl-leaky-lock", 0);
    ("lazy-no-validation", 2);
    ("bst-no-version-recheck", 4);
    ("bst-unlocked-rotation-window", 7);
    ("vbl-reclaim-eager", 0);
    ("lockfree-bst-shared-clean", 5);
  ]

let shrink_tests =
  [
    Alcotest.test_case "mutation counterexamples shrink to pinned minima" `Slow (fun () ->
        List.iter
          (fun (r : Check.mutation_result) ->
            let name = r.Check.case.Check.mutant in
            let orig =
              match r.Check.report.Explore.failure with
              | Some f -> f
              | None -> Alcotest.failf "mutant %s escaped the analysis" name
            in
            match r.Check.shrunk with
            | None -> Alcotest.failf "mutant %s: no shrink result" name
            | Some s ->
                Alcotest.(check int)
                  (Printf.sprintf "%s: locally minimal step count" name)
                  (List.assoc name expected_shrunk_steps)
                  (List.length s.Shrink.shrunk);
                Alcotest.(check int)
                  (Printf.sprintf "%s: removed = original - shrunk" name)
                  (List.length s.Shrink.original - List.length s.Shrink.shrunk)
                  s.Shrink.removed;
                Alcotest.(check bool)
                  (Printf.sprintf "%s: at least one replay attempted" name)
                  true (s.Shrink.attempts >= 1);
                (* The shrunk schedule reproduces the *same* violation. *)
                (match s.Shrink.failure with
                | Some f ->
                    Alcotest.(check bool)
                      (Printf.sprintf "%s: same violation after shrinking" name)
                      true
                      (Shrink.same_violation orig f)
                | None -> Alcotest.failf "mutant %s: shrunk schedule passes" name))
          (Check.mutation_suite ~config:quick_config ()));
    Alcotest.test_case "shrinking is deterministic (same seed, same minimum)" `Quick
      (fun () ->
        let strategy = Explore.Random { Explore.seed = 7L; iters = 100 } in
        let go () =
          Check.analyze_shrunk ~config:quick_config ~strategy
            (Mutants.find "vbl-no-logical-delete") ~initial:[ 5 ]
            ~ops:[ Ll.remove 5; Ll.insert 7; Ll.contains 5; Ll.insert 3 ]
        in
        let r1, s1 = go () and r2, s2 = go () in
        let sched = function
          | Some s -> s.Shrink.shrunk
          | None -> Alcotest.fail "swarm missed the seeded bug"
        in
        Alcotest.(check bool) "both runs fail" true
          (r1.Explore.failure <> None && r2.Explore.failure <> None);
        Alcotest.(check (list int)) "identical shrunk schedules" (sched s1) (sched s2));
    Alcotest.test_case "a passing schedule is a no-op shrink" `Quick (fun () ->
        let impl = Vbl_harness.Sweep.find_instrumented "vbl" in
        let scenario =
          Drive.explore_scenario impl ~initial:[ 2 ] ~ops:[ Ll.insert 1; Ll.remove 2 ]
        in
        (* An interleaved but correct hint schedule: baseline fills in the
           rest, the execution passes, nothing must be "shrunk". *)
        let hints = [ 0; 1; 0; 1; 0; 1 ] in
        let r = Shrink.shrink_schedule ~max_steps:5_000 scenario hints in
        Alcotest.(check (list int)) "schedule untouched" hints r.Shrink.shrunk;
        Alcotest.(check bool) "no failure" true (r.Shrink.failure = None);
        Alcotest.(check int) "nothing removed" 0 r.Shrink.removed;
        Alcotest.(check int) "exactly the confirming replay" 1 r.Shrink.attempts);
    Alcotest.test_case "replay drops stale hints and stays deterministic" `Quick
      (fun () ->
        let impl = Mutants.find "vbl-unlocked-unlink" in
        let scenario =
          Drive.explore_scenario impl ~initial:[ 5 ] ~ops:[ Ll.remove 5; Ll.insert 3 ]
        in
        (* Thread 7 does not exist and thread 0 finishes long before the
           tail of hints runs out; replay must ignore both quietly. *)
        let noisy = [ 7; 0; 0; 9; 1; 0; 0; 0; 1; 7 ] in
        let v1 = Shrink.replay ~max_steps:5_000 scenario noisy in
        let v2 = Shrink.replay ~max_steps:5_000 scenario noisy in
        Alcotest.(check bool) "replay is reproducible" true
          ((v1 = None) = (v2 = None)));
  ]

(* A mutant registered in [Mutants.all] but given no case is never
   explored, and one given no pinned minimum is never shrink-checked:
   the three tables must name the same mutants, each exactly once. *)
let registration_tests =
  [
    Alcotest.test_case "every mutant has one case and one pinned minimum" `Quick
      (fun () ->
        let registered =
          List.map (fun (module S : Vbl_lists.Set_intf.S) -> S.name) Mutants.all
        in
        List.iter
          (fun (table, names) ->
            Alcotest.(check (list string))
              (table ^ " names each mutant of Mutants.all once")
              (List.sort compare registered) (List.sort compare names))
          [
            ("Mutants.all", List.sort_uniq compare registered);
            ("Check.mutation_cases", List.map (fun c -> c.Check.mutant) Check.mutation_cases);
            ("expected_shrunk_steps", List.map fst expected_shrunk_steps);
          ])
  ]

(* ------------------------------------------------------------------ *)
(* Scale: budgeted DPOR misses, delay bounding and swarm catch.        *)
(* ------------------------------------------------------------------ *)

(* The documented scale demonstration (see EXPERIMENTS.md): on 4-5 domain
   scenarios the preemption-bounded DPOR exhausts a 100-execution budget
   without finding the seeded bug, while delay bounding and the swarm
   scheduler catch it well inside the same budget, and the shrinker
   reduces the counterexample to a few steps. *)
let scale_budget = { quick_config with Explore.max_executions = 100 }

(* 5 domains against the eager (grace-period-free) reclaiming backend:
   remove retires a node, insert recycles it under a parked contains. *)
let eager5 () =
  Drive.explore_scenario
    (Mutants.find "vbl-reclaim-eager")
    ~initial:[ 1; 2 ]
    ~ops:[ Ll.remove 1; Ll.insert 3; Ll.contains 2; Ll.insert 4; Ll.remove 2 ]

let scale_tests =
  [
    Alcotest.test_case "eager reclaim x5: preempt-DPOR exhausts the budget uncaught"
      `Slow (fun () ->
        let r =
          Explore.run ~config:scale_budget
            ~strategy:(Explore.Dpor (Explore.preempt 3))
            (eager5 ())
        in
        Alcotest.(check bool) "budget exhausted" true r.Explore.truncated;
        Alcotest.(check bool) "bug not found" true (r.Explore.failure = None));
    Alcotest.test_case "eager reclaim x5: delay bounding catches in-budget" `Slow
      (fun () ->
        let r =
          Explore.run ~config:scale_budget
            ~strategy:(Explore.Dpor (Explore.delay 2))
            (eager5 ())
        in
        match r.Explore.failure with
        | Some (Explore.Not_linearizable _) | Some (Explore.Invariant_broken _) ->
            Alcotest.(check bool) "within budget" true (not r.Explore.truncated)
        | Some f -> Alcotest.failf "unexpected failure %a" Explore.pp_failure f
        | None -> Alcotest.fail "delay:2 missed the use-after-reclaim");
    Alcotest.test_case "eager reclaim x5: swarm catches and shrinks in-budget" `Slow
      (fun () ->
        let scenario = eager5 () in
        let r =
          Explore.run ~config:scale_budget
            ~strategy:(Explore.Random { Explore.seed = 7L; iters = 100 })
            scenario
        in
        match r.Explore.failure with
        | Some ((Explore.Not_linearizable _ | Explore.Invariant_broken _) as f) ->
            Alcotest.(check bool) "found within a handful of runs" true
              (r.Explore.executions <= 10);
            let s = Shrink.shrink ~max_steps:5_000 scenario f in
            Alcotest.(check bool) "shrunk strictly smaller" true
              (List.length s.Shrink.shrunk < List.length s.Shrink.original);
            Alcotest.(check int) "four-step counterexample" 4
              (List.length s.Shrink.shrunk);
            Alcotest.(check bool) "same violation" true
              (match s.Shrink.failure with
              | Some f' -> Shrink.same_violation f f'
              | None -> false)
        | Some f -> Alcotest.failf "unexpected failure %a" Explore.pp_failure f
        | None -> Alcotest.fail "swarm missed the use-after-reclaim");
    Alcotest.test_case
      "no-logical-delete x4: DPOR misses, delay and swarm agree on a 3-step bug" `Slow
      (fun () ->
        let impl = Mutants.find "vbl-no-logical-delete" in
        let initial = [ 5 ] and ops = [ Ll.remove 5; Ll.insert 7; Ll.contains 5; Ll.insert 3 ] in
        let dpor =
          Check.analyze ~config:scale_budget
            ~strategy:(Explore.Dpor (Explore.preempt 3))
            impl ~initial ~ops
        in
        Alcotest.(check bool) "preempt-DPOR exhausts the budget uncaught" true
          (dpor.Explore.truncated && dpor.Explore.failure = None);
        let shrunk_of strategy =
          let report, shrunk =
            Check.analyze_shrunk ~config:scale_budget ~strategy impl ~initial ~ops
          in
          match (report.Explore.failure, shrunk) with
          | Some _, Some s -> s.Shrink.shrunk
          | _ -> Alcotest.failf "%s missed the seeded bug" (Explore.strategy_name strategy)
        in
        let via_delay = shrunk_of (Explore.Dpor (Explore.delay 2)) in
        let via_swarm = shrunk_of (Explore.Random { Explore.seed = 7L; iters = 100 }) in
        (* Both search strategies reduce to the *same* minimal schedule:
           two steps of the insert(7) thread, one of the insert(3) thread. *)
        Alcotest.(check (list int)) "delay-bounded counterexample" [ 1; 1; 3 ] via_delay;
        Alcotest.(check (list int)) "swarm counterexample" [ 1; 1; 3 ] via_swarm);
    Alcotest.test_case
      "stale-window BST x4: preempt-DPOR misses, delay and swarm catch and shrink" `Slow
      (fun () ->
        (* The BST analog of the table above: the stale-window splice needs
           the insert's whole run parked inside the remover's cleanup, a
           single but deeply-placed preemption that preempt:3 only reaches
           after ~2000 executions.  Delay bounding finds it at ~120 and the
           swarm's first weighted run lands on it. *)
        let impl = Mutants.find "bst-unlocked-rotation-window" in
        let initial = [ 1 ]
        and ops = [ Ll.remove 1; Ll.insert 2; Ll.contains 1; Ll.insert 3 ] in
        let budget = { quick_config with Explore.max_executions = 150 } in
        let dpor =
          Check.analyze ~config:budget
            ~strategy:(Explore.Dpor (Explore.preempt 3))
            impl ~initial ~ops
        in
        Alcotest.(check bool) "preempt-DPOR exhausts the budget uncaught" true
          (dpor.Explore.truncated && dpor.Explore.failure = None);
        let shrunk_of strategy =
          let report, shrunk =
            Check.analyze_shrunk ~config:budget ~strategy impl ~initial ~ops
          in
          match (report.Explore.failure, shrunk) with
          | Some (Explore.Not_linearizable _), Some s -> s
          | Some f, _ ->
              Alcotest.failf "%s: unexpected failure %a"
                (Explore.strategy_name strategy) Explore.pp_failure f
          | None, _ ->
              Alcotest.failf "%s missed the seeded bug" (Explore.strategy_name strategy)
        in
        let via_delay = shrunk_of (Explore.Dpor (Explore.delay 2)) in
        let via_swarm = shrunk_of (Explore.Random { Explore.seed = 7L; iters = 100 }) in
        (* The two strategies surface the lost update from different failing
           runs and settle in different local minima, so the lengths are
           pinned separately rather than the schedules compared. *)
        Alcotest.(check int) "delay-bounded counterexample length" 12
          (List.length via_delay.Shrink.shrunk);
        Alcotest.(check int) "swarm counterexample length" 7
          (List.length via_swarm.Shrink.shrunk));
  ]

let () =
  Alcotest.run "analysis"
    [
      ("failures", failure_tests);
      ("dpor", dpor_tests);
      ("parity", verdict_parity_tests);
      ("monitor", monitor_tests);
      ("integration", integration_tests);
      ("mutation", mutation_tests);
      ("shrink", shrink_tests);
      ("registration", registration_tests);
      ("scale", scale_tests);
    ]
