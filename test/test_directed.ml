(* Unit tests for the step-pattern language and the directed schedule
   driver: matching rules, skip semantics, every rejection kind, and the
   invisible-metadata unblocking rule. *)

open Vbl_sched
module Instr = Vbl_memops.Instr_mem

let access ?(kind = Instr.Read) name : Instr.access =
  { line = 1; name; kind; shadow = Instr.no_shadow }

let pattern_tests =
  [
    Alcotest.test_case "Read_node matches data cells of the node only" `Quick (fun () ->
        let p = Pattern.Read_node "X1" in
        Alcotest.(check bool) "val" true (Pattern.matches p (access "X1.val"));
        Alcotest.(check bool) "next" true (Pattern.matches p (access "X1.next"));
        Alcotest.(check bool) "amr" true (Pattern.matches p (access "X1.amr"));
        Alcotest.(check bool) "del is metadata" false (Pattern.matches p (access "X1.del"));
        Alcotest.(check bool) "lock is metadata" false (Pattern.matches p (access "X1.lock"));
        Alcotest.(check bool) "other node" false (Pattern.matches p (access "X2.val"));
        Alcotest.(check bool) "write kind" false
          (Pattern.matches p (access ~kind:Instr.Write "X1.val")));
    Alcotest.test_case "Read_node also matches touches" `Quick (fun () ->
        Alcotest.(check bool) "touch" true
          (Pattern.matches (Pattern.Read_node "X1") (access ~kind:Instr.Touch "X1.pair")));
    Alcotest.test_case "Write_node matches link writes and CAS" `Quick (fun () ->
        let p = Pattern.Write_node "h" in
        Alcotest.(check bool) "write next" true
          (Pattern.matches p (access ~kind:Instr.Write "h.next"));
        Alcotest.(check bool) "cas amr" true
          (Pattern.matches p (access ~kind:Instr.Cas "h.amr"));
        Alcotest.(check bool) "write val" false
          (Pattern.matches p (access ~kind:Instr.Write "h.val"));
        Alcotest.(check bool) "write del" false
          (Pattern.matches p (access ~kind:Instr.Write "h.del"));
        Alcotest.(check bool) "read next" false (Pattern.matches p (access "h.next")));
    Alcotest.test_case "Mark_node accepts del and link encodings" `Quick (fun () ->
        let p = Pattern.Mark_node "X2" in
        Alcotest.(check bool) "del write" true
          (Pattern.matches p (access ~kind:Instr.Write "X2.del"));
        Alcotest.(check bool) "link cas" true
          (Pattern.matches p (access ~kind:Instr.Cas "X2.next"));
        Alcotest.(check bool) "val write" false
          (Pattern.matches p (access ~kind:Instr.Write "X2.val")));
    Alcotest.test_case "lock patterns" `Quick (fun () ->
        Alcotest.(check bool) "lock" true
          (Pattern.matches (Pattern.Lock_node "X1") (access ~kind:Instr.Lock_try "X1.lock"));
        Alcotest.(check bool) "unlock" true
          (Pattern.matches (Pattern.Unlock_node "X1")
             (access ~kind:Instr.Lock_release "X1.lock"));
        Alcotest.(check bool) "lock vs unlock" false
          (Pattern.matches (Pattern.Lock_node "X1")
             (access ~kind:Instr.Lock_release "X1.lock")));
    Alcotest.test_case "New_node matches exactly" `Quick (fun () ->
        Alcotest.(check bool) "match" true
          (Pattern.matches (Pattern.New_node "X3") (access ~kind:Instr.New_node "X3"));
        Alcotest.(check bool) "other" false
          (Pattern.matches (Pattern.New_node "X3") (access ~kind:Instr.New_node "X30")));
    Alcotest.test_case "Exact requires kind and full name" `Quick (fun () ->
        let p = Pattern.Exact (Instr.Read, "X1.next") in
        Alcotest.(check bool) "exact" true (Pattern.matches p (access "X1.next"));
        Alcotest.(check bool) "kind" false
          (Pattern.matches p (access ~kind:Instr.Write "X1.next"));
        Alcotest.(check bool) "name" false (Pattern.matches p (access "X1.val")));
    Alcotest.test_case "success requirements" `Quick (fun () ->
        Alcotest.(check bool) "write" true (Pattern.requires_success (Pattern.Write_node "a"));
        Alcotest.(check bool) "mark" true (Pattern.requires_success (Pattern.Mark_node "a"));
        Alcotest.(check bool) "lock" true (Pattern.requires_success (Pattern.Lock_node "a"));
        Alcotest.(check bool) "read" false (Pattern.requires_success (Pattern.Read_node "a"));
        Alcotest.(check bool) "exact" false
          (Pattern.requires_success (Pattern.Exact (Instr.Cas, "a"))));
    Alcotest.test_case "node/field decomposition" `Quick (fun () ->
        Alcotest.(check string) "node" "X12" (Pattern.node_of_cell "X12.next");
        Alcotest.(check string) "field" "next" (Pattern.field_of_cell "X12.next");
        Alcotest.(check string) "bare node" "X12" (Pattern.node_of_cell "X12");
        Alcotest.(check string) "bare field" "" (Pattern.field_of_cell "X12"));
  ]

(* Directed-driver behaviour on a tiny custom scenario built from raw
   instrumented cells (no list needed). *)
let make_cells () =
  let line = Instr.fresh_line () in
  let a = Instr.make ~name:"X1.next" ~line 0 in
  let lock = Instr.make_lock ~name:"X1.lock" ~line () in
  (a, lock)

let driver_tests =
  [
    Alcotest.test_case "skips non-matching steps to find the match" `Quick (fun () ->
        let a, _ = make_cells () in
        let results = [| None |] in
        let bodies =
          [
            (fun () ->
              ignore (Instr.get a);
              ignore (Instr.get a);
              Instr.set a 7;
              results.(0) <- Some true);
          ]
        in
        let outcome =
          Directed.run ~bodies ~results
            ~script:[ Directed.Step (0, Pattern.Write_node "X1"); Directed.Ret (0, true) ]
        in
        Alcotest.(check bool) "accepted" true (Directed.accepted outcome));
    Alcotest.test_case "Completed_early when the thread finishes first" `Quick (fun () ->
        let a, _ = make_cells () in
        let results = [| None |] in
        let bodies = [ (fun () -> ignore (Instr.get a)) ] in
        match
          Directed.run ~bodies ~results
            ~script:[ Directed.Step (0, Pattern.Write_node "X1") ]
        with
        | Directed.Rejected { reason = Directed.Completed_early _; _ } -> ()
        | _ -> Alcotest.fail "expected Completed_early");
    Alcotest.test_case "Wrong_result on a mismatched return" `Quick (fun () ->
        let a, _ = make_cells () in
        let results = [| None |] in
        let bodies =
          [
            (fun () ->
              ignore (Instr.get a);
              results.(0) <- Some false);
          ]
        in
        match Directed.run ~bodies ~results ~script:[ Directed.Ret (0, true) ] with
        | Directed.Rejected { reason = Directed.Wrong_result { expected = true; got = Some false; _ }; _ }
          -> ()
        | _ -> Alcotest.fail "expected Wrong_result");
    Alcotest.test_case "Step_failed on an ineffective CAS" `Quick (fun () ->
        let a, _ = make_cells () in
        let results = [| None |] in
        let bodies =
          [
            (fun () ->
              (* expected value is stale: the CAS must fail *)
              ignore (Instr.cas a 999 5);
              results.(0) <- Some true);
          ]
        in
        match
          Directed.run ~bodies ~results
            ~script:[ Directed.Step (0, Pattern.Write_node "X1") ]
        with
        | Directed.Rejected { reason = Directed.Step_failed _; _ } -> ()
        | _ -> Alcotest.fail "expected Step_failed");
    Alcotest.test_case "Thread_blocked when a held lock blocks a data step" `Quick
      (fun () ->
        let a, lock = make_cells () in
        let results = [| None; None |] in
        let bodies =
          [
            (fun () ->
              Instr.lock lock;
              Instr.set a 1 (* data step under lock: not invisible *);
              Instr.unlock lock;
              results.(0) <- Some true);
            (fun () ->
              Instr.lock lock;
              Instr.unlock lock;
              results.(1) <- Some true);
          ]
        in
        (* Let thread 0 take the lock, then demand thread 1 complete. *)
        match
          Directed.run ~bodies ~results
            ~script:
              [ Directed.Step (0, Pattern.Lock_node "X1"); Directed.Ret (1, true) ]
        with
        | Directed.Rejected { reason = Directed.Thread_blocked { tid = 1; _ }; _ } -> ()
        | Directed.Accepted _ -> Alcotest.fail "expected rejection"
        | Directed.Rejected { reason; _ } ->
            Alcotest.failf "wrong rejection: %a" Directed.pp_rejection reason);
    Alcotest.test_case "unlock is invisible: driver drains it to unblock" `Quick
      (fun () ->
        let _, lock = make_cells () in
        let results = [| None; None |] in
        let bodies =
          [
            (fun () ->
              Instr.lock lock;
              Instr.unlock lock (* nothing but metadata after the lock *);
              results.(0) <- Some true);
            (fun () ->
              Instr.lock lock;
              Instr.unlock lock;
              results.(1) <- Some true);
          ]
        in
        (* Thread 0 grabs the lock; thread 1 must still be able to finish
           because thread 0's remaining steps are all invisible. *)
        let outcome =
          Directed.run ~bodies ~results
            ~script:
              [
                Directed.Step (0, Pattern.Lock_node "X1");
                Directed.Ret (1, true);
                Directed.Ret (0, true);
              ]
        in
        Alcotest.(check bool) "accepted" true (Directed.accepted outcome));
  ]

(* Optimality schedule suites for the tree and skip-list families: the
   Figure-2 argument of the paper transplanted to the other structures.
   Each accepted schedule pins the step names of a "decide while someone
   else holds the window" interleaving and must complete verbatim on the
   versioned-lock implementation; the same abstract schedule is refused
   by the lock-first baseline with the pinned rejection kind. *)

let vbl_bst : Vbl_trees.Registry.impl = (module Vbl_trees.Registry.Vbl_bst_i)
let lazy_bst : Vbl_trees.Registry.impl = (module Vbl_trees.Registry.Lazy_bst_i)
let vbl_skip : Vbl_skiplists.Registry.impl = (module Vbl_skiplists.Registry.Vbl_skip_i)
let lazy_skip : Vbl_skiplists.Registry.impl = (module Vbl_skiplists.Registry.Lazy_skip_i)

let check_accepted outcome =
  match outcome with
  | Directed.Accepted _ -> ()
  | Directed.Rejected { at; reason; _ } ->
      Alcotest.failf "rejected at directive %d: %a" at Directed.pp_rejection reason

let bst_tests =
  [
    Alcotest.test_case "vbl-bst accepts the decide-without-locking schedule" `Quick
      (fun () ->
        (* Thread 1's insert 2 parks holding N1's tree lock; thread 0's
           insert 1 still decides "already present" and returns with zero
           lock acquisitions — the zero-locks read path the versioned
           windows buy (paper section 2.2). *)
        check_accepted
          (Drive.run_script vbl_bst ~initial:[ 1 ]
             ~ops:[ Ll_abstract.insert 1; Ll_abstract.insert 2 ]
             [
               Directed.Step (1, Pattern.New_node "N2");
               Directed.Step (1, Pattern.Lock_node "N1");
               Directed.Step (0, Pattern.Read_node "rt");
               Directed.Step (0, Pattern.Exact (Instr.Read, "N1.del"));
               Directed.Ret (0, false);
               Directed.Ret (1, true);
             ]));
    Alcotest.test_case "lazy-bst refuses it: the present-check blocks" `Quick (fun () ->
        (* The same abstract schedule on the lock-first baseline: thread 0
           cannot decide "present" without R1's lock, which thread 1
           holds — the schedule is rejected with Thread_blocked, exactly
           the lazy list's Figure-2 argument. *)
        match
          Drive.run_script lazy_bst ~initial:[ 1 ]
            ~ops:[ Ll_abstract.insert 1; Ll_abstract.insert 2 ]
            [
              Directed.Step (1, Pattern.Lock_node "R1");
              Directed.Ret (0, false);
            ]
        with
        | Directed.Rejected { reason = Directed.Thread_blocked { tid = 0; lock }; _ } ->
            Alcotest.(check string) "blocking lock" "R1.lock" lock
        | Directed.Accepted _ -> Alcotest.fail "lazy-bst accepted a blocked schedule"
        | Directed.Rejected { reason; _ } ->
            Alcotest.failf "wrong rejection: %a" Directed.pp_rejection reason);
    Alcotest.test_case "vbl-bst refuses the lost-update schedule" `Quick (fun () ->
        (* Both inserts fall off the empty root slot; after thread 0 links
           N1 (bumping rt.ver), a script demanding thread 1 still link
           into rt is refused: the version validation fails and thread 1
           relocates, linking under N1 instead — it completes without
           ever writing rt's window. *)
        match
          Drive.run_script vbl_bst ~initial:[]
            ~ops:[ Ll_abstract.insert 1; Ll_abstract.insert 2 ]
            [
              Directed.Step (1, Pattern.New_node "N2");
              Directed.Ret (0, true);
              Directed.Step (1, Pattern.Write_node "rt");
            ]
        with
        | Directed.Rejected { at = 2; reason = Directed.Completed_early { tid = 1; _ }; _ }
          -> ()
        | Directed.Accepted _ -> Alcotest.fail "vbl-bst performed a stale-window write"
        | Directed.Rejected { reason; _ } ->
            Alcotest.failf "wrong rejection: %a" Directed.pp_rejection reason);
  ]

let skiplist_tests =
  [
    Alcotest.test_case "vbl-skiplist accepts insert ahead of a marked victim" `Quick
      (fun () ->
        (* Thread 0 marks X2 and parks before splicing; thread 1's insert
           of 1 validates the window with the marked successor still in
           place (the relaxed validation tolerates it: the remover
           re-routes through the new node) and links. The parked remove
           then revalidates, re-finds and splices behind X1. *)
        check_accepted
          (Drive.run_script vbl_skip ~initial:[ 2 ]
             ~ops:[ Ll_abstract.remove 2; Ll_abstract.insert 1 ]
             [
               Directed.Step (0, Pattern.Lock_node "X2");
               Directed.Step (0, Pattern.Mark_node "X2");
               Directed.Step (1, Pattern.Lock_node "h");
               Directed.Step (1, Pattern.New_node "X1");
               Directed.Step (1, Pattern.Write_node "h");
               Directed.Ret (1, true);
               Directed.Ret (0, true);
             ]));
    Alcotest.test_case "lazy-skiplist refuses it: validation wants unmarked succs" `Quick
      (fun () ->
        (* Same schedule on the lazy skip list: its insert validation also
           requires the successor unmarked, so with X2 marked and its
           remover parked, thread 1 retries forever and never reaches
           new(X1). *)
        match
          Drive.run_script lazy_skip ~initial:[ 2 ]
            ~ops:[ Ll_abstract.remove 2; Ll_abstract.insert 1 ]
            [
              Directed.Step (0, Pattern.Lock_node "X2");
              Directed.Step (0, Pattern.Mark_node "X2");
              Directed.Step (1, Pattern.Lock_node "h");
              Directed.Step (1, Pattern.New_node "X1");
            ]
        with
        | Directed.Rejected { at = 3; reason = Directed.No_matching_step { tid = 1; _ }; _ }
          -> ()
        | Directed.Accepted _ ->
            Alcotest.fail "lazy-skiplist linked in front of a marked node"
        | Directed.Rejected { reason; _ } ->
            Alcotest.failf "wrong rejection: %a" Directed.pp_rejection reason);
    Alcotest.test_case "head lock serialises concurrent skip-list inserts" `Quick
      (fun () ->
        (* Contrast with the list/BST lost-update scripts: in the tower
           scheme both inserts must lock the shared predecessor h before
           writing, so the overwrite schedule is not just invalidated, it
           is structurally blocked. *)
        match
          Drive.run_script vbl_skip ~initial:[]
            ~ops:[ Ll_abstract.insert 1; Ll_abstract.insert 2 ]
            [
              Directed.Step (0, Pattern.Lock_node "h");
              Directed.Step (1, Pattern.Write_node "h");
            ]
        with
        | Directed.Rejected { at = 1; reason = Directed.Thread_blocked { tid = 1; lock }; _ }
          ->
            Alcotest.(check string) "blocking lock" "h.lock" lock
        | Directed.Accepted _ -> Alcotest.fail "insert wrote h without h's lock"
        | Directed.Rejected { reason; _ } ->
            Alcotest.failf "wrong rejection: %a" Directed.pp_rejection reason);
  ]

let () =
  Alcotest.run "directed"
    [
      ("pattern", pattern_tests);
      ("driver", driver_tests);
      ("bst optimality", bst_tests);
      ("skiplist optimality", skiplist_tests);
    ]
