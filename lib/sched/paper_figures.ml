(** The concrete schedules of the paper's Figures 2 and 3, as executable
    artefacts.

    Each figure provides: the scenario (initial list + operations), the
    schedule script in the paper's step vocabulary, and drivers that show
    which algorithm accepts or rejects it.  The tests in [test/test_sched.ml]
    assert the paper's claims; [bin/schedules.exe] narrates them. *)

open Directed

(** {1 Figure 2}

    Initial list [{X1=1}]; [insert(1)] (thread 0) concurrent with
    [insert(2)] (thread 1).  Both read the head; insert(2) reads X1 and
    creates X2; then insert(1) reads X1 and returns false {e before
    insert(2) writes or completes}.  Correct (insert(1) linearizes first),
    but the lazy list cannot accept it: insert(1) must acquire the lock on
    X1 that insert(2) is holding.  VBL accepts: insert(1) returns without
    locking. *)

module Fig2 = struct
  let initial = [ 1 ]
  let ops = [ Ll_abstract.insert 1; Ll_abstract.insert 2 ]

  let script =
    [
      Step (0, Pattern.Read_node "h");     (* insert(1): R(h) *)
      Step (1, Pattern.Read_node "h");     (* insert(2): R(h) *)
      Step (1, Pattern.Read_node "X1");    (* insert(2): R(X1) — val and next *)
      Step (1, Pattern.New_node "X2");     (* insert(2): new(X2) *)
      Step (0, Pattern.Read_node "X1");    (* insert(1): R(X1) — sees value 1 *)
      Ret (0, false);                      (* insert(1) returns false now *)
      Step (1, Pattern.Write_node "X1");   (* insert(2): W(X1.next <- X2) *)
      Ret (1, true);
    ]

  let run impl = Drive.run_script impl ~initial ~ops script

  (* The same schedule replayed on the abstract sequential LL — used to
     verify it is correct per Definition 1.  Thread 1's traversal also
     reads X1.next and t.val between its R(X1) and new(X2); the abstract
     steps spell them out. *)
  let abstract () =
    let t = Ll_abstract.create ~initial ~ops in
    (* op1: R(h.next); op2: R(h.next); op2: R(X1.val); op2: R(X1.next);
       op2: R(t.val); op2: new(X2); op1: R(X1.val); op1: ret false;
       op2: W(X1.next); op2: ret true *)
    List.iter (Ll_abstract.step t) [ 0; 1; 1; 1; 1; 1; 0; 0; 1; 1 ];
    t
end

(** {1 Figure 3}

    Initial list [{X2, X3, X4}].  Phase A: [insert(1)] (thread 0) and
    [remove(2)] (thread 1) run concurrently; remove(2) reads the head
    before insert(1) updates it, marks X2 logically, and its physical
    unlink CAS fails — under Harris-Michael the operation still completes,
    leaving X2 linked-but-marked.  Phase B: [insert(3)] (thread 2) and
    [insert(4)] (thread 3) both traverse past the marked X2 and both
    attempt to unlink it by writing X1's link; the schedule has both writes
    take effect (they write the same value).  Harris-Michael must reject:
    insert(4)'s CAS fails and it restarts from the head.  The script below
    is in Harris-Michael's (adjusted-LL) vocabulary. *)

module Fig3 = struct
  let initial = [ 2; 3; 4 ]

  let ops =
    [
      Ll_abstract.insert 1; (* thread 0 *)
      Ll_abstract.remove 2; (* thread 1 *)
      Ll_abstract.insert 3; (* thread 2 *)
      Ll_abstract.insert 4; (* thread 3 *)
    ]

  let script =
    [
      (* Phase A *)
      Step (1, Pattern.Read_node "h");   (* remove(2) reads h before the update *)
      Step (1, Pattern.Read_node "X2");  (* remove(2) locates X2 *)
      Step (0, Pattern.Read_node "h");   (* insert(1) traverses *)
      Step (0, Pattern.Read_node "X2");  (* stops at X2 (2 > 1) *)
      Step (0, Pattern.New_node "X1");
      Step (0, Pattern.Write_node "h");  (* links X1: h.next <- X1 *)
      Ret (0, true);
      Step (1, Pattern.Mark_node "X2");  (* logical deletion of X2 *)
      Ret (1, true);                     (* physical CAS fails; op completes *)
      (* Phase B *)
      Step (2, Pattern.Read_node "h");
      Step (3, Pattern.Read_node "h");
      Step (2, Pattern.Read_node "X1");
      Step (3, Pattern.Read_node "X1");
      Step (2, Pattern.Read_node "X2");  (* sees the mark *)
      Step (3, Pattern.Read_node "X2");  (* sees the mark too *)
      Step (2, Pattern.Write_node "X1"); (* insert(3) unlinks X2 *)
      Step (2, Pattern.Read_node "X3");
      Ret (2, false);
      Step (3, Pattern.Write_node "X1"); (* insert(4)'s unlink must take effect *)
      Step (3, Pattern.Read_node "X3");
      Step (3, Pattern.Read_node "X4");
      Ret (3, false);
    ]

  let run impl = Drive.run_script impl ~initial ~ops script

  (** The same four operations under VBL, where remove(2) unlinks X2
      physically at once: phase B runs on the list {1, 3, 4} and both
      inserts return false with {e no} locking and no restarts, under every
      interleaving.  This is the VBL-accepts side of the figure. *)
  let vbl_phase_b_script =
    [
      (* Phase A, adapted to VBL's immediate unlink: remove(2) reads h
         before insert(1) writes it, so its value-aware validation fails
         once and it re-locates from its prev — the scripted steps pin only
         phase ordering. *)
      Step (1, Pattern.Read_node "h");
      Step (1, Pattern.Read_node "X2");
      Step (0, Pattern.Read_node "h");
      Step (0, Pattern.Read_node "X2");
      Step (0, Pattern.New_node "X1");
      Step (0, Pattern.Write_node "h");
      Ret (0, true);
      Step (1, Pattern.Write_node "X1"); (* unlink X2 from its live pred X1 *)
      Ret (1, true);
      (* Phase B: fully interleaved reads, no writes, both complete. *)
      Step (2, Pattern.Read_node "h");
      Step (3, Pattern.Read_node "h");
      Step (2, Pattern.Read_node "X1");
      Step (3, Pattern.Read_node "X1");
      Step (2, Pattern.Read_node "X3");
      Step (3, Pattern.Read_node "X3");
      Ret (2, false);
      Step (3, Pattern.Read_node "X4");
      Ret (3, false);
    ]

  let run_vbl () =
    Drive.run_script (module Vbl_lists.Registry.Vbl_i) ~initial ~ops vbl_phase_b_script
end
