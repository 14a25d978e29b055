(* Tests for the reclamation layer.

   Real backend: churn workloads must actually recycle (inserts served
   from the free-list), the global epoch must advance, and limbo depth
   (retired minus freed) must stay bounded by a few advance periods
   rather than growing with churn volume.  A growing set must leave the
   epoch alone, and neither a dropped set nor an exited domain may
   strand memory.

   Instrumented backend: DPOR explores the epoch protocol itself.  The
   grace-respecting [Instr_reclaim.Safe] backend must check out clean on
   a remove/insert/contains scenario built to recycle a node another
   thread may still be parked on, while the seeded [Instr_reclaim.Eager]
   mutant (retire straight onto the free-list, no grace period) must be
   caught: a traversal resumes on a reinitialized node and returns a
   non-linearizable result. *)

open Vbl_sched
module Metrics = Vbl_obs.Metrics
module Probe = Vbl_obs.Probe
module Ll = Ll_abstract
module Reg = Vbl_lists.Registry

let with_metrics f =
  Metrics.reset ();
  Probe.install (Probe.metrics ());
  Fun.protect ~finally:Probe.uninstall f

(* ------------------------------------------------------------------ *)
(* Real backend: recycling and limbo boundedness under churn.          *)
(* ------------------------------------------------------------------ *)

let rounds = 100
let range = 64

let churn ?(rounds = rounds) (type s) (module S : Vbl_lists.Set_intf.S with type t = s)
    (t : s) =
  for _round = 1 to rounds do
    for v = 1 to range do
      ignore (S.insert t v : bool)
    done;
    for v = 1 to range do
      ignore (S.remove t v : bool)
    done
  done

let churn_recycles find name () =
  let module S = (val find name : Vbl_lists.Set_intf.S) in
  let t = S.create () in
  with_metrics (fun () -> churn (module S) t);
  Alcotest.(check (list int)) "empty after churn" [] (S.to_list t);
  (match S.check_invariants t with Ok () -> () | Error m -> Alcotest.fail m);
  let s = Metrics.snapshot () in
  let retired = Metrics.get s Metrics.Reclaim_retired
  and recycled = Metrics.get s Metrics.Reclaim_recycled
  and freed = Metrics.get s Metrics.Reclaim_freed
  and advances = Metrics.get s Metrics.Reclaim_epoch_advances in
  (* Every removed node is retired: [rounds * range] removes succeed. *)
  Alcotest.(check bool)
    (Printf.sprintf "unlinks are retired (%d)" retired)
    true
    (retired >= rounds * range);
  Alcotest.(check bool)
    (Printf.sprintf "inserts recycle (%d)" recycled)
    true (recycled > 1000);
  Alcotest.(check bool) "the epoch advances" true (advances > 0);
  (* Limbo depth is what a leak would inflate: nodes retired but never
     aged out.  It must stay within a few advance periods, not track the
     6400-node churn volume. *)
  let limbo = retired - freed in
  Alcotest.(check bool)
    (Printf.sprintf "limbo bounded (retired %d, freed %d)" retired freed)
    true
    (limbo >= 0 && limbo <= 1024)

(* The non-reclaiming backends must not touch the reclamation counters:
   the hooks are compiled-out no-ops behind [M.reclaiming]. *)
let plain_backend_never_retires () =
  let module S = Reg.Vbl in
  let t = S.create () in
  with_metrics (fun () -> churn (module S) t);
  let s = Metrics.snapshot () in
  Alcotest.(check int) "no retires" 0 (Metrics.get s Metrics.Reclaim_retired);
  Alcotest.(check int) "no recycles" 0 (Metrics.get s Metrics.Reclaim_recycled)

let real_cases =
  List.map
    (fun name ->
      Alcotest.test_case (name ^ ": churn recycles, limbo bounded") `Quick
        (churn_recycles Vbl_harness.Sweep.find_real name))
    [ "vbl-reclaim"; "lazy-reclaim"; "harris-michael-reclaim" ]
  @ [
      Alcotest.test_case "vbl-sharded-8-reclaim: churn recycles, limbo bounded"
        `Quick
        (churn_recycles Vbl_harness.Sweep.find_real "vbl-sharded-8-reclaim");
      Alcotest.test_case "vbl (plain): reclamation counters stay zero" `Quick
        plain_backend_never_retires;
    ]

(* A fold parked across a grace period.  One domain folds over keys
   1..20 and parks inside its callback at key 1.  Another domain removes
   1, runs 400 insert/remove pairs so the epoch advances and limbo ages
   out, then inserts 600 fresh keys that recycle the retired nodes.  The
   fold must still yield every untouched key 2..20: a walk that resumed
   on node 1 reinitialized as some key above 1000 would skip them.  And
   the parked callback must not hold the epoch: the fold collects
   inside its bracket and calls back after closing it, so the churn
   recycles the nodes it retires while the callback is parked.  A walk
   that called back inside its bracket would pin the epoch, every node
   retired meanwhile would stay in limbo, and no insert would recycle. *)
let parked_fold_sees_untouched_keys name () =
  let module S = (val Vbl_harness.Sweep.find_real name : Vbl_lists.Set_intf.S) in
  let t = S.create () in
  for v = 1 to 20 do
    ignore (S.insert t v : bool)
  done;
  let parked = Atomic.make false and released = Atomic.make false in
  let folder =
    Domain.spawn (fun () ->
        S.fold
          (fun acc v ->
            if v = 1 then begin
              Atomic.set parked true;
              while not (Atomic.get released) do
                Domain.cpu_relax ()
              done
            end;
            v :: acc)
          [] t)
  in
  let recycled =
    Fun.protect
      ~finally:(fun () -> Atomic.set released true)
      (fun () ->
        while not (Atomic.get parked) do
          Domain.cpu_relax ()
        done;
        with_metrics (fun () ->
            ignore (S.remove t 1 : bool);
            for _ = 1 to 400 do
              ignore (S.insert t 1000 : bool);
              ignore (S.remove t 1000 : bool)
            done;
            for v = 1001 to 1600 do
              ignore (S.insert t v : bool)
            done;
            Metrics.get (Metrics.snapshot ()) Metrics.Reclaim_recycled))
  in
  let seen = Domain.join folder in
  Alcotest.(check (list int))
    "untouched keys 2..20 the parked fold missed" []
    (List.filter (fun v -> not (List.mem v seen)) (List.init 19 (fun i -> i + 2)));
  Alcotest.(check bool)
    (Printf.sprintf "inserts recycle while the callback is parked (%d)" recycled)
    true (recycled > 0)

let real_cases =
  real_cases
  @ List.map
      (fun name ->
        Alcotest.test_case (name ^ ": fold parked across a grace period") `Quick
          (parked_fold_sees_untouched_keys name))
      [ "vbl-reclaim"; "lazy-reclaim"; "harris-michael-reclaim" ]

(* ------------------------------------------------------------------ *)
(* Real backend: reclamation costs only what it reclaims.              *)
(* ------------------------------------------------------------------ *)

module Vbl_reclaim = Reg.Vbl_reclaim

(* A growing set has nothing in limbo, so no epoch advance could serve
   one of its inserts: building it must leave the epoch alone. *)
let fresh_inserts_skip_advance () =
  let t = Vbl_reclaim.create () in
  with_metrics (fun () ->
      for v = 1 to 1000 do
        ignore (Vbl_reclaim.insert t v : bool)
      done);
  Alcotest.(check int) "epoch advances" 0
    (Metrics.get (Metrics.snapshot ()) Metrics.Reclaim_epoch_advances)

(* A set owns its limbo and free-lists, so dropping it frees them: after
   a warm-up, 200 more created, churned and dropped sets must leave the
   live heap where it was. *)
let dropped_sets_free_their_pools () =
  let churn_and_drop n =
    for _ = 1 to n do
      churn ~rounds:20 (module Vbl_reclaim) (Vbl_reclaim.create ())
    done
  in
  let live_words () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  churn_and_drop 50;
  let before = live_words () in
  churn_and_drop 200;
  let growth = live_words () - before in
  Alcotest.(check bool)
    (Printf.sprintf "live words grow by %d over 200 dropped sets" growth)
    true (growth < 2000)

(* A domain that starts after another exited reuses its index and
   inherits its limbo and free-list, so churn by 64 short-lived domains
   in turn strands no more nodes than one domain leaves behind. *)
let exited_domains_hand_nodes_on () =
  let t = Vbl_reclaim.create () in
  with_metrics (fun () ->
      for _ = 1 to 64 do
        Domain.join (Domain.spawn (fun () -> churn ~rounds:20 (module Vbl_reclaim) t))
      done);
  (match Vbl_reclaim.check_invariants t with Ok () -> () | Error m -> Alcotest.fail m);
  let s = Metrics.snapshot () in
  let stranded =
    Metrics.get s Metrics.Reclaim_retired - Metrics.get s Metrics.Reclaim_recycled
  in
  Alcotest.(check bool)
    (Printf.sprintf "%d nodes left in limbo or on free-lists" stranded)
    true (stranded <= 128)

let real_cases =
  real_cases
  @ [
      Alcotest.test_case "vbl-reclaim: fresh inserts never advance the epoch" `Quick
        fresh_inserts_skip_advance;
      Alcotest.test_case "vbl-reclaim: dropped sets free their pools" `Quick
        dropped_sets_free_their_pools;
      Alcotest.test_case "vbl-reclaim: exited domains hand their nodes on" `Quick
        exited_domains_hand_nodes_on;
    ]

(* ------------------------------------------------------------------ *)
(* Instrumented backend: DPOR over the epoch protocol.                 *)
(* ------------------------------------------------------------------ *)

let quick_config = { Explore.max_executions = 200_000; max_steps = 5_000 }

(* The use-after-reclaim shape: with initial contents [1; 2], one thread
   removes 1 (retiring its node), another inserts 3 (whose recycle can be
   served that very node), and a third runs [contains 2] — which may be
   parked on the removed node when it is reinitialized to value 3.
   Without a grace period the resumed traversal sees 3 >= 2, concludes 2
   is absent, and returns [false] even though 2 is in the set in every
   linearization. *)
let reclaim_scenario impl =
  Drive.explore_scenario impl ~initial:[ 1; 2 ]
    ~ops:[ Ll.remove 1; Ll.insert 3; Ll.contains 2 ]

module Vbl_eager_i = struct
  include Vbl_lists.Vbl_list.Make (Vbl_memops.Instr_reclaim.Eager)

  let name = "vbl-reclaim-eager"
end

let safe_explores_clean name () =
  let report =
    Explore.run ~config:quick_config
      (reclaim_scenario (Vbl_harness.Sweep.find_instrumented name))
  in
  (match report.Explore.failure with
  | None -> ()
  | Some f ->
      Alcotest.failf "safe reclamation fails under DPOR: %a" Explore.pp_failure f);
  Alcotest.(check bool) "exploration not truncated" true (not report.Explore.truncated);
  Alcotest.(check bool) "more than one execution" true (report.Explore.executions > 1)

let eager_mutant_caught () =
  let report =
    Explore.run ~config:quick_config (reclaim_scenario (module Vbl_eager_i))
  in
  match report.Explore.failure with
  | Some (Explore.Not_linearizable _) | Some (Explore.Invariant_broken _) -> ()
  | Some f ->
      Alcotest.failf "eager mutant failed, but not as a safety violation: %a"
        Explore.pp_failure f
  | None -> Alcotest.fail "use-after-reclaim mutant escaped DPOR"

let dpor_cases =
  List.map
    (fun name ->
      Alcotest.test_case (name ^ ": DPOR clean under the grace period") `Quick
        (safe_explores_clean name))
    [ "vbl-reclaim"; "lazy-reclaim"; "harris-michael-reclaim" ]
  @ [
      Alcotest.test_case "eager mutant: use-after-reclaim caught" `Quick
        eager_mutant_caught;
    ]

let () =
  Alcotest.run "reclaim"
    [ ("real-churn", real_cases); ("dpor", dpor_cases) ]
