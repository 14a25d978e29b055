(* Tests for the reclamation layer.

   Real backend: churn workloads must actually recycle (inserts served
   from the free-list), the global epoch must advance, and limbo depth
   (retired minus freed) must stay bounded by a few advance periods
   rather than growing with churn volume.

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

let churn (type s) (module S : Vbl_lists.Set_intf.S with type t = s) (t : s) =
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
  let module S = (val Reg.find_exn "vbl" : Vbl_lists.Set_intf.S) in
  let t = S.create () in
  with_metrics (fun () -> churn (module S) t);
  let s = Metrics.snapshot () in
  Alcotest.(check int) "no retires" 0 (Metrics.get s Metrics.Reclaim_retired);
  Alcotest.(check int) "no recycles" 0 (Metrics.get s Metrics.Reclaim_recycled)

let real_cases =
  List.map
    (fun name ->
      Alcotest.test_case (name ^ ": churn recycles, limbo bounded") `Quick
        (churn_recycles (fun n -> Reg.find_exn n) name))
    [ "vbl-reclaim"; "lazy-reclaim"; "harris-michael-reclaim" ]
  @ [
      Alcotest.test_case "vbl-sharded-8-reclaim: churn recycles, limbo bounded"
        `Quick
        (churn_recycles
           (fun n -> Vbl_shard.Registry.find_exn n)
           "vbl-sharded-8-reclaim");
      Alcotest.test_case "vbl (plain): reclamation counters stay zero" `Quick
        plain_backend_never_retires;
    ]

(* A fold parked across a grace period.  One domain folds over keys
   1..20 and parks inside its callback at key 1, its walk standing on
   node 1.  Another domain removes 1, runs 400 insert/remove pairs so
   the epoch advances and limbo ages out, then inserts 600 fresh keys
   that recycle the retired nodes.  An unbracketed walk resumes on node
   1 reinitialized as some key above 1000 and skips every untouched key
   2..20; inside the fold's epoch bracket node 1 stays in limbo until
   the walk leaves it. *)
let parked_fold_sees_untouched_keys name () =
  let module S = (val Reg.find_exn name : Vbl_lists.Set_intf.S) in
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
  Fun.protect
    ~finally:(fun () -> Atomic.set released true)
    (fun () ->
      while not (Atomic.get parked) do
        Domain.cpu_relax ()
      done;
      ignore (S.remove t 1 : bool);
      for _ = 1 to 400 do
        ignore (S.insert t 1000 : bool);
        ignore (S.remove t 1000 : bool)
      done;
      for v = 1001 to 1600 do
        ignore (S.insert t v : bool)
      done);
  let seen = Domain.join folder in
  Alcotest.(check (list int))
    "untouched keys 2..20 the parked fold missed" []
    (List.filter (fun v -> not (List.mem v seen)) (List.init 19 (fun i -> i + 2)))

let real_cases =
  real_cases
  @ List.map
      (fun name ->
        Alcotest.test_case (name ^ ": fold parked across a grace period") `Quick
          (parked_fold_sees_untouched_keys name))
      [ "vbl-reclaim"; "lazy-reclaim"; "harris-michael-reclaim" ]

(* ------------------------------------------------------------------ *)
(* Instrumented backend: DPOR over the epoch protocol.                 *)
(* ------------------------------------------------------------------ *)

let quick_config =
  { Explore.max_executions = 200_000; preemption_bound = Some 3; max_steps = 5_000 }

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
    Explore.run ~config:quick_config (reclaim_scenario (Drive.find_instrumented name))
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
