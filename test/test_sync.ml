(* Tests for the sync primitives: single-thread semantics plus real
   multi-domain mutual-exclusion checks (domains timeshare even on one
   core, so races surface through preemption). *)

module Backoff = Vbl_sync.Backoff
module Try_lock = Vbl_sync.Try_lock
module Value_lock = Vbl_sync.Value_lock

let backoff_tests =
  [
    Alcotest.test_case "rejects bad windows" `Quick (fun () ->
        Alcotest.check_raises "zero min"
          (Invalid_argument "Backoff.create: need 0 < min_wait <= max_wait")
          (fun () -> ignore (Backoff.create ~min_wait:0 ()));
        Alcotest.check_raises "min > max"
          (Invalid_argument "Backoff.create: need 0 < min_wait <= max_wait")
          (fun () -> ignore (Backoff.create ~min_wait:10 ~max_wait:5 ())));
    Alcotest.test_case "once and reset do not raise" `Quick (fun () ->
        let b = Backoff.create ~min_wait:1 ~max_wait:8 () in
        for _ = 1 to 10 do
          Backoff.once b
        done;
        Backoff.reset b;
        Backoff.once b);
  ]

let lock_single_thread name (create, try_acquire, acquire, release, is_locked) =
  [
    Alcotest.test_case (name ^ ": starts free") `Quick (fun () ->
        Alcotest.(check bool) "free" false (is_locked (create ())));
    Alcotest.test_case (name ^ ": try_acquire wins when free") `Quick (fun () ->
        let l = create () in
        Alcotest.(check bool) "acquired" true (try_acquire l);
        Alcotest.(check bool) "locked" true (is_locked l));
    Alcotest.test_case (name ^ ": try_acquire fails when held") `Quick (fun () ->
        let l = create () in
        acquire l;
        Alcotest.(check bool) "fails" false (try_acquire l);
        release l;
        Alcotest.(check bool) "free again" false (is_locked l);
        Alcotest.(check bool) "retake" true (try_acquire l));
    Alcotest.test_case (name ^ ": acquire/release cycles") `Quick (fun () ->
        let l = create () in
        for _ = 1 to 100 do
          acquire l;
          release l
        done;
        Alcotest.(check bool) "free" false (is_locked l));
  ]

let try_lock_ops =
  (Try_lock.create, Try_lock.try_lock, Try_lock.lock, Try_lock.unlock, Try_lock.is_locked)

(* Mutual exclusion under domains: counter increments under the lock must
   not be lost. *)
let mutual_exclusion name acquire release create =
  Alcotest.test_case (name ^ ": no lost updates across domains") `Slow (fun () ->
      let l = create () in
      let counter = ref 0 in
      let iters = 10_000 and domains = 4 in
      let worker () =
        for _ = 1 to iters do
          acquire l;
          counter := !counter + 1;
          release l
        done
      in
      let ds = List.init domains (fun _ -> Domain.spawn worker) in
      List.iter Domain.join ds;
      Alcotest.(check int) "count" (iters * domains) !counter)

let value_lock_tests =
  [
    Alcotest.test_case "validation pass keeps lock" `Quick (fun () ->
        let l = Value_lock.create () in
        Alcotest.(check bool) "locked" true (Value_lock.lock_when l ~validate:(fun () -> true));
        Alcotest.(check bool) "held" true (Value_lock.is_locked l);
        Value_lock.unlock l);
    Alcotest.test_case "validation failure releases lock" `Quick (fun () ->
        let l = Value_lock.create () in
        Alcotest.(check bool) "failed" false
          (Value_lock.lock_when l ~validate:(fun () -> false));
        Alcotest.(check bool) "released" false (Value_lock.is_locked l));
    Alcotest.test_case "validate runs under the lock" `Quick (fun () ->
        let l = Value_lock.create () in
        let observed = ref false in
        ignore
          (Value_lock.lock_when l ~validate:(fun () ->
               observed := Value_lock.is_locked l;
               false));
        Alcotest.(check bool) "lock held during validate" true !observed);
    Alcotest.test_case "try variant fails on held lock without validating" `Quick
      (fun () ->
        let l = Value_lock.create () in
        ignore (Value_lock.lock_when l ~validate:(fun () -> true));
        let ran = ref false in
        Alcotest.(check bool) "try fails" false
          (Value_lock.try_lock_when l ~validate:(fun () ->
               ran := true;
               true));
        Alcotest.(check bool) "validate not run" false !ran;
        Value_lock.unlock l);
    Alcotest.test_case "try variant validates when free" `Quick (fun () ->
        let l = Value_lock.create () in
        Alcotest.(check bool) "ok" true (Value_lock.try_lock_when l ~validate:(fun () -> true));
        Value_lock.unlock l;
        Alcotest.(check bool) "reject" false
          (Value_lock.try_lock_when l ~validate:(fun () -> false));
        Alcotest.(check bool) "released after reject" false (Value_lock.is_locked l));
  ]

let () =
  Alcotest.run "sync"
    [
      ("backoff", backoff_tests);
      ("try-lock", lock_single_thread "try-lock" try_lock_ops
                  @ [ mutual_exclusion "try-lock" Try_lock.lock Try_lock.unlock Try_lock.create ]);
      ("value-lock", value_lock_tests);
    ]
