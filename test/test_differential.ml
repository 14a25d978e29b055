(* Cross-implementation differential stress.

   Two oracles, both built on the same ownership discipline: keys are
   partitioned across logical threads (key k belongs to thread k mod T),
   writers only touch their own keys, and contains probes roam freely.
   Because each key has a single writer, every insert/remove result is
   determined by the owner's program order alone — a thread-local
   sequential model predicts it — and the final surviving key set equals
   the per-key last write, which a sequential [Seq_list] replay of the
   logs reconstructs.  Any divergence (wrong write result, wrong final
   set, broken invariants, deadlock) prints the seed and an op-log
   prefix so the schedule can be replayed.

   Mode 1 runs real domains (preemption-driven interleavings, every
   registry implementation plus the sharded frontends).  Mode 2 runs the
   instrumented backend under a seeded random scheduler — dejafu-style
   randomized testing that complements the DPOR explorer: coarser than
   exhaustive exploration, but cheap enough to run every implementation
   (and the seeded mutants of lib/analysis, which it must catch) on
   every `dune runtest`.  Mode 3 differentially checks the sharded batch
   API against one-at-a-time application. *)

module Rng = Vbl_util.Rng
module Seq = Vbl_lists.Registry.Sequential
module Instr = Vbl_memops.Instr_mem
module Exec = Vbl_sched.Exec
module Obs = Vbl_obs

(* Every mode runs with the flight recorder on, so a divergence ships the
   recent-operation timeline alongside the seed and log prefix. *)
let with_recorder f =
  Obs.Recorder.reset ();
  Obs.Recorder.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.Recorder.set_enabled false) f

(* Alcotest.failf with the flight-recorder timeline appended; the dump is
   taken while building the message, before the exception unwinds past
   [with_recorder]'s disable. *)
let failf_dump fmt =
  Printf.ksprintf (fun msg -> Alcotest.fail (msg ^ "\n" ^ Obs.Recorder.dump ())) fmt

let contains_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* An owner-keyed write: [ins]=true for insert.  Logs keep program order
   per thread; replaying thread logs in any thread order reconstructs the
   final set because each key's writes all live in one log. *)
type write = { ins : bool; key : int; got : bool }

let log_prefix ?(n = 12) log =
  String.concat "; "
    (List.filteri (fun i _ -> i < n)
       (List.map
          (fun w -> Printf.sprintf "%s %d -> %b" (if w.ins then "ins" else "rem") w.key w.got)
          log))

let replay_final logs =
  let replica = Seq.create () in
  Array.iter
    (fun log ->
      List.iter
        (fun w -> ignore (if w.ins then Seq.insert replica w.key else Seq.remove replica w.key))
        log)
    logs;
  Seq.to_list replica

(* ------------------------------------------------------------------ *)
(* Mode 1: real domains                                                *)
(* ------------------------------------------------------------------ *)

let real_stress impl ~domains ~total_ops ~key_range ~update_percent ~seed =
  let module S = (val impl : Vbl_lists.Set_intf.S) in
  let t = S.create () in
  let per_domain = total_ops / domains in
  let slots = key_range / domains in
  let logs = Array.make domains [] in
  let first_mismatch = Array.make domains None in
  let worker d () =
    let rng = Rng.stream ~seed ~index:d in
    let model = Array.make (key_range + 1) false in
    let log = ref [] in
    for i = 1 to per_domain do
      let roll = Rng.int rng 100 in
      if roll < update_percent then begin
        let k = 1 + d + (domains * Rng.int rng slots) in
        let ins = Rng.bool rng in
        let t0 = if !Obs.Recorder.enabled then Obs.Contention.now_ns () else 0 in
        let got = if ins then S.insert t k else S.remove t k in
        if !Obs.Recorder.enabled then
          Obs.Recorder.record ~thread:d
            ~kind:(if ins then Obs.Recorder.Insert else Obs.Recorder.Remove)
            ~key:k ~shard:(-1) ~ok:got ~restarts:0 ~t0_ns:t0
            ~t1_ns:(Obs.Contention.now_ns ());
        let want = if ins then not model.(k) else model.(k) in
        model.(k) <- ins;
        log := { ins; key = k; got } :: !log;
        if got <> want && first_mismatch.(d) = None then
          first_mismatch.(d) <- Some (i, k, want, got)
      end
      else begin
        let k = 1 + Rng.int rng key_range in
        let t0 = if !Obs.Recorder.enabled then Obs.Contention.now_ns () else 0 in
        let got = S.contains t k in
        if !Obs.Recorder.enabled then
          Obs.Recorder.record ~thread:d ~kind:Obs.Recorder.Contains ~key:k ~shard:(-1)
            ~ok:got ~restarts:0 ~t0_ns:t0 ~t1_ns:(Obs.Contention.now_ns ())
      end
    done;
    logs.(d) <- List.rev !log
  in
  List.iter Domain.join (List.init domains (fun d -> Domain.spawn (worker d)));
  Array.iteri
    (fun d m ->
      match m with
      | Some (i, k, want, got) ->
          failf_dump
            "%s: seed %Ld: domain %d op %d on key %d returned %b, single-writer model \
             says %b\n  domain %d log prefix: %s"
            S.name seed d i k got want d (log_prefix logs.(d))
      | None -> ())
    first_mismatch;
  (match S.check_invariants t with
  | Ok () -> ()
  | Error m -> failf_dump "%s: seed %Ld: invariants after stress: %s" S.name seed m);
  let final = S.to_list t in
  let expected = replay_final logs in
  if final <> expected then
    failf_dump
      "%s: seed %Ld: surviving keys diverge from Seq_list replay of the per-key \
       last-write history\n  got     : %s\n  expected: %s\n  domain 0 log prefix: %s"
      S.name seed
      (String.concat "," (List.map string_of_int final))
      (String.concat "," (List.map string_of_int expected))
      (log_prefix logs.(0))

let real_case impl =
  let module S = (val impl : Vbl_lists.Set_intf.S) in
  Alcotest.test_case (S.name ^ ": 4-domain differential stress") `Quick (fun () ->
      with_recorder (fun () ->
          real_stress impl ~domains:4 ~total_ops:50_000 ~key_range:96 ~update_percent:40
            ~seed:1337L))

(* Churn-heavy stress for the reclaiming implementations: 90% updates on
   a small key range retires and recycles the same nodes continuously
   across 4 domains, the workload where a reclamation bug (premature
   recycle, double retire, stale free-list entry) diverges from the
   single-writer model.  Two seeds for schedule diversity. *)
let churn_case impl =
  let module S = (val impl : Vbl_lists.Set_intf.S) in
  Alcotest.test_case (S.name ^ ": 4-domain churn-heavy reclaim stress") `Quick
    (fun () ->
      with_recorder (fun () ->
          List.iter
            (fun seed ->
              real_stress impl ~domains:4 ~total_ops:60_000 ~key_range:32
                ~update_percent:90 ~seed)
            [ 7L; 90210L ]))

(* ------------------------------------------------------------------ *)
(* Mode 2: instrumented backend, seeded random scheduler               *)
(* ------------------------------------------------------------------ *)

type iop = I of int | R of int | C of int

(* One execution under a random schedule.  [Ok ()] when the run completes
   and matches both oracles; [Error description] on any divergence.  The
   step budget bounds livelock; genuine algorithms finish 3x10 ops within
   a few hundred steps.  On divergence the failing schedule is shrunk
   (see {!Vbl_sched.Shrink}) by replaying fresh instances of the same
   plan, and the locally minimal schedule is appended to the message. *)
let instr_run impl ~threads ~ops_per_thread ~key_range ~update_percent ~seed =
  let module S = (val impl : Vbl_lists.Set_intf.S) in
  let gen = Rng.create ~seed:(Int64.of_int (0x5eed + (seed * 2654435761))) () in
  let slots = max 1 (key_range / threads) in
  let plans =
    Array.init threads (fun d ->
        Array.init ops_per_thread (fun _ ->
            let roll = Rng.int gen 100 in
            if roll < update_percent then begin
              let k = 1 + d + (threads * Rng.int gen slots) in
              if Rng.bool gen then I k else R k
            end
            else C (1 + Rng.int gen key_range)))
  in
  (* Fresh bodies + the differential oracle over their results: one call
     per execution, so the shrinker can replay edited schedules against
     independent instances of the same plan. *)
  let make_instance () =
    let t = Instr.run_sequential (fun () -> S.create ()) in
    let results = Array.map (fun plan -> Array.make (Array.length plan) false) plans in
    let body d () =
      Array.iteri
        (fun i op ->
          let t0 = Obs.Contention.now_ns () in
          let ok =
            match op with I k -> S.insert t k | R k -> S.remove t k | C k -> S.contains t k
          in
          results.(d).(i) <- ok;
          let kind, key =
            match op with
            | I k -> (Obs.Recorder.Insert, k)
            | R k -> (Obs.Recorder.Remove, k)
            | C k -> (Obs.Recorder.Contains, k)
          in
          (* Wall-clock stamps interleave across logical threads (one OS
             domain runs them all), but stay monotonic, which is all the
             dump's ordering needs. *)
          Obs.Recorder.record ~thread:d ~kind ~key ~shard:(-1) ~ok ~restarts:0 ~t0_ns:t0
            ~t1_ns:(Obs.Contention.now_ns ()))
        plans.(d)
    in
    (* Oracle 1: single-writer results.  Oracle 2: final set = replay. *)
    let oracle () =
      let logs = Array.make threads [] in
      let mismatch = ref None in
      Array.iteri
        (fun d plan ->
          let model = Array.make (key_range + 1) false in
          let log = ref [] in
          Array.iteri
            (fun i op ->
              match op with
              | C _ -> ()
              | I k | R k ->
                  let ins = match op with I _ -> true | _ -> false in
                  let want = if ins then not model.(k) else model.(k) in
                  model.(k) <- ins;
                  log := { ins; key = k; got = results.(d).(i) } :: !log;
                  if results.(d).(i) <> want && !mismatch = None then
                    mismatch := Some (d, i, k, want, results.(d).(i)))
            plan;
          logs.(d) <- List.rev !log)
        plans;
      match !mismatch with
      | Some (d, i, k, want, got) ->
          Error
            (Printf.sprintf
               "thread %d op %d on key %d returned %b, single-writer model says %b; log: %s"
               d i k got want (log_prefix logs.(d)))
      | None -> (
          match Instr.run_sequential (fun () -> S.check_invariants t) with
          | Error m -> Error (Printf.sprintf "invariants: %s" m)
          | Ok () ->
              let final = Instr.run_sequential (fun () -> S.to_list t) in
              let expected = replay_final logs in
              if final <> expected then
                Error
                  (Printf.sprintf "final set {%s} diverges from replay {%s}"
                     (String.concat "," (List.map string_of_int final))
                     (String.concat "," (List.map string_of_int expected)))
              else Ok ())
    in
    (List.init threads (fun d -> body d), oracle)
  in
  with_recorder @@ fun () ->
  (* Every divergence below — deadlock, livelock, exception, result
     mismatch, invariants, final-set replay — carries the timeline of the
     operations that completed before it. *)
  let fail fmt = Printf.ksprintf (fun m -> Error (m ^ "\n" ^ Obs.Recorder.dump ~last:20 ())) fmt in
  let schedule = ref [] in
  let budget = 100_000 in
  let outcome =
    let bodies, oracle = make_instance () in
    match
      let ex = Exec.create bodies in
      let driver = Rng.create ~seed:(Int64.of_int ((seed * 7919) + 13)) () in
      let rec drive steps =
        if Exec.finished ex then Ok ()
        else if Exec.deadlocked ex then
          fail "deadlock: every unfinished thread is parked on a held lock"
        else if steps > budget then fail "step budget exhausted (livelock?)"
        else begin
          let runnable = Exec.runnable_threads ex in
          let c = List.nth runnable (Rng.int driver (List.length runnable)) in
          schedule := c :: !schedule;
          Exec.step ex c;
          drive (steps + 1)
        end
      in
      try drive 0
      with e -> fail "exception during execution: %s" (Printexc.to_string e)
    with
    | Error e -> Error e
    | Ok () -> ( match oracle () with Ok () -> Ok () | Error m -> fail "%s" m)
  in
  match outcome with
  | Ok () -> Ok ()
  | Error e ->
      (* The divergence is deterministic in (plan, schedule), so shrink it
         before reporting: the oracle rides along as the scenario's
         invariant check, making every divergence class an Explore
         failure the shrinker knows how to preserve. *)
      let scenario =
        {
          Vbl_sched.Explore.make =
            (fun () ->
              let bodies, oracle = make_instance () in
              {
                Vbl_sched.Explore.bodies;
                history = (fun () -> Vbl_spec.History.of_list []);
                invariants = oracle;
              });
        }
      in
      let r = Vbl_sched.Shrink.shrink_schedule ~max_steps:budget scenario (List.rev !schedule) in
      Error
        (Printf.sprintf "%s\nshrunk schedule (%d -> %d steps, %d replays): [%s]" e
           (List.length r.Vbl_sched.Shrink.original)
           (List.length r.Vbl_sched.Shrink.shrunk)
           r.Vbl_sched.Shrink.attempts
           (String.concat "; " (List.map string_of_int r.Vbl_sched.Shrink.shrunk)))

let instr_seeds = [ 1; 2; 3; 4; 5; 6; 7; 8 ]

let instr_clean_case impl =
  let module S = (val impl : Vbl_lists.Set_intf.S) in
  Alcotest.test_case (S.name ^ ": randomized-scheduler differential") `Quick (fun () ->
      List.iter
        (fun seed ->
          match
            instr_run impl ~threads:3 ~ops_per_thread:10 ~key_range:9 ~update_percent:70
              ~seed
          with
          | Ok () -> ()
          | Error e -> Alcotest.failf "%s: seed %d: %s" S.name seed e)
        instr_seeds)

(* A mutant is caught when at least one seed diverges: the randomized
   differential oracle is the cheap cousin of the DPOR mutation suite in
   test_analysis, so it must reproduce at least the deterministic
   catches.  The leaky-lock mutant deadlocks under any schedule that
   makes a second update touch the leaked lock; the no-logical-delete
   mutant loses concurrent updates visible as a replay divergence. *)
let instr_mutant_case name impl =
  Alcotest.test_case (name ^ ": mutant caught by randomized differential") `Quick
    (fun () ->
      let caught =
        List.exists
          (fun seed ->
            match
              instr_run impl ~threads:3 ~ops_per_thread:10 ~key_range:9
                ~update_percent:70 ~seed
            with
            | Ok () -> false
            | Error _ -> true)
          instr_seeds
      in
      if not caught then
        Alcotest.failf "%s survived all %d random schedules" name (List.length instr_seeds))

(* The divergence message itself must carry the flight-recorder timeline
   — the contract every failure path above relies on.  A mutant forces a
   real divergence, so this checks the wiring end to end. *)
let mutant_dump_case =
  Alcotest.test_case "mutant divergence carries the flight-recorder timeline" `Quick
    (fun () ->
      let errors =
        List.filter_map
          (fun seed ->
            match
              instr_run
                (module Vbl_analysis.Mutants.Vbl_no_logical_delete : Vbl_lists.Set_intf.S)
                ~threads:3 ~ops_per_thread:10 ~key_range:9 ~update_percent:70 ~seed
            with
            | Ok () -> None
            | Error e -> Some e)
          instr_seeds
      in
      match errors with
      | [] -> Alcotest.fail "vbl-no-logical-delete survived every seed; nothing to check"
      | e :: _ ->
          if not (contains_sub e "flight recorder") then
            Alcotest.failf "divergence message lacks the timeline:\n%s" e;
          if not (contains_sub e "shrunk schedule") then
            Alcotest.failf "divergence message lacks the shrunk counterexample:\n%s" e)

(* ------------------------------------------------------------------ *)
(* Mode 4: range queries vs sequential replay                          *)
(* ------------------------------------------------------------------ *)

(* Deterministic range differential: apply the same random updates to an
   implementation and to a Seq_list replica, comparing a random window's
   range_query after every batch, plus the boundary windows a pruned
   traversal can get wrong: wholly below and wholly above every key, a
   single present key, the key removed last (on vbl-bst often a deleted
   routing node) and the whole key space.  Single-domain, so the derived
   double-collect must agree with the replica exactly — this pins the
   inclusive-bounds contract across every family. *)
let range_replay_case impl =
  let module S = (val impl : Vbl_lists.Set_intf.S) in
  Alcotest.test_case (S.name ^ ": range_query matches sequential replay") `Quick
    (fun () ->
      let rng = Rng.create ~seed:2024L () in
      let t = S.create () in
      let replica = Seq.create () in
      let last_removed = ref 1 in
      for round = 0 to 149 do
        for _ = 1 to 16 do
          let k = 1 + Rng.int rng 64 in
          if Rng.bool rng then begin
            let got = S.insert t k and want = Seq.insert replica k in
            if got <> want then
              Alcotest.failf "%s: round %d: insert %d diverges" S.name round k
          end
          else begin
            let got = S.remove t k and want = Seq.remove replica k in
            if got <> want then
              Alcotest.failf "%s: round %d: remove %d diverges" S.name round k;
            if got then last_removed := k
          end
        done;
        let lo = 1 + Rng.int rng 64 in
        let hi = lo + Rng.int rng 32 - 8 (* sometimes inverted *) in
        (* The expected windows filter the replica's whole contents, so
           no pruned traversal sits on the oracle side. *)
        let contents = Seq.to_list replica in
        let present =
          match List.filter (fun v -> v >= lo) contents with v :: _ -> v | [] -> lo
        in
        List.iter
          (fun (lo, hi) ->
            let got = S.range_query t lo hi in
            let want = List.filter (fun v -> lo <= v && v <= hi) contents in
            if got <> want then
              Alcotest.failf "%s: round %d: range [%d,%d] = {%s}, replay says {%s}"
                S.name round lo hi
                (String.concat "," (List.map string_of_int got))
                (String.concat "," (List.map string_of_int want)))
          [
            (lo, hi);
            (-20, 0);
            (65, 100);
            (present, present);
            (!last_removed, !last_removed);
            (min_int, max_int);
          ]
      done;
      Alcotest.(check int)
        "approx_size agrees at rest" (List.length (S.to_list t)) (S.approx_size t))

(* Concurrent range smoke under real parallelism: a reader domain runs
   range queries while writers churn.  Snapshot atomicity is the DPOR
   range scenarios' business; here each snapshot must merely be
   well-formed — strictly ascending, deduplicated and inside the asked
   window — i.e. the traversal never tears. *)
let range_stress_case impl =
  let module S = (val impl : Vbl_lists.Set_intf.S) in
  Alcotest.test_case (S.name ^ ": concurrent range snapshots well-formed") `Quick
    (fun () ->
      let t = S.create () in
      let writers = 4 and key_range = 64 in
      let stop = Atomic.make false in
      let bad = Atomic.make None in
      let reader () =
        let rng = Rng.create ~seed:99L () in
        while not (Atomic.get stop) do
          let lo = 1 + Rng.int rng key_range in
          let hi = lo + Rng.int rng 16 in
          let snap = S.range_query t lo hi in
          let rec ascending = function
            | a :: (b :: _ as rest) -> a < b && ascending rest
            | [ _ ] | [] -> true
          in
          if not (ascending snap && List.for_all (fun v -> lo <= v && v <= hi) snap)
          then ignore (Atomic.compare_and_set bad None (Some (lo, hi, snap)))
        done
      in
      let writer d () =
        let rng = Rng.stream ~seed:31337L ~index:d in
        for _ = 1 to 20_000 do
          let k = 1 + Rng.int rng key_range in
          if Rng.bool rng then ignore (S.insert t k) else ignore (S.remove t k)
        done
      in
      let rd = Domain.spawn reader in
      List.iter Domain.join (List.init writers (fun d -> Domain.spawn (writer d)));
      Atomic.set stop true;
      Domain.join rd;
      (match Atomic.get bad with
      | None -> ()
      | Some (lo, hi, snap) ->
          Alcotest.failf "%s: torn range snapshot [%d,%d]: {%s}" S.name lo hi
            (String.concat "," (List.map string_of_int snap)));
      match S.check_invariants t with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s: invariants after range stress: %s" S.name m)

(* A fold whose callback removes and re-inserts the key it was just
   given.  On a BST the remove splices the key's node out, its right
   subtree moves up into the slot, and the insert links the new node at
   that subtree's leftmost end, which is where the walk goes next: the
   fold must still yield every key once, ascending.  The coarse wrappers
   are left out because their fold holds the global lock the callback
   would take again, and the -reclaim sets because a reclaiming set
   forbids re-entry from a fold callback. *)
let fold_reentry_case impl =
  let module S = (val impl : Vbl_lists.Set_intf.S) in
  Alcotest.test_case (S.name ^ ": fold meets a re-inserted key once") `Quick (fun () ->
      let t = S.create () in
      List.iter (fun v -> ignore (S.insert t v)) [ 30; 50; 60; 70 ];
      let toggled = ref false in
      let seen =
        S.fold
          (fun acc v ->
            if v = 50 && not !toggled then begin
              toggled := true;
              ignore (S.remove t 50);
              ignore (S.insert t 50)
            end;
            v :: acc)
          [] t
      in
      Alcotest.(check (list int)) "fold" [ 30; 50; 60; 70 ] (List.rev seen))

let fold_reentry_sets =
  List.filter
    (fun impl ->
      let module S = (val impl : Vbl_lists.Set_intf.S) in
      not
        (S.name = "coarse" || S.name = "coarse-bst"
        || String.ends_with ~suffix:"-reclaim" S.name))
    (Vbl_lists.Registry.all @ Vbl_skiplists.Registry.all @ Vbl_trees.Registry.all)

(* ------------------------------------------------------------------ *)
(* Mode 3: batched vs one-at-a-time application                        *)
(* ------------------------------------------------------------------ *)

(* Single-domain, so every result is deterministic: an operation's result
   depends only on the same-key prefix, and apply_batch's shard grouping
   preserves per-key order, so batched results must equal a left-to-right
   Seq_list replay op for op. *)
let batch_case (impl : (module Vbl_shard.Sharded_set.S)) =
  let module S = (val impl) in
  Alcotest.test_case (S.name ^ ": apply_batch matches sequential replay") `Quick
    (fun () ->
      with_recorder @@ fun () ->
      let rng = Rng.create ~seed:4242L () in
      let key_range = 512 in
      let t = S.create () in
      let replica = Seq.create () in
      let batch = 64 in
      for round = 0 to 49 do
        let ops =
          Array.init batch (fun _ ->
              let k = 1 + Rng.int rng key_range in
              match Rng.int rng 3 with
              | 0 -> Vbl_shard.Sharded_set.Insert k
              | 1 -> Vbl_shard.Sharded_set.Remove k
              | _ -> Vbl_shard.Sharded_set.Contains k)
        in
        let t0 = Obs.Contention.now_ns () in
        let got = S.apply_batch t ops in
        let t1 = Obs.Contention.now_ns () in
        (* One timestamp pair per batch: per-op timing inside apply_batch
           is the backend's business, not the oracle's. *)
        Array.iteri
          (fun i op ->
            let kind, key =
              match op with
              | Vbl_shard.Sharded_set.Insert k -> (Obs.Recorder.Insert, k)
              | Vbl_shard.Sharded_set.Remove k -> (Obs.Recorder.Remove, k)
              | Vbl_shard.Sharded_set.Contains k -> (Obs.Recorder.Contains, k)
            in
            Obs.Recorder.record ~thread:0 ~kind ~key ~shard:(-1) ~ok:got.(i) ~restarts:0
              ~t0_ns:t0 ~t1_ns:t1)
          ops;
        Array.iteri
          (fun i op ->
            let want =
              match op with
              | Vbl_shard.Sharded_set.Insert k -> Seq.insert replica k
              | Vbl_shard.Sharded_set.Remove k -> Seq.remove replica k
              | Vbl_shard.Sharded_set.Contains k -> Seq.contains replica k
            in
            if got.(i) <> want then
              failf_dump "%s: round %d op %d: batch says %b, replay says %b" S.name round
                i got.(i) want)
          ops
      done;
      Alcotest.(check (list int))
        "final contents match replica" (Seq.to_list replica) (S.to_list t);
      (match S.check_invariants t with
      | Ok () -> ()
      | Error m -> failf_dump "%s: invariants: %s" S.name m);
      Alcotest.(check int)
        "striped size agrees" (List.length (S.to_list t)) (S.size t))

(* ------------------------------------------------------------------ *)
(* Mode 5: build-time instances vs their functor twins                  *)
(* ------------------------------------------------------------------ *)

(* Every real-backend registry entry is generated from its algorithm's
   functor body (lib/*/specialised); the twin applies the functor to the
   same backend.  One seeded single-threaded stream drives both, and
   every result must agree: a generator that dropped, reordered or
   mis-bound anything in a body shows up as a divergence. *)
module Real = Vbl_memops.Real_mem
module Reclaim = Vbl_memops.Reclaim_mem
module L = Vbl_lists
module Sk = Vbl_skiplists
module Tr = Vbl_trees
module Lock_skip = Sk.Lock_skiplist.Make (Real)
module Lock_real = L.Lock_list.Make (Real)
module Lock_reclaim = L.Lock_list.Make (Reclaim)

let twin_case ?(title = "generated instance = functor twin") ?(ops = 4_000)
    ((generated : Vbl_lists.Registry.impl), (twin : Vbl_lists.Registry.impl)) =
  let module G = (val generated) in
  let module F = (val twin) in
  Alcotest.test_case (G.name ^ ": " ^ title) `Quick (fun () ->
      let rng = Rng.create ~seed:1414L () in
      let g = G.create () and f = F.create () in
      let diverged i fmt =
        Printf.ksprintf (Alcotest.failf "%s: op %d (%s) diverged" G.name i) fmt
      in
      for i = 1 to ops do
        let k = 1 + Rng.int rng 64 in
        match Rng.int rng 10 with
        | 0 | 1 | 2 -> if G.insert g k <> F.insert f k then diverged i "insert %d" k
        | 3 | 4 | 5 -> if G.remove g k <> F.remove f k then diverged i "remove %d" k
        | 6 | 7 | 8 -> if G.contains g k <> F.contains f k then diverged i "contains %d" k
        | _ ->
            let hi = k + Rng.int rng 24 - 4 (* sometimes inverted *) in
            if G.range_query g k hi <> F.range_query f k hi then
              diverged i "range_query %d %d" k hi
      done;
      Alcotest.(check (list int)) "to_list" (F.to_list f) (G.to_list g);
      Alcotest.(check (result unit string))
        "check_invariants" (F.check_invariants f) (G.check_invariants g))

let twins : (Vbl_lists.Registry.impl * Vbl_lists.Registry.impl) list =
  [
    ((module L.Registry.Sequential), (module L.Seq_list.Make (Real)));
    ((module L.Registry.Coarse), (module L.Coarse_list.Make (Real)));
    ((module L.Registry.Hand_over_hand), (module L.Hoh_list.Make (Real)));
    ((module L.Registry.Optimistic), (module L.Optimistic_list.Make (Real)));
    ((module L.Registry.Lazy), (module Lock_real.Lazy));
    ((module L.Registry.Harris_michael_amr), (module L.Harris_michael.Make (Real)));
    ((module L.Registry.Harris_michael_rtti), (module L.Harris_michael_tagged.Make (Real)));
    ((module L.Registry.Fomitchev_ruppert_list), (module L.Fomitchev_ruppert.Make (Real)));
    ((module L.Registry.Vbl), (module Lock_real.Vbl));
    ((module L.Registry.Vbl_postlock_ablation), (module Lock_real.Postlock));
    ((module L.Registry.Vbl_versioned_variant), (module L.Vbl_versioned.Make (Real)));
    ((module L.Registry.Lazy_reclaim), (module Lock_reclaim.Lazy));
    ((module L.Registry.Harris_michael_reclaim), (module L.Harris_michael.Make (Reclaim)));
    ((module L.Registry.Vbl_reclaim), (module Lock_reclaim.Vbl));
    ((module Sk.Registry.Lazy_skip), (module Lock_skip.Lazy));
    ((module Sk.Registry.Vbl_skip), (module Lock_skip.Vbl));
    ((module Sk.Registry.Lockfree_skip), (module Sk.Lockfree_skiplist.Make (Real)));
    ((module Tr.Registry.Sequential_bst), (module Tr.Seq_bst.Make (Real)));
    ((module Tr.Registry.Coarse_bst_impl), (module Tr.Coarse_bst.Make (Real)));
    ((module Tr.Registry.Lazy_bst_impl), (module Tr.Lazy_bst.Make (Real)));
    ((module Tr.Registry.Lockfree_bst_impl), (module Tr.Lockfree_bst.Make (Real)));
    ((module Tr.Registry.Vbl_bst_impl), (module Tr.Vbl_bst.Make (Real)));
  ]

(* ------------------------------------------------------------------ *)

let () =
  let impl_cases =
    List.map real_case
      (Vbl_lists.Registry.concurrent @ Vbl_shard.Registry.all
      @ Vbl_skiplists.Registry.all @ Vbl_trees.Registry.concurrent)
  in
  let churn_cases =
    List.map churn_case
      [
        (module Vbl_lists.Registry.Lazy_reclaim : Vbl_lists.Set_intf.S);
        (module Vbl_lists.Registry.Harris_michael_reclaim);
        (module Vbl_lists.Registry.Vbl_reclaim);
        (module Vbl_shard.Registry.Vbl_sharded_8_reclaim);
      ]
  in
  let clean_instr =
    List.map instr_clean_case
      [
        (module Vbl_lists.Registry.Vbl_i : Vbl_lists.Set_intf.S);
        (module Vbl_lists.Registry.Lazy_i);
        (module Vbl_lists.Registry.Hm_tagged_i);
        (module Vbl_lists.Registry.Coarse_i);
        (module Vbl_shard.Registry.Vbl_sharded_4_i);
        (module Vbl_skiplists.Registry.Vbl_skip_i);
        (module Vbl_trees.Registry.Vbl_bst_i);
        (module Vbl_trees.Registry.Lazy_bst_i);
      ]
  in
  let mutants =
    [
      instr_mutant_case "vbl-leaky-lock"
        (module Vbl_analysis.Mutants.Vbl_leaky_lock : Vbl_lists.Set_intf.S);
      instr_mutant_case "vbl-no-logical-delete"
        (module Vbl_analysis.Mutants.Vbl_no_logical_delete);
      instr_mutant_case "bst-no-version-recheck"
        (module Vbl_analysis.Mutants.Bst_no_version_recheck);
      mutant_dump_case;
    ]
  in
  let range_cases =
    List.map fold_reentry_case fold_reentry_sets
    @ List.map range_replay_case
      (Vbl_lists.Registry.concurrent @ Vbl_skiplists.Registry.all
      @ Vbl_trees.Registry.concurrent @ Vbl_shard.Registry.all)
    @ List.map range_stress_case
        [
          (module Vbl_lists.Registry.Vbl : Vbl_lists.Set_intf.S);
          (module Vbl_lists.Registry.Vbl_reclaim);
          (module Vbl_lists.Registry.Lazy_reclaim);
          (module Vbl_lists.Registry.Harris_michael_reclaim);
          (module Vbl_shard.Registry.Vbl_sharded_8_reclaim);
          (module Vbl_skiplists.Registry.Vbl_skip);
          (module Vbl_skiplists.Registry.Lockfree_skip);
          (module Vbl_trees.Registry.Vbl_bst_impl);
          (module Vbl_trees.Registry.Lockfree_bst_impl);
        ]
  in
  Alcotest.run "differential"
    [
      ("real-domains", impl_cases);
      ("real-domains-churn", churn_cases);
      ("instr-random-scheduler", clean_instr);
      ("instr-mutants", mutants);
      ("batch", List.map batch_case Vbl_shard.Registry.batched);
      ("range", range_cases);
      ( "specialised",
        List.map twin_case twins
        @ [
            (* A set registered without a twin row would go unchecked. *)
            Alcotest.test_case "the twins name every set but the sharded ones" `Quick
              (fun () ->
                let name (module S : Vbl_lists.Set_intf.S) = S.name in
                let sharded = List.map name Vbl_shard.Registry.all in
                Alcotest.(check (list string))
                  "twin rows"
                  (List.sort compare
                     (List.filter
                        (fun n -> not (List.mem n sharded))
                        Vbl_harness.Sweep.names))
                  (List.sort compare (List.map (fun (g, _) -> name g) twins)));
          ] );
      (* The hand-specialised copy perfbench's l1 rung times must agree
         with the registry vbl, or that rung measures something else. *)
      ( "vbl-direct",
        [
          twin_case ~title:"agrees with the registry vbl" ~ops:20_000
            ((module Vbl_direct), (module L.Registry.Vbl));
        ] );
    ]
