(* Real-concurrency stress tests: OCaml domains hammer each algorithm and
   the recorded history is checked for linearizability (with the sigma-bar
   contains-extension over the final contents), plus structural invariants.
   The canary proves the checks can fail: the unsynchronised sequential
   list, interleaved deterministically on the instrumented backend, must
   be caught by the same history checker. *)

module H = Vbl_spec.History

(* The verdict on one run: structural invariants, and linearizability of
   the full judged history — seeded initial inserts, the recorded
   concurrent ops, then one contains probe per key reflecting the final
   contents. *)
let judge ~key_range ~initial ~invariants ~final recorder =
  let recorded = H.Recorder.history recorder in
  let entries =
    List.map
      (fun (o : H.operation) -> (o.thread, o.index, o.op, o.invoked_at, o.completion, o.returned_at))
      (H.operations recorded)
  in
  let horizon = 1 + List.fold_left (fun acc (_, _, _, _, _, r) -> max acc r) 0 entries in
  let seed_entries =
    List.mapi
      (fun k v ->
        (1000 + k, 0, Vbl_spec.Set_model.Insert v, -2 * (k + 1), H.Returned true, (-2 * (k + 1)) + 1))
      (List.sort_uniq compare initial)
  in
  let probes =
    List.mapi
      (fun k v ->
        ( 2000 + k,
          0,
          Vbl_spec.Set_model.Contains v,
          horizon + (2 * k) + 1,
          H.Returned (List.mem v final),
          horizon + (2 * k) + 2 ))
      (List.init key_range (fun i -> i + 1))
  in
  let history = H.of_list (seed_entries @ entries @ probes) in
  (invariants, Vbl_spec.Linearizability.check history)

let draw_op rng ~key_range ~update_percent : Vbl_spec.Set_model.op =
  let v = 1 + Vbl_util.Rng.int rng key_range in
  let roll = Vbl_util.Rng.int rng 100 in
  if roll < update_percent then
    if roll mod 2 = 0 then Vbl_spec.Set_model.Insert v else Vbl_spec.Set_model.Remove v
  else Vbl_spec.Set_model.Contains v

let apply (type s) (module S : Vbl_lists.Set_intf.S with type t = s) (t : s) :
    Vbl_spec.Set_model.op -> bool = function
  | Vbl_spec.Set_model.Insert v -> S.insert t v
  | Vbl_spec.Set_model.Remove v -> S.remove t v
  | Vbl_spec.Set_model.Contains v -> S.contains t v

let stress (impl : Vbl_lists.Registry.impl) ~domains ~ops_per_domain ~key_range
    ~update_percent ~seed =
  let module S = (val impl) in
  let t = S.create () in
  let master = Vbl_util.Rng.create ~seed () in
  let initial = ref [] in
  for v = 1 to key_range do
    if Vbl_util.Rng.bool master then
      if S.insert t v then initial := v :: !initial
  done;
  let recorder = H.Recorder.create () in
  let seeds = Array.init domains (fun _ -> Vbl_util.Rng.split master) in
  let worker d () =
    let rng = seeds.(d) in
    for _ = 1 to ops_per_domain do
      let op = draw_op rng ~key_range ~update_percent in
      ignore (H.Recorder.record recorder ~thread:d op (apply (module S) t))
    done
  in
  List.iter Domain.join (List.init domains (fun d -> Domain.spawn (worker d)));
  judge ~key_range ~initial:!initial ~invariants:(S.check_invariants t) ~final:(S.to_list t)
    recorder

(* The same run on the instrumented backend, deterministically: every
   shared access is one {!Vbl_sched.Exec} step and a seeded random
   scheduler picks which thread moves, so the seed fixes the whole
   interleaving — no dependence on host timing or preemption. *)
let interleaved (impl : Vbl_lists.Registry.impl) ~threads ~ops_per_thread ~key_range ~seed =
  let module S = (val impl) in
  let module Instr = Vbl_memops.Instr_mem in
  let module Exec = Vbl_sched.Exec in
  let rng = Vbl_util.Rng.create ~seed () in
  let t = Instr.run_sequential S.create in
  let initial = ref [] in
  for v = 1 to key_range do
    if Vbl_util.Rng.bool rng then
      if Instr.run_sequential (fun () -> S.insert t v) then initial := v :: !initial
  done;
  let recorder = H.Recorder.create () in
  let plans =
    Array.init threads (fun _ ->
        Array.init ops_per_thread (fun _ -> draw_op rng ~key_range ~update_percent:100))
  in
  let body d () =
    Array.iter
      (fun op -> ignore (H.Recorder.record recorder ~thread:d op (apply (module S) t)))
      plans.(d)
  in
  let ex = Exec.create (List.init threads body) in
  while not (Exec.finished ex) do
    let runnable = Exec.runnable_threads ex in
    Exec.step ex (List.nth runnable (Vbl_util.Rng.int rng (List.length runnable)))
  done;
  judge ~key_range ~initial:!initial
    ~invariants:(Instr.run_sequential (fun () -> S.check_invariants t))
    ~final:(Instr.run_sequential (fun () -> S.to_list t))
    recorder

let stress_ok name impl =
  Alcotest.test_case (name ^ ": stress is linearizable and intact") `Slow (fun () ->
      List.iteri
        (fun i (domains, ops_per_domain, key_range, update_percent) ->
          let invariants, linearizable =
            stress impl ~domains ~ops_per_domain ~key_range ~update_percent
              ~seed:(Int64.of_int (100 + i))
          in
          (match invariants with
          | Ok () -> ()
          | Error msg -> Alcotest.failf "config %d: invariants: %s" i msg);
          if not linearizable then Alcotest.failf "config %d: non-linearizable history" i)
        [ (4, 400, 8, 60); (4, 400, 64, 20); (2, 1000, 4, 100); (8, 150, 16, 40) ])

(* The canary: the checks above must be able to fail.  The unsynchronised
   sequential list, interleaved op by op, loses updates that the
   linearizability check or the invariants catch; the lazy list on the
   same interleavings is the control that the judge passes correct
   code. *)
let canary =
  Alcotest.test_case "sequential list is NOT safe under interleaving (canary)" `Quick
    (fun () ->
      let seeds = List.init 20 (fun i -> i + 1) in
      let broken impl seed =
        let invariants, linearizable =
          interleaved impl ~threads:3 ~ops_per_thread:8 ~key_range:4 ~seed:(Int64.of_int seed)
        in
        invariants <> Ok () || not linearizable
      in
      let module I = Vbl_memops.Instr_mem in
      let seq = (module Vbl_lists.Seq_list.Make (I) : Vbl_lists.Set_intf.S) in
      let module Lock = Vbl_lists.Lock_list.Make (I) in
      let control = (module Lock.Lazy : Vbl_lists.Set_intf.S) in
      if not (List.exists (broken seq) seeds) then
        Alcotest.fail
          "the unsynchronised sequential list survived 20 interleaved runs — the judge is \
           probably not detecting anything";
      match List.find_opt (broken control) seeds with
      | Some seed -> Alcotest.failf "the lazy-list control failed on seed %d" seed
      | None -> ())

let () =
  let concurrent =
    List.map
      (fun impl ->
        let module S = (val impl : Vbl_lists.Set_intf.S) in
        stress_ok S.name impl)
      Vbl_lists.Registry.concurrent
  in
  Alcotest.run "lists-concurrent" [ ("stress", concurrent @ [ canary ]) ]
