(* Tests for the skip-list extension: sequential semantics against the
   Set model, structural invariants at every level, domain stress with
   linearizability checking, and instrumented-backend determinism. *)

module IntSet = Set.Make (Int)

let impls = Vbl_skiplists.Registry.all

let unit_tests (impl : Vbl_skiplists.Registry.impl) =
  let module S = (val impl) in
  let mk name fn = Alcotest.test_case (S.name ^ ": " ^ name) `Quick fn in
  [
    mk "empty" (fun () ->
        let t = S.create () in
        Alcotest.(check bool) "contains" false (S.contains t 1);
        Alcotest.(check (list int)) "to_list" [] (S.to_list t));
    mk "insert/contains/remove cycle" (fun () ->
        let t = S.create () in
        Alcotest.(check bool) "insert" true (S.insert t 10);
        Alcotest.(check bool) "dup" false (S.insert t 10);
        Alcotest.(check bool) "present" true (S.contains t 10);
        Alcotest.(check bool) "remove" true (S.remove t 10);
        Alcotest.(check bool) "gone" false (S.contains t 10);
        Alcotest.(check bool) "re-remove" false (S.remove t 10));
    mk "many keys stay sorted" (fun () ->
        let t = S.create () in
        let keys = [ 41; 7; 99; 3; 55; 12; 68; 1; 88; 23 ] in
        List.iter (fun v -> ignore (S.insert t v)) keys;
        Alcotest.(check (list int)) "sorted" (List.sort compare keys) (S.to_list t);
        Alcotest.(check int) "size" 10 (S.size t));
    mk "levels hold invariants after churn" (fun () ->
        let t = S.create () in
        let rng = Vbl_util.Rng.create ~seed:5L () in
        for _ = 1 to 2_000 do
          let v = Vbl_util.Rng.in_range rng ~lo:0 ~hi:200 in
          match Vbl_util.Rng.int rng 3 with
          | 0 -> ignore (S.insert t v)
          | 1 -> ignore (S.remove t v)
          | _ -> ignore (S.contains t v)
        done;
        match S.check_invariants t with Ok () -> () | Error m -> Alcotest.fail m);
    mk "sentinel keys rejected" (fun () ->
        let t = S.create () in
        Alcotest.check_raises "min_int"
          (Invalid_argument "skip list: key must be strictly between min_int and max_int")
          (fun () -> ignore (S.insert t min_int)));
  ]

type op = Insert of int | Remove of int | Contains of int

let pp_op = function
  | Insert v -> Printf.sprintf "insert %d" v
  | Remove v -> Printf.sprintf "remove %d" v
  | Contains v -> Printf.sprintf "contains %d" v

let ops_gen =
  QCheck2.Gen.(
    list_size (int_range 0 200)
      (let* v = int_range (-25) 25 in
       oneofl [ Insert v; Remove v; Contains v ]))

let agrees_with_model (impl : Vbl_skiplists.Registry.impl) ops =
  let module S = (val impl) in
  let t = S.create () in
  let model = ref IntSet.empty in
  let step op =
    match op with
    | Insert v ->
        let expected = not (IntSet.mem v !model) in
        model := IntSet.add v !model;
        S.insert t v = expected
    | Remove v ->
        let expected = IntSet.mem v !model in
        model := IntSet.remove v !model;
        S.remove t v = expected
    | Contains v -> S.contains t v = IntSet.mem v !model
  in
  List.for_all step ops
  && S.to_list t = IntSet.elements !model
  && S.check_invariants t = Ok ()

let property_tests impl =
  let module S = (val impl : Vbl_lists.Set_intf.S) in
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:200
         ~name:(S.name ^ ": random ops agree with Set model")
         ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
         ops_gen (agrees_with_model impl));
  ]

(* Domain stress with full linearizability checking, mirroring
   test_lists_concurrent. *)
let stress (impl : Vbl_skiplists.Registry.impl) ~domains ~ops_per_domain ~key_range
    ~update_percent ~seed =
  let module S = (val impl) in
  let module H = Vbl_spec.History in
  let t = S.create () in
  let master = Vbl_util.Rng.create ~seed () in
  let initial = ref [] in
  for v = 1 to key_range do
    if Vbl_util.Rng.bool master then if S.insert t v then initial := v :: !initial
  done;
  let recorder = H.Recorder.create () in
  let seeds = Array.init domains (fun _ -> Vbl_util.Rng.split master) in
  let worker d () =
    let rng = seeds.(d) in
    for _ = 1 to ops_per_domain do
      let v = 1 + Vbl_util.Rng.int rng key_range in
      let roll = Vbl_util.Rng.int rng 100 in
      let op : Vbl_spec.Set_model.op =
        if roll < update_percent then
          if roll mod 2 = 0 then Vbl_spec.Set_model.Insert v else Vbl_spec.Set_model.Remove v
        else Vbl_spec.Set_model.Contains v
      in
      ignore
        (H.Recorder.record recorder ~thread:d op (fun op ->
             match op with
             | Vbl_spec.Set_model.Insert v -> S.insert t v
             | Vbl_spec.Set_model.Remove v -> S.remove t v
             | Vbl_spec.Set_model.Contains v -> S.contains t v))
    done
  in
  List.iter Domain.join (List.init domains (fun d -> Domain.spawn (worker d)));
  let invariants = S.check_invariants t in
  let final = S.to_list t in
  let entries =
    List.map
      (fun (o : H.operation) ->
        (o.thread, o.index, o.op, o.invoked_at, o.completion, o.returned_at))
      (H.operations (H.Recorder.history recorder))
  in
  let horizon = 1 + List.fold_left (fun acc (_, _, _, _, _, r) -> max acc r) 0 entries in
  let seed_entries =
    List.mapi
      (fun k v ->
        (1000 + k, 0, Vbl_spec.Set_model.Insert v, -2 * (k + 1), H.Returned true, (-2 * (k + 1)) + 1))
      (List.sort_uniq compare !initial)
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
  (invariants, Vbl_spec.Linearizability.check (H.of_list (seed_entries @ entries @ probes)))

let stress_tests =
  List.map
    (fun impl ->
      let module S = (val impl : Vbl_lists.Set_intf.S) in
      Alcotest.test_case (S.name ^ ": domain stress linearizable") `Slow (fun () ->
          List.iteri
            (fun i (domains, ops, range, update) ->
              let invariants, linearizable =
                stress impl ~domains ~ops_per_domain:ops ~key_range:range
                  ~update_percent:update ~seed:(Int64.of_int (50 + i))
              in
              (match invariants with
              | Ok () -> ()
              | Error msg -> Alcotest.failf "config %d: %s" i msg);
              if not linearizable then Alcotest.failf "config %d: non-linearizable" i)
            [ (4, 300, 8, 60); (4, 300, 64, 20); (2, 800, 4, 100) ]))
    impls

(* The instrumented backend runs skip lists too (the functor pays off):
   deterministic simulated runs. *)
let sim_tests =
  [
    Alcotest.test_case "instrumented skip lists are deterministic" `Quick (fun () ->
        let run () =
          let module S = Vbl_skiplists.Registry.Vbl_skip_i in
          Vbl_memops.Instr_mem.run_sequential (fun () ->
              let t = S.create () in
              for v = 1 to 50 do
                ignore (S.insert t v)
              done;
              for v = 1 to 50 do
                if v mod 3 = 0 then ignore (S.remove t v)
              done;
              S.to_list t)
        in
        Alcotest.(check (list int)) "same result" (run ()) (run ()));
    Alcotest.test_case "level generator is geometric-ish and capped" `Quick (fun () ->
        let g = Vbl_util.Level_gen.create () in
        let counts = Array.make (Vbl_util.Level_gen.max_level + 1) 0 in
        let n = 20_000 in
        for _ = 1 to n do
          let l = Vbl_util.Level_gen.next_level g in
          if l < 1 || l > Vbl_util.Level_gen.max_level then
            Alcotest.failf "level %d out of bounds" l;
          counts.(l) <- counts.(l) + 1
        done;
        (* About half the towers have height 1; between an eighth and a
           half height 2 (loose bounds: just rule out degenerate output). *)
        Alcotest.(check bool) "height-1 frequency sane" true
          (counts.(1) > n * 2 / 5 && counts.(1) < n * 3 / 5);
        Alcotest.(check bool) "tall towers rare" true (counts.(8) < n / 100));
    Alcotest.test_case "level generator draws splitmix64's first output per counter"
      `Quick (fun () ->
        (* The k-th draw of a fresh generator is one plus the trailing ones
           of the first output of a splitmix64 generator seeded with k,
           capped at max_level. *)
        let expected k =
          let z =
            Vbl_util.Rng.Splitmix.next (Vbl_util.Rng.Splitmix.create (Int64.of_int k))
          in
          let rec ones n z =
            if n + 1 >= Vbl_util.Level_gen.max_level || Int64.logand z 1L = 0L then n
            else ones (n + 1) (Int64.shift_right_logical z 1)
          in
          1 + ones 0 z
        in
        let g = Vbl_util.Level_gen.create () in
        for k = 1 to 10_000 do
          let l = Vbl_util.Level_gen.next_level g in
          if l <> expected k then
            Alcotest.failf "draw %d: height %d, expected %d" k l (expected k)
        done);
  ]

(* The lock-free skip list has no blocking waits at all, so the explorer
   can cover same-key races too. *)
let explore_tests =
  let config = { Vbl_sched.Explore.max_executions = 200_000; max_steps = 5_000 } in
  let lin_ok name initial ops =
    Alcotest.test_case ("lockfree-skiplist: " ^ name) `Slow (fun () ->
        let scenario =
          Vbl_sched.Drive.explore_scenario
            (module Vbl_skiplists.Registry.Lockfree_skip_i)
            ~initial ~ops
        in
        let r =
          Vbl_sched.Explore.run ~config
            ~strategy:(Vbl_sched.Explore.Dpor (Vbl_sched.Explore.preempt 2))
            scenario
        in
        Alcotest.(check bool) "not truncated" false r.Vbl_sched.Explore.truncated;
        match r.Vbl_sched.Explore.failure with
        | None -> ()
        | Some f -> Alcotest.failf "%a" Vbl_sched.Explore.pp_failure f)
  in
  [
    lin_ok "concurrent inserts" []
      [ Vbl_sched.Ll_abstract.insert 1; Vbl_sched.Ll_abstract.insert 2 ];
    lin_ok "same-key insert race" []
      [ Vbl_sched.Ll_abstract.insert 1; Vbl_sched.Ll_abstract.insert 1 ];
    lin_ok "remove vs reinsert" [ 1 ]
      [ Vbl_sched.Ll_abstract.remove 1; Vbl_sched.Ll_abstract.insert 1 ];
    lin_ok "double remove" [ 1 ]
      [ Vbl_sched.Ll_abstract.remove 1; Vbl_sched.Ll_abstract.remove 1 ];
  ]

(* Range-operation semantics (Set_intf.Derive over the bottom level, so
   the family-wide best-effort contract) and a 3-thread range-query
   exploration on the versioned-lock variant — bounded scope, see the
   Derive ABA canary in test_lists_seq.ml. *)
let range_tests (impl : Vbl_skiplists.Registry.impl) =
  let module S = (val impl) in
  let mk name fn = Alcotest.test_case (S.name ^ ": " ^ name) `Quick fn in
  [
    mk "range edge cases" (fun () ->
        let t = S.create () in
        Alcotest.(check (list int)) "empty" [] (S.range_query t min_int max_int);
        List.iter (fun v -> ignore (S.insert t v)) [ 1; 3; 5; 7 ];
        Alcotest.(check (list int)) "inverted bounds" [] (S.range_query t 5 3);
        Alcotest.(check (list int)) "inclusive bounds" [ 3; 5 ] (S.range_query t 3 5);
        Alcotest.(check (list int)) "straddling bounds" [ 3; 5 ] (S.range_query t 2 6);
        Alcotest.(check (list int)) "singleton hit" [ 7 ] (S.range_query t 7 7);
        Alcotest.(check (list int)) "gap" [] (S.range_query t 4 4);
        Alcotest.(check (list int)) "full range equals to_list" (S.to_list t)
          (S.range_query t min_int max_int));
    mk "iter and approx_size agree with fold" (fun () ->
        let t = S.create () in
        List.iter (fun v -> ignore (S.insert t v)) [ 2; 9; 4 ];
        let seen = ref [] in
        S.iter (fun v -> seen := v :: !seen) t;
        Alcotest.(check (list int)) "iter ascending" [ 2; 4; 9 ] (List.rev !seen);
        Alcotest.(check int) "approx_size" 3 (S.approx_size t));
  ]

let range_explore_tests =
  let config = { Vbl_sched.Explore.max_executions = 200_000; max_steps = 5_000 } in
  let range_ok name impl initial range ops =
    Alcotest.test_case (name ^ ": range query linearizable") `Slow (fun () ->
        let scenario = Vbl_sched.Drive.explore_range_scenario impl ~initial ~range ~ops in
        let r =
          Vbl_sched.Explore.run ~config
            ~strategy:(Vbl_sched.Explore.Dpor (Vbl_sched.Explore.preempt 2))
            scenario
        in
        Alcotest.(check bool) "not truncated" false r.Vbl_sched.Explore.truncated;
        match r.Vbl_sched.Explore.failure with
        | None -> ()
        | Some f -> Alcotest.failf "%a" Vbl_sched.Explore.pp_failure f)
  in
  [
    range_ok "vbl-skiplist"
      (module Vbl_skiplists.Registry.Vbl_skip_i)
      [ 1; 3 ] (1, 3)
      [ [ Vbl_sched.Ll_abstract.remove 1 ]; [ Vbl_sched.Ll_abstract.insert 2 ] ];
    (* No remove for the lazy variant: a parked remover leaves its victim
       marked and an insert validating against it retries unboundedly
       (the same loop the directed suite pins as a rejection), which the
       explorer would flag as a step-limit livelock. *)
    range_ok "lazy-skiplist"
      (module Vbl_skiplists.Registry.Lazy_skip_i)
      [ 2 ] (1, 3)
      [ [ Vbl_sched.Ll_abstract.insert 1 ]; [ Vbl_sched.Ll_abstract.insert 3 ] ];
  ]

let () =
  Alcotest.run "skiplists"
    (List.map
       (fun impl ->
         let module S = (val impl : Vbl_lists.Set_intf.S) in
         (S.name, unit_tests impl @ range_tests impl @ property_tests impl))
       impls
    @ [
        ("stress", stress_tests);
        ("sim", sim_tests);
        ("explore", explore_tests);
        ("range explore", range_explore_tests);
      ])
