(* Tests for the external BST extension: sequential semantics against the
   Set model, structural invariants, bounded model checking through the
   generic explorer, and real-domain stress with linearizability. *)

module IntSet = Set.Make (Int)

let impls = Vbl_trees.Registry.all

let unit_tests (impl : Vbl_trees.Registry.impl) =
  let module S = (val impl) in
  let mk name fn = Alcotest.test_case (S.name ^ ": " ^ name) `Quick fn in
  [
    mk "empty" (fun () ->
        let t = S.create () in
        Alcotest.(check bool) "contains" false (S.contains t 1);
        Alcotest.(check (list int)) "to_list" [] (S.to_list t);
        Alcotest.(check bool) "invariants" true (S.check_invariants t = Ok ()));
    mk "insert then contains" (fun () ->
        let t = S.create () in
        Alcotest.(check bool) "insert" true (S.insert t 42);
        Alcotest.(check bool) "dup" false (S.insert t 42);
        Alcotest.(check bool) "present" true (S.contains t 42);
        Alcotest.(check bool) "absent" false (S.contains t 41));
    mk "remove down to empty and refill" (fun () ->
        let t = S.create () in
        List.iter (fun v -> ignore (S.insert t v)) [ 5; 2; 8 ];
        Alcotest.(check bool) "rm 2" true (S.remove t 2);
        Alcotest.(check bool) "rm 5" true (S.remove t 5);
        Alcotest.(check bool) "rm 8" true (S.remove t 8);
        Alcotest.(check (list int)) "empty" [] (S.to_list t);
        Alcotest.(check bool) "refill" true (S.insert t 7);
        Alcotest.(check (list int)) "again" [ 7 ] (S.to_list t);
        Alcotest.(check bool) "invariants" true (S.check_invariants t = Ok ()));
    mk "ascending/descending insertions stay ordered" (fun () ->
        let t = S.create () in
        for v = 1 to 50 do
          ignore (S.insert t v)
        done;
        let u = S.create () in
        for v = 50 downto 1 do
          ignore (S.insert u v)
        done;
        let expected = List.init 50 (fun i -> i + 1) in
        Alcotest.(check (list int)) "asc" expected (S.to_list t);
        Alcotest.(check (list int)) "desc" expected (S.to_list u);
        Alcotest.(check bool) "inv asc" true (S.check_invariants t = Ok ());
        Alcotest.(check bool) "inv desc" true (S.check_invariants u = Ok ()));
    mk "negative keys" (fun () ->
        let t = S.create () in
        List.iter (fun v -> ignore (S.insert t v)) [ -5; 0; 5; -50 ];
        Alcotest.(check (list int)) "sorted" [ -50; -5; 0; 5 ] (S.to_list t);
        Alcotest.(check bool) "rm -5" true (S.remove t (-5));
        Alcotest.(check (list int)) "after" [ -50; 0; 5 ] (S.to_list t));
    mk "sentinel keys rejected" (fun () ->
        let t = S.create () in
        Alcotest.check_raises "min_int"
          (Invalid_argument "bst: key must be strictly between min_int and max_int")
          (fun () -> ignore (S.insert t min_int)));
  ]

(* Range-operation semantics, derived for every implementation from its
   pruned, presence-aware window fold (Set_intf.Derive). *)
let range_tests (impl : Vbl_trees.Registry.impl) =
  let module S = (val impl) in
  let mk name fn = Alcotest.test_case (S.name ^ ": " ^ name) `Quick fn in
  [
    mk "range edge cases" (fun () ->
        let t = S.create () in
        Alcotest.(check (list int)) "empty tree" [] (S.range_query t min_int max_int);
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

(* Deterministic walks through each shape [Vbl_bst]'s splice handles:
   a leaf, a node with only a left or only a right child (its child
   takes its slot), and a two-child node that stays as a routing node
   until an insert revives it.  Every step checks the contents,
   membership of every key in range, and the invariants. *)
let vbl_bst_shape_tests =
  let module S = Vbl_trees.Registry.Vbl_bst_impl in
  let expect t present =
    Alcotest.(check (list int)) "to_list" present (S.to_list t);
    for v = 0 to 10 do
      Alcotest.(check bool)
        (Printf.sprintf "contains %d" v)
        (List.mem v present) (S.contains t v)
    done;
    Alcotest.(check bool) "invariants" true (S.check_invariants t = Ok ())
  in
  let grown keys =
    let t = S.create () in
    List.iter
      (fun v -> Alcotest.(check bool) (Printf.sprintf "insert %d" v) true (S.insert t v))
      keys;
    expect t (List.sort compare keys);
    t
  in
  let op what f t v expected present =
    Alcotest.(check bool) (Printf.sprintf "%s %d" what v) expected (f t v);
    expect t present
  in
  let remove = op "remove" S.remove and insert = op "insert" S.insert in
  let mk name fn = Alcotest.test_case ("vbl-bst: " ^ name) `Quick fn in
  [
    mk "removing a leaf splices it out" (fun () ->
        let t = grown [ 5; 3; 8 ] in
        remove t 3 true [ 5; 8 ];
        remove t 3 false [ 5; 8 ];
        insert t 3 true [ 3; 5; 8 ];
        remove t 8 true [ 3; 5 ]);
    mk "a left-only node's subtree takes its slot" (fun () ->
        let t = grown [ 5; 3; 2; 1 ] in
        remove t 3 true [ 1; 2; 5 ];
        remove t 2 true [ 1; 5 ];
        insert t 2 true [ 1; 2; 5 ]);
    mk "a right-only node's subtree takes its slot" (fun () ->
        let t = grown [ 5; 3; 4; 6; 7 ] in
        remove t 3 true [ 4; 5; 6; 7 ];
        remove t 6 true [ 4; 5; 7 ];
        insert t 6 true [ 4; 5; 6; 7 ]);
    mk "a two-child node stays as a router until an insert revives it" (fun () ->
        let t = grown [ 5; 3; 2; 4 ] in
        remove t 3 true [ 2; 4; 5 ];
        remove t 3 false [ 2; 4; 5 ];
        insert t 3 true [ 2; 3; 4; 5 ];
        insert t 3 false [ 2; 3; 4; 5 ];
        remove t 2 true [ 3; 4; 5 ];
        remove t 4 true [ 3; 5 ];
        remove t 3 true [ 5 ]);
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

let agrees_with_model (impl : Vbl_trees.Registry.impl) ops =
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

(* Bounded model checking through the generic explorer glue. *)
let explore_tests =
  let config = { Vbl_sched.Explore.max_executions = 200_000; max_steps = 5_000 } in
  let lin_ok name impl initial ops =
    Alcotest.test_case (name ^ ": interleavings linearizable") `Slow (fun () ->
        let scenario = Vbl_sched.Drive.explore_scenario impl ~initial ~ops in
        let r = Vbl_sched.Explore.run ~config scenario in
        Alcotest.(check bool) "not truncated" false r.Vbl_sched.Explore.truncated;
        match r.Vbl_sched.Explore.failure with
        | None -> ()
        | Some f -> Alcotest.failf "%a" Vbl_sched.Explore.pp_failure f)
  in
  let vbl = (module Vbl_trees.Registry.Vbl_bst_i : Vbl_lists.Set_intf.S) in
  let coarse = (module Vbl_trees.Registry.Coarse_bst_i : Vbl_lists.Set_intf.S) in
  [
    lin_ok "vbl-bst inserts" vbl [] [ Vbl_sched.Ll_abstract.insert 1; Vbl_sched.Ll_abstract.insert 2 ];
    lin_ok "vbl-bst insert vs remove" vbl [ 2 ]
      [ Vbl_sched.Ll_abstract.insert 1; Vbl_sched.Ll_abstract.remove 2 ];
    lin_ok "vbl-bst removes" vbl [ 1; 2 ]
      [ Vbl_sched.Ll_abstract.remove 1; Vbl_sched.Ll_abstract.remove 2 ];
    lin_ok "vbl-bst same-key insert/remove" vbl [ 1 ]
      [ Vbl_sched.Ll_abstract.remove 1; Vbl_sched.Ll_abstract.insert 1 ];
    lin_ok "vbl-bst contains during remove" vbl [ 1 ]
      [ Vbl_sched.Ll_abstract.remove 1; Vbl_sched.Ll_abstract.contains 1 ];
    lin_ok "vbl-bst remove last leaf race" vbl [ 3 ]
      [ Vbl_sched.Ll_abstract.remove 3; Vbl_sched.Ll_abstract.insert 5 ];
    lin_ok "coarse-bst inserts" coarse []
      [ Vbl_sched.Ll_abstract.insert 1; Vbl_sched.Ll_abstract.insert 2 ];
    Alcotest.test_case "sequential-bst caught by the explorer (canary)" `Slow (fun () ->
        (* Both inserts race on the empty tree's single leaf slot. *)
        let scenario =
          Vbl_sched.Drive.explore_scenario
            (module Vbl_trees.Registry.Seq_bst_i)
            ~initial:[]
            ~ops:[ Vbl_sched.Ll_abstract.insert 1; Vbl_sched.Ll_abstract.insert 3 ]
        in
        let r = Vbl_sched.Explore.run ~config scenario in
        match r.Vbl_sched.Explore.failure with
        | Some _ -> ()
        | None -> Alcotest.fail "expected the unsynchronised BST to fail");
  ]

(* Range queries under exploration: the range thread races mutator
   threads and the whole-state Multikey checker judges every
   interleaving (Drive.explore_range_scenario).  Bounded scope: these
   scenarios make at most two updates, far from the six-update ABA
   toggle that defeats the derived double-collect (see the Derive canary
   in test_lists_seq.ml).  The two-update scenarios with one thread pin
   what the double-collect does filter. *)
let range_explore_tests =
  let config = { Vbl_sched.Explore.max_executions = 200_000; max_steps = 5_000 } in
  let range_ok ?(config = config) name impl initial range ops =
    Alcotest.test_case (name ^ ": range query linearizable") `Slow (fun () ->
        let scenario = Vbl_sched.Drive.explore_range_scenario impl ~initial ~range ~ops in
        let r = Vbl_sched.Explore.run ~config scenario in
        Alcotest.(check bool) "not truncated" false r.Vbl_sched.Explore.truncated;
        match r.Vbl_sched.Explore.failure with
        | None -> ()
        | Some f -> Alcotest.failf "%a" Vbl_sched.Explore.pp_failure f)
  in
  let module L = Vbl_sched.Ll_abstract in
  let small = { config with Vbl_sched.Explore.max_executions = 64 } in
  [
    range_ok "vbl-bst"
      (module Vbl_trees.Registry.Vbl_bst_i)
      [ 1; 3 ] (1, 3)
      [ [ L.remove 1 ]; [ L.insert 2 ] ];
    range_ok "coarse-bst"
      (module Vbl_trees.Registry.Coarse_bst_i)
      [ 2 ] (1, 3)
      [ [ L.insert 1 ]; [ L.remove 2 ] ];
    (* The external trees' routers are what the pruned descent skips:
       removing 1 splices its router while inserting 2 grows one. *)
    range_ok "lazy-bst"
      (module Vbl_trees.Registry.Lazy_bst_i)
      [ 1; 3 ] (1, 3)
      [ [ L.remove 1 ]; [ L.insert 2 ] ];
    range_ok "lockfree-bst"
      (module Vbl_trees.Registry.Lockfree_bst_i)
      [ 1; 3 ] (1, 3)
      [ [ L.remove 1 ]; [ L.insert 2 ] ];
    (* The window [3, 3] sits below node 2, which the remove splices out
       while the insert tries to link 1 under it. *)
    range_ok "vbl-bst spliced ancestor"
      (module Vbl_trees.Registry.Vbl_bst_i)
      [ 2; 3 ] (3, 3)
      [ [ L.remove 2 ]; [ L.insert 1 ] ];
    (* One thread removes 1, then inserts 4.  A single collecting pass
       that reads 1 before the remove and 4 after the insert returns
       [1; 2; 3; 4], a window no instant contained; the second
       collection disagrees and the query collects again.  A single-pass
       range_query fails this case.  Node 2 is the root. *)
    range_ok ~config:small "vbl-bst remove 1; insert 4"
      (module Vbl_trees.Registry.Vbl_bst_i)
      [ 2; 1; 3 ] (1, 4)
      [ [ L.remove 1; L.insert 4 ] ];
    (* One thread removes 2 and re-inserts it: the re-insertion lands
       where a walk that has just yielded 2 goes next. *)
    range_ok ~config:small "vbl-bst remove 2; insert 2"
      (module Vbl_trees.Registry.Vbl_bst_i)
      [ 1; 2; 3 ] (1, 3)
      [ [ L.remove 2; L.insert 2 ] ];
    range_ok ~config:small "lazy-bst remove 2; insert 2"
      (module Vbl_trees.Registry.Lazy_bst_i)
      [ 1; 2; 3 ] (1, 3)
      [ [ L.remove 2; L.insert 2 ] ];
    range_ok ~config:small "lockfree-bst remove 2; insert 2"
      (module Vbl_trees.Registry.Lockfree_bst_i)
      [ 1; 2; 3 ] (1, 3)
      [ [ L.remove 2; L.insert 2 ] ];
    Alcotest.test_case "sequential-bst range caught (canary)" `Slow (fun () ->
        let scenario =
          Vbl_sched.Drive.explore_range_scenario
            (module Vbl_trees.Registry.Seq_bst_i)
            ~initial:[] ~range:(1, 3)
            ~ops:[ [ L.insert 1 ]; [ L.insert 3 ] ]
        in
        let r = Vbl_sched.Explore.run ~config scenario in
        match r.Vbl_sched.Explore.failure with
        | Some (Vbl_sched.Explore.Invariant_broken _) -> ()
        | Some f -> Alcotest.failf "unexpected failure: %a" Vbl_sched.Explore.pp_failure f
        | None -> Alcotest.fail "expected the unsynchronised BST range to fail");
  ]

(* Real-domain stress with linearizability (same harness as the lists). *)
let stress (impl : Vbl_trees.Registry.impl) ~domains ~ops_per_domain ~key_range ~update_percent
    ~seed =
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
                  ~update_percent:update ~seed:(Int64.of_int (70 + i))
              in
              (match invariants with
              | Ok () -> ()
              | Error msg -> Alcotest.failf "config %d: %s" i msg);
              if not linearizable then Alcotest.failf "config %d: non-linearizable" i)
            [ (4, 300, 8, 60); (4, 300, 64, 20); (2, 800, 4, 100); (8, 150, 16, 40) ]))
    Vbl_trees.Registry.concurrent

let () =
  Alcotest.run "trees"
    (List.map
       (fun impl ->
         let module S = (val impl : Vbl_lists.Set_intf.S) in
         (S.name, unit_tests impl @ range_tests impl @ property_tests impl))
       impls
    @ [
        ("vbl-bst shapes", vbl_bst_shape_tests);
        ("explore", explore_tests);
        ("range explore", range_explore_tests);
        ("stress", stress_tests);
      ])
