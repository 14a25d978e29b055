(* Sequential semantics of every list algorithm: each must behave exactly
   like a reference Stdlib.Set when driven single-threaded, and must keep
   its structural invariants after every operation.  Property-based tests
   drive random operation sequences against the model. *)

let impls = Vbl_lists.Registry.all

let unit_tests (impl : Vbl_lists.Registry.impl) =
  let module S = (val impl) in
  let mk name fn = Alcotest.test_case (S.name ^ ": " ^ name) `Quick fn in
  [
    mk "empty set contains nothing" (fun () ->
        let t = S.create () in
        Alcotest.(check bool) "contains 1" false (S.contains t 1);
        Alcotest.(check (list int)) "to_list" [] (S.to_list t);
        Alcotest.(check int) "size" 0 (S.size t));
    mk "insert then contains" (fun () ->
        let t = S.create () in
        Alcotest.(check bool) "first insert" true (S.insert t 42);
        Alcotest.(check bool) "present" true (S.contains t 42);
        Alcotest.(check bool) "absent" false (S.contains t 41));
    mk "duplicate insert fails" (fun () ->
        let t = S.create () in
        Alcotest.(check bool) "first" true (S.insert t 7);
        Alcotest.(check bool) "second" false (S.insert t 7);
        Alcotest.(check int) "size stays 1" 1 (S.size t));
    mk "remove present" (fun () ->
        let t = S.create () in
        ignore (S.insert t 5);
        Alcotest.(check bool) "removed" true (S.remove t 5);
        Alcotest.(check bool) "gone" false (S.contains t 5);
        Alcotest.(check bool) "second remove" false (S.remove t 5));
    mk "remove absent fails" (fun () ->
        let t = S.create () in
        Alcotest.(check bool) "remove on empty" false (S.remove t 3);
        ignore (S.insert t 1);
        Alcotest.(check bool) "remove other" false (S.remove t 2));
    mk "keeps ascending order" (fun () ->
        let t = S.create () in
        List.iter (fun v -> ignore (S.insert t v)) [ 5; 1; 9; 3; 7 ];
        Alcotest.(check (list int)) "sorted" [ 1; 3; 5; 7; 9 ] (S.to_list t));
    mk "insert at both ends" (fun () ->
        let t = S.create () in
        ignore (S.insert t 10);
        ignore (S.insert t (-1000));
        ignore (S.insert t 1000);
        Alcotest.(check (list int)) "ends" [ -1000; 10; 1000 ] (S.to_list t));
    mk "negative and zero keys" (fun () ->
        let t = S.create () in
        List.iter (fun v -> ignore (S.insert t v)) [ 0; -5; 5 ];
        Alcotest.(check bool) "has 0" true (S.contains t 0);
        Alcotest.(check bool) "has -5" true (S.contains t (-5));
        Alcotest.(check (list int)) "order" [ -5; 0; 5 ] (S.to_list t));
    mk "remove head/middle/tail element" (fun () ->
        let t = S.create () in
        List.iter (fun v -> ignore (S.insert t v)) [ 1; 2; 3; 4; 5 ];
        Alcotest.(check bool) "head" true (S.remove t 1);
        Alcotest.(check bool) "middle" true (S.remove t 3);
        Alcotest.(check bool) "tail" true (S.remove t 5);
        Alcotest.(check (list int)) "rest" [ 2; 4 ] (S.to_list t));
    mk "reinsert after remove" (fun () ->
        let t = S.create () in
        ignore (S.insert t 8);
        ignore (S.remove t 8);
        Alcotest.(check bool) "reinsert" true (S.insert t 8);
        Alcotest.(check bool) "present" true (S.contains t 8));
    mk "sentinel keys rejected" (fun () ->
        let t = S.create () in
        Alcotest.check_raises "insert min_int" (Invalid_argument
          "list-based set: key must be strictly between min_int and max_int")
          (fun () -> ignore (S.insert t min_int));
        Alcotest.check_raises "remove max_int" (Invalid_argument
          "list-based set: key must be strictly between min_int and max_int")
          (fun () -> ignore (S.remove t max_int));
        Alcotest.check_raises "contains min_int" (Invalid_argument
          "list-based set: key must be strictly between min_int and max_int")
          (fun () -> ignore (S.contains t min_int)));
    mk "invariants hold after workout" (fun () ->
        let t = S.create () in
        let rng = Vbl_util.Rng.create ~seed:11L () in
        for _ = 1 to 500 do
          let v = Vbl_util.Rng.in_range rng ~lo:0 ~hi:50 in
          match Vbl_util.Rng.int rng 3 with
          | 0 -> ignore (S.insert t v)
          | 1 -> ignore (S.remove t v)
          | _ -> ignore (S.contains t v)
        done;
        match S.check_invariants t with
        | Ok () -> ()
        | Error msg -> Alcotest.fail msg);
  ]

(* Model-based property: a random operation sequence must agree with
   Stdlib.Set at every step, and to_list must match the model at the end. *)
module IntSet = Set.Make (Int)

type op = Insert of int | Remove of int | Contains of int

let op_gen range =
  QCheck2.Gen.(
    let* v = int_range (-range) range in
    oneofl [ Insert v; Remove v; Contains v ])

let pp_op = function
  | Insert v -> Printf.sprintf "insert %d" v
  | Remove v -> Printf.sprintf "remove %d" v
  | Contains v -> Printf.sprintf "contains %d" v

let ops_gen = QCheck2.Gen.(list_size (int_range 0 200) (op_gen 25))

let agrees_with_model (impl : Vbl_lists.Registry.impl) ops =
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
  && S.size t = IntSet.cardinal !model
  && S.check_invariants t = Ok ()

let property_tests (impl : Vbl_lists.Registry.impl) =
  let module S = (val impl) in
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:300
         ~name:(S.name ^ ": random ops agree with Set model")
         ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
         ops_gen
         (agrees_with_model impl));
  ]

(* Set_intf.Derive semantics, pinned against a scripted base whose
   successive window collections replay fixed views (the last view
   repeats once the script runs out), filtered to the asked window and
   consed through [Set_intf.keep] as every family's collector conses,
   and which records every window it is asked for.  The first case is the reason the
   derived range_query documents a best-effort contract for every family:
   agreement of two collections is not a snapshot certificate, because
   an ABA toggle between them restores agreement.  test_spec.ml holds
   the matching Multikey rejection of the full history. *)
module Scripted = struct
  type t = { mutable views : int list list; mutable windows : (int * int) list }

  let make views = { views; windows = [] }

  let collect_range lo hi acc t =
    t.windows <- (lo, hi) :: t.windows;
    let view =
      match t.views with
      | [] -> []
      | [ v ] -> v
      | v :: rest ->
          t.views <- rest;
          v
    in
    List.fold_left
      (fun acc v -> if lo <= v && v <= hi then Vbl_lists.Set_intf.keep v acc else acc)
      acc view
end

module Scripted_range = Vbl_lists.Set_intf.Derive (Scripted)

let derive_tests =
  [
    Alcotest.test_case "agreement is not a snapshot certificate (ABA)" `Quick
      (fun () ->
        (* With initial {1} and an updater running remove 1; insert 2;
           remove 2; insert 1; remove 1; insert 2 across the two
           collections, each traversal reads 1 before a toggle and 2
           after one, so both collect [1; 2] — a window {1, 2} that no
           instant ever contained — and the query accepts it. *)
        let t = Scripted.make [ [ 1; 2 ]; [ 1; 2 ] ] in
        Alcotest.(check (list int))
          "torn view accepted" [ 1; 2 ]
          (Scripted_range.range_query t 1 2));
    Alcotest.test_case "disagreement retries until stable" `Quick (fun () ->
        let t = Scripted.make [ [ 1 ]; [ 2 ]; [ 2 ] ] in
        Alcotest.(check (list int))
          "stable view" [ 2 ]
          (Scripted_range.range_query t 0 5));
    Alcotest.test_case "budget exhaustion returns the last collection" `Quick
      (fun () ->
        (* Views alternate forever, so no two successive collections
           agree; after the 64-retry budget the query surrenders and
           returns the last collection (the documented, deliberately
           unsurfaced degradation). *)
        let t =
          Scripted.make (List.init 68 (fun i -> if i mod 2 = 0 then [ 1 ] else [ 2 ]))
        in
        Alcotest.(check (list int))
          "last collection" [ 2 ]
          (Scripted_range.range_query t 0 5);
        Alcotest.(check int) "two collections plus 64 retries" 66
          (List.length t.Scripted.windows));
    Alcotest.test_case "collections filter to the window" `Quick (fun () ->
        let t = Scripted.make [ [ 1; 3; 5; 7 ] ] in
        Alcotest.(check (list int))
          "window" [ 3; 5 ]
          (Scripted_range.range_query t 2 6);
        Alcotest.(check (list (pair int int)))
          "two collections of [2, 6]" [ (2, 6); (2, 6) ] t.Scripted.windows;
        t.Scripted.windows <- [];
        Alcotest.(check int) "approx_size" 4 (Scripted_range.approx_size t);
        Alcotest.(check (list int)) "to_list" [ 1; 3; 5; 7 ] (Scripted_range.to_list t);
        Alcotest.(check (list (pair int int)))
          "whole-set traversals ask for [min_int, max_int]"
          [ (min_int, max_int); (min_int, max_int) ]
          t.Scripted.windows;
        t.Scripted.windows <- [];
        Alcotest.(check (list int)) "inverted bounds" [] (Scripted_range.range_query t 5 3);
        Alcotest.(check int) "inverted bounds never traverse" 0
          (List.length t.Scripted.windows));
  ]

let () =
  Alcotest.run "lists-sequential"
    (List.map
       (fun impl ->
         let module S = (val impl : Vbl_lists.Set_intf.S) in
         (S.name, unit_tests impl @ property_tests impl))
       impls
    @ [ ("derive", derive_tests) ])
