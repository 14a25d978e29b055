(* Tests for the memory backends: Real_mem semantics, Instr_mem semantics
   under a sequential handler, and the exactness of the instrumentation
   (every access yields exactly one effect, in program order). *)

module Real = Vbl_memops.Real_mem
module Instr = Vbl_memops.Instr_mem

(* A link is its node's first field on the real backend; [after] is
   the field that a misplaced access would hit. *)
type real_node = { succ : string Real.link; after : string }

(* A key is its node's second field on the real backend; [first] and
   [third] are the fields that a misplaced store would hit. *)
type keyed_node = { first : string Real.link; k : int Real.key; third : int }

let real_tests =
  [
    Alcotest.test_case "links live in their node's first field" `Quick (fun () ->
        let a = "a" and b = String.make 1 'a' in
        let n = { succ = Real.link "x" ".next" ~line:0 a; after = "z" } in
        let next_of n = n.succ in
        Alcotest.(check string) "get" "a" (Real.get_link n next_of);
        Alcotest.(check bool) "cas on physical equality" false (Real.cas_link n next_of b "c");
        Alcotest.(check bool) "cas" true (Real.cas_link n next_of a "c");
        Real.set_link n next_of "d";
        Alcotest.(check string) "after set" "d" (Real.get_link n next_of);
        Alcotest.(check string) "second field untouched" "z" n.after);
    Alcotest.test_case "keys live in their node's second field" `Quick (fun () ->
        let n =
          { first = Real.link "x" ".next" ~line:0 "a"; k = Real.key "x" ".val" ~line:0 4; third = 9 }
        in
        let key_of n = n.k in
        Alcotest.(check int) "get" 4 (Real.get_key n.k);
        Real.set_key n key_of 6;
        Alcotest.(check int) "after set" 6 (Real.get_key n.k);
        Alcotest.(check string) "first field untouched" "a" (Real.get_link n (fun n -> n.first));
        Alcotest.(check int) "third field untouched" 9 n.third);
    Alcotest.test_case "cells hold values" `Quick (fun () ->
        let c = Real.make ~line:(Real.fresh_line ()) 7 in
        Alcotest.(check int) "get" 7 (Real.get c);
        Real.set c 9;
        Alcotest.(check int) "after set" 9 (Real.get c));
    Alcotest.test_case "cas uses physical equality" `Quick (fun () ->
        let a = ref 1 and b = ref 1 in
        let c = Real.make ~line:0 a in
        Alcotest.(check bool) "wrong witness" false (Real.cas c b a);
        Alcotest.(check bool) "right witness" true (Real.cas c a b);
        Alcotest.(check bool) "stale witness" false (Real.cas c a a));
    Alcotest.test_case "locks exclude" `Quick (fun () ->
        let l = Real.make_lock ~line:0 () in
        Alcotest.(check bool) "free" false (Real.lock_held l);
        Alcotest.(check bool) "try" true (Real.try_lock l);
        Alcotest.(check bool) "held" true (Real.lock_held l);
        Alcotest.(check bool) "try again" false (Real.try_lock l);
        Real.unlock l;
        Alcotest.(check bool) "released" false (Real.lock_held l));
    Alcotest.test_case "field cells and locks behave like unnamed ones" `Quick (fun () ->
        let c = Real.field "x" ".val" ~line:0 7 in
        Alcotest.(check int) "get" 7 (Real.get c);
        let l = Real.field_lock "x" ".lock" ~line:0 () in
        Alcotest.(check bool) "try" true (Real.try_lock l);
        Alcotest.(check bool) "held" true (Real.lock_held l);
        Real.unlock l);
    Alcotest.test_case "instrumentation hooks are no-ops" `Quick (fun () ->
        Real.touch ~line:3 ~name:"x";
        Real.new_node ~name:"x" ~line:3);
  ]

(* The access stream of [f] — kind, name and line of every step — via a
   deep handler that resumes each access at once. *)
let access_stream f =
  let log = ref [] in
  Effect.Deep.match_with f ()
    {
      retc = Fun.id;
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Instr.Access a ->
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  log := (Format.asprintf "%a" Instr.pp_kind a.Instr.kind, a.name, a.line) :: !log;
                  Effect.Deep.continue k ())
          | _ -> None);
    };
  List.rev !log

type linked = { next : int Instr.link }

type keyed = { nx : int Instr.link; key : int Instr.key }

let instr_tests =
  [
    Alcotest.test_case "run_sequential resumes every access" `Quick (fun () ->
        let r =
          Instr.run_sequential (fun () ->
              let c = Instr.make ~name:"c" ~line:(Instr.fresh_line ()) 1 in
              Instr.set c 2;
              let read = Instr.get c in
              let cas_bonus = if Instr.cas c 2 5 then 10 else 0 in
              read + cas_bonus)
        in
        Alcotest.(check int) "result" 12 r);
    Alcotest.test_case "cas semantics mirror the real backend" `Quick (fun () ->
        Instr.run_sequential (fun () ->
            let a = ref 1 and b = ref 1 in
            let c = Instr.make ~name:"c" ~line:0 a in
            Alcotest.(check bool) "wrong witness" false (Instr.cas c b a);
            Alcotest.(check bool) "right witness" true (Instr.cas c a b)));
    Alcotest.test_case "locks work sequentially" `Quick (fun () ->
        Instr.run_sequential (fun () ->
            let l = Instr.make_lock ~name:"l" ~line:0 () in
            Instr.lock l;
            Alcotest.(check bool) "held" true (Instr.lock_held l);
            Alcotest.(check bool) "try fails" false (Instr.try_lock l);
            Instr.unlock l;
            Alcotest.(check bool) "free" false (Instr.lock_held l);
            Alcotest.(check bool) "retake" true (Instr.try_lock l);
            Instr.unlock l));
    Alcotest.test_case "fresh lines are distinct" `Quick (fun () ->
        let a = Instr.fresh_line () and b = Instr.fresh_line () in
        Alcotest.(check bool) "distinct" true (a <> b));
    Alcotest.test_case "effects arrive in program order with names" `Quick (fun () ->
        Alcotest.(check (list (pair string string)))
          "stream"
          [
            ("R", "x.val");
            ("W", "x.val");
            ("CAS", "x.val");
            ("touch", "x.pair");
            ("new", "x");
            ("R", "x.next");
            ("trylock", "x.lock");
          ]
          (List.map
             (fun (k, n, _) -> (k, n))
             (access_stream (fun () ->
                  let line = Instr.fresh_line () in
                  let c = Instr.make ~name:"x.val" ~line 1 in
                  ignore (Instr.get c);
                  Instr.set c 2;
                  ignore (Instr.cas c 2 3);
                  Instr.touch ~line ~name:"x.pair";
                  Instr.new_node ~name:"x" ~line;
                  ignore (Instr.get (Instr.field "x" ".next" ~line 0));
                  ignore (Instr.try_lock (Instr.field_lock "x" ".lock" ~line ()))))));
    Alcotest.test_case "a link access is one step named node ^ suffix" `Quick (fun () ->
        (* The instrumented link is the cell [field] makes, reached through
           the accessor: each access one step on the node's line. *)
        let line = Instr.fresh_line () in
        Alcotest.(check (list (triple string string int)))
          "stream"
          [ ("R", "x.next", line); ("W", "x.next", line); ("CAS", "x.next", line) ]
          (access_stream (fun () ->
               let node = { next = Instr.link "x" ".next" ~line 0 } in
               let next_of n = n.next in
               ignore (Instr.get_link node next_of);
               Instr.set_link node next_of 2;
               ignore (Instr.cas_link node next_of 2 3))));
    Alcotest.test_case "a key access is one step named node ^ suffix" `Quick (fun () ->
        (* The instrumented key is the cell [field] makes: a read is a
           step, and a rewrite reaches it through the accessor. *)
        let line = Instr.fresh_line () in
        Alcotest.(check (list (triple string string int)))
          "stream"
          [ ("R", "x.val", line); ("W", "x.val", line); ("R", "x.val", line) ]
          (access_stream (fun () ->
               let node =
                 { nx = Instr.link "x" ".next" ~line 0; key = Instr.key "x" ".val" ~line 4 }
               in
               let key_of n = n.key in
               ignore (Instr.get_key node.key);
               Instr.set_key node key_of 6;
               assert (Instr.get_key node.key = 6))));
    Alcotest.test_case "last_cas_result tracks success" `Quick (fun () ->
        Instr.run_sequential (fun () ->
            let c = Instr.make ~name:"c" ~line:0 1 in
            ignore (Instr.cas c 1 2);
            Alcotest.(check bool) "success" true !Instr.last_cas_result;
            ignore (Instr.cas c 1 2);
            Alcotest.(check bool) "failure" false !Instr.last_cas_result));
    Alcotest.test_case "run_sequential propagates exceptions" `Quick (fun () ->
        Alcotest.check_raises "raises" Exit (fun () ->
            Instr.run_sequential (fun () ->
                let c = Instr.make ~name:"c" ~line:0 0 in
                Instr.set c 1;
                raise Exit)));
  ]

(* Backend parity: one mixed workload through Real_mem and Instr_mem must
   agree on every operation result and on the final abstract set. *)
let parity_tests =
  [
    Alcotest.test_case "mixed workload agrees across backends" `Quick (fun () ->
        let r = Vbl_memops.Mem_check.check_parity () in
        List.iter (fun m -> Alcotest.fail m) r.Vbl_memops.Mem_check.mismatches;
        Alcotest.(check (list int))
          "expected final set" [ 5; 6; 7; 8 ] r.Vbl_memops.Mem_check.real_set);
  ]

let () =
  Alcotest.run "memops"
    [ ("real", real_tests); ("instr", instr_tests); ("parity", parity_tests) ]
