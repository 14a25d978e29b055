(* schedules — narrate the paper's Figure 2 and Figure 3 as executable
   demonstrations: print the schedule, check it is correct per Definition 1
   where applicable, then drive it against each implementation and report
   who accepts and who rejects (and why).

     schedules fig2
     schedules fig3
     schedules all        (default)                                      *)

open Vbl_sched

let show_outcome name outcome =
  match outcome with
  | Directed.Accepted { trace } ->
      Printf.printf "  %-24s ACCEPTS  (realised in %d steps)\n" name (List.length trace)
  | Directed.Rejected { at; reason; _ } ->
      Format.printf "  %-24s rejects at script step %d: %a@." name (at + 1)
        Directed.pp_rejection reason

let print_script script =
  List.iteri
    (fun i d ->
      match d with
      | Directed.Step (tid, pat) ->
          Format.printf "  %2d. thread %d: %a@." (i + 1) tid Pattern.pp pat
      | Directed.Ret (tid, r) -> Format.printf "  %2d. thread %d: return %b@." (i + 1) tid r)
    script

let fig2 () =
  print_endline "=== Figure 2: a correct schedule the Lazy Linked List rejects ===";
  print_endline "";
  print_endline "Initial list {X1=1}; insert(1) is thread 0, insert(2) is thread 1.";
  print_endline "The schedule lets insert(1) read X1 and return false while insert(2)";
  print_endline "holds X1 between creating X2 and linking it.";
  print_endline "";
  print_endline "Script (in the paper's step vocabulary):";
  print_script Paper_figures.Fig2.script;
  print_endline "";
  let abstract = Paper_figures.Fig2.abstract () in
  Printf.printf "Correct per Definition 1 (checked on sequential LL): %b\n"
    (Ll_abstract.correct abstract);
  Printf.printf "Final abstract list: {%s}\n"
    (String.concat ", " (List.map string_of_int (Ll_abstract.final_values abstract)));
  print_endline "";
  print_endline "Driving the schedule against each implementation:";
  show_outcome "vbl" (Paper_figures.Fig2.run (module Vbl_lists.Registry.Vbl_i));
  show_outcome "lazy" (Paper_figures.Fig2.run (module Vbl_lists.Registry.Lazy_i));
  print_endline ""

let fig3 () =
  print_endline "=== Figure 3: a schedule the Harris-Michael list rejects ===";
  print_endline "";
  print_endline "Initial list {X2, X3, X4}.  Phase A: insert(1) || remove(2) — the";
  print_endline "remove marks X2 but its physical unlink CAS fails (insert(1) already";
  print_endline "updated the head) and, Harris-Michael style, the operation completes.";
  print_endline "Phase B: insert(3) || insert(4) both traverse onto the marked X2 and";
  print_endline "both unlink it; the schedule needs both writes to take effect, but";
  print_endline "Harris-Michael restarts insert(4) when its CAS fails.";
  print_endline "";
  print_endline "Script (Harris-Michael's adjusted-LL vocabulary):";
  print_script Paper_figures.Fig3.script;
  print_endline "";
  print_endline "Driving the schedule against the Harris-Michael variants:";
  show_outcome "harris-michael (AMR)"
    (Paper_figures.Fig3.run (module Vbl_lists.Registry.Hm_i));
  show_outcome "harris-michael (RTTI)"
    (Paper_figures.Fig3.run (module Vbl_lists.Registry.Hm_tagged_i));
  print_endline "";
  print_endline "The same four-operation scenario under VBL (remove(2) unlinks X2";
  print_endline "immediately, so phase B interleaves freely with no restarts):";
  show_outcome "vbl" (Paper_figures.Fig3.run_vbl ());
  print_endline ""

(* The §3 motivation for lockNextAtValue, §3.2 "Removing a node": a
   remove sleeps between locating its victim and locking; the value is
   removed and re-inserted meanwhile.  Shows post-wake step counts per
   validation strategy. *)
let aba () =
  print_endline "=== The remove+reinsert scenario behind lockNextAtValue (paper §3) ===";
  print_endline "";
  print_endline "Thread A's remove(2) locates (X1, X2) on {1, 2} and falls asleep;";
  print_endline "thread B removes 2 and re-inserts it (a brand-new node, same value).";
  print_endline "A then wakes and tries to finish.  Steps A needs after waking:";
  print_endline "";
  let measure name (module S : Vbl_lists.Set_intf.S) =
    let module Instr = Vbl_memops.Instr_mem in
    let t =
      Instr.run_sequential (fun () ->
          let t = S.create () in
          ignore (S.insert t 1);
          ignore (S.insert t 2);
          t)
    in
    let result_a = ref None in
    let exec =
      Exec.create
        [
          (fun () -> result_a := Some (S.remove t 2));
          (fun () ->
            ignore (S.remove t 2);
            ignore (S.insert t 2));
        ]
    in
    let rec advance_a () =
      match Exec.pending exec 0 with
      | Exec.Access a when a.Instr.name = "X2.val" && a.Instr.kind = Instr.Read ->
          Exec.step exec 0
      | Exec.Access _ ->
          Exec.step exec 0;
          advance_a ()
      | Exec.Blocked _ | Exec.Done -> failwith "unexpected"
    in
    advance_a ();
    while Exec.pending exec 1 <> Exec.Done do
      Exec.step exec 1
    done;
    let steps = ref 0 in
    while Exec.pending exec 0 <> Exec.Done do
      Exec.step exec 0;
      incr steps
    done;
    Printf.printf "  %-16s %3d steps  (remove returned %s)
" name !steps
      (match !result_a with Some b -> string_of_bool b | None -> "nothing")
  in
  measure "vbl" (module Vbl_lists.Registry.Vbl_i);
  measure "vbl-versioned" (module Vbl_lists.Registry.Vbl_versioned_i);
  measure "vbl-postlock" (module Vbl_lists.Registry.Vbl_postlock_i);
  print_endline "";
  print_endline "(vbl validates by VALUE under the lock — the new node still stores 2,";
  print_endline " so it proceeds with no re-traversal; the other strategies restart)";
  print_endline ""

let usage () =
  prerr_endline "usage: schedules [fig2|fig3|aba|all]";
  exit 2

let () =
  match if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" with
  | "fig2" -> fig2 ()
  | "fig3" -> fig3 ()
  | "aba" -> aba ()
  | "all" ->
      fig2 ();
      fig3 ();
      aba ()
  | _ -> usage ()
