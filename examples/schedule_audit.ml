(* Schedule audit: using the concurrency framework as a library.

   This example treats the schedule machinery the way a data-structure
   designer would during development:

   1. enumerate every schedule of a small scenario on the sequential list,
   2. classify them with Definition 1 (correct / incorrect),
   3. drive each correct one against an implementation and report its
      *acceptance rate* — the fraction of correct schedules it admits,
      which is the paper's concurrency metric made concrete.  VBL scores
      100% on every scenario (it is concurrency-optimal); each baseline's
      rejections show where its synchronization over-reaches.

   The second scenario is chosen so that both inserts share the head as
   predecessor: the post-lock ablation (vbl-postlock) then rejects
   schedules where the failing insert(1) must complete while insert(0)
   holds the head's lock — isolating exactly the paper's §3.1 point.

   Run with:  dune exec examples/schedule_audit.exe                       *)

open Vbl_sched

let scenarios =
  [
    ( "insert(1) || insert(2) on {1}   (the Figure 2 family)",
      [ 1 ],
      [ Ll_abstract.insert 1; Ll_abstract.insert 2 ] );
    ( "insert(1) || insert(0) on {1}   (shared predecessor: head)",
      [ 1 ],
      [ Ll_abstract.insert 1; Ll_abstract.insert 0 ] );
    ( "remove(1) || contains(1) on {1; 2}",
      [ 1; 2 ],
      [ Ll_abstract.remove 1; Ll_abstract.contains 1 ] );
  ]

let audit ~initial ~ops name impl correct_schedules =
  let accepted = ref 0 in
  List.iter
    (fun t ->
      let script = Ll_abstract.to_script t in
      let outcome, p = Drive.run_script_full impl ~initial ~ops script in
      let ok =
        Directed.accepted outcome && p.Drive.contents () = Ll_abstract.final_values t
      in
      if ok then incr accepted)
    correct_schedules;
  let n = List.length correct_schedules in
  Printf.printf "  %-16s accepts %3d / %d correct schedules (%.0f%%)\n" name !accepted n
    (100. *. float_of_int !accepted /. float_of_int n)

let () =
  List.iter
    (fun (scenario_name, initial, ops) ->
      Printf.printf "schedule audit: %s\n" scenario_name;
      let correct = ref [] and incorrect = ref 0 and total = ref 0 in
      let complete =
        Ll_abstract.enumerate ~initial ~ops (fun t ->
            incr total;
            if Ll_abstract.correct t then correct := t :: !correct else incr incorrect)
      in
      assert complete;
      Printf.printf "  schedules of the sequential code: %d total, %d correct, %d incorrect\n"
        !total (List.length !correct) !incorrect;
      audit ~initial ~ops "vbl" (module Vbl_lists.Registry.Vbl_i) !correct;
      audit ~initial ~ops "vbl-postlock" (module Vbl_lists.Registry.Vbl_postlock_i) !correct;
      audit ~initial ~ops "lazy" (module Vbl_lists.Registry.Lazy_i) !correct;
      audit ~initial ~ops "hand-over-hand" (module Vbl_lists.Registry.Hoh_i) !correct;
      print_newline ())
    scenarios;
  print_endline "(an accepted schedule = the driver realises every scripted step and";
  print_endline " the execution ends with the schedule's results and final contents)"
