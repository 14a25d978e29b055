(** Convenience runners tying the explorer, the analysis monitor and the
    mutant zoo together: one call analyzes an implementation on a scenario,
    and the two suites below are the layer's acceptance harness —
    {!mutation_suite} must catch every seeded bug, {!clean_suite} must
    come back empty-handed on the clean algorithms. *)

module Explore = Vbl_sched.Explore
module Shrink = Vbl_sched.Shrink
module Drive = Vbl_sched.Drive
module Ll = Vbl_sched.Ll_abstract

let default_config = { Explore.max_executions = 200_000; max_steps = 5_000 }

let monitored_scenario impl ~ops ~initial =
  let threads = max 2 (List.length ops) in
  (Drive.explore_scenario impl ~initial ~ops, Monitor.make ~threads ())

(** Explore [impl] on [initial]/[ops] with the race detector and
    lock-discipline linter attached.  [strategy] defaults to
    [Dpor (preempt 3)], exactly as {!Explore.run}. *)
let analyze ?(config = default_config) ?strategy impl ~initial ~ops =
  let scenario, monitor = monitored_scenario impl ~ops ~initial in
  Explore.run ~config ~monitor ?strategy scenario

(** {!analyze}, plus a shrunk counterexample when a failure is found: the
    failing schedule is delta-debugged under the same monitor to a
    locally minimal reproduction. *)
let analyze_shrunk ?(config = default_config) ?strategy impl ~initial ~ops =
  let scenario, monitor = monitored_scenario impl ~ops ~initial in
  let report = Explore.run ~config ~monitor ?strategy scenario in
  let shrunk =
    Option.map
      (fun f -> Shrink.shrink ~monitor ~max_steps:config.Explore.max_steps scenario f)
      report.Explore.failure
  in
  (report, shrunk)

type case = { mutant : string; initial : int list; ops : Ll.opspec list }
(** A mutant plus a scenario small enough to explore exhaustively yet
    sufficient to expose the seeded bug. *)

(* Each scenario targets its mutant's seeded discipline violation; see the
   header of {!Mutants} for what failure each one is expected to produce. *)
let mutation_cases : case list =
  [
    { mutant = "vbl-no-deleted-check"; initial = [ 5 ]; ops = [ Ll.remove 5; Ll.insert 7 ] };
    { mutant = "vbl-unlocked-unlink"; initial = [ 5 ]; ops = [ Ll.remove 5; Ll.insert 3 ] };
    { mutant = "vbl-no-logical-delete"; initial = [ 5 ]; ops = [ Ll.remove 5; Ll.insert 7 ] };
    { mutant = "vbl-leaky-lock"; initial = []; ops = [ Ll.insert 1; Ll.insert 2 ] };
    { mutant = "lazy-no-validation"; initial = [ 5 ]; ops = [ Ll.remove 5; Ll.remove 5 ] };
    (* both inserts fall off the empty root slot; without the version
       recheck the second link overwrites the first (lost update) *)
    { mutant = "bst-no-version-recheck"; initial = []; ops = [ Ll.insert 1; Ll.insert 2 ] };
    (* the splice reads the victim's children unlocked, so the insert can
       link key 2 under node 1 inside the splice window and lose it *)
    { mutant = "bst-unlocked-rotation-window";
      initial = [ 1 ];
      ops = [ Ll.remove 1; Ll.insert 2 ] };
    (* with one shared clean stamp, insert 2's flag CAS succeeds on the
       stamp it read before insert 1 flagged, linked and unflagged the
       same router; its child CAS then fails silently and key 2 is lost *)
    { mutant = "lockfree-bst-shared-clean";
      initial = [];
      ops = [ Ll.insert 1; Ll.insert 2 ] };
    (* use-after-reclaim: remove retires a node, insert recycles it under
       a contains parked on it (see test_reclaim.ml for the full shape) *)
    { mutant = "vbl-reclaim-eager";
      initial = [ 1; 2 ];
      ops = [ Ll.remove 1; Ll.insert 3; Ll.contains 2 ] };
  ]

type mutation_result = {
  case : case;
  report : Explore.report;
  shrunk : Shrink.result option;  (** minimal counterexample, when caught *)
}

let caught (r : mutation_result) = r.report.Explore.failure <> None

(** Run every seeded mutant under the full analysis; a mutant counts as
    caught if {e any} failure (race, lint, non-linearizable history, broken
    invariant, deadlock) is reported — with its schedule, shrunk to a
    locally minimal reproduction. *)
let mutation_suite ?config ?strategy () : mutation_result list =
  List.map
    (fun case ->
      let impl = Mutants.find case.mutant in
      let report, shrunk =
        analyze_shrunk ?config ?strategy impl ~initial:case.initial ~ops:case.ops
      in
      { case; report; shrunk })
    mutation_cases

(* Conflict-heavy scenarios over the clean implementations that must pass
   the full analysis with no failure of any kind.  The BST entries mirror
   the three BST mutant scenarios: each clean tree must survive exactly
   the schedules its mutants lose updates on. *)
let clean_cases : ((module Set_intf.S) * int list * Ll.opspec list) list =
  [
    ((module Vbl_lists.Registry.Vbl_i), [ 2 ], [ Ll.insert 1; Ll.remove 2 ]);
    ((module Vbl_lists.Registry.Vbl_i), [ 5 ], [ Ll.remove 5; Ll.insert 7 ]);
    ((module Vbl_lists.Registry.Vbl_i), [ 5 ], [ Ll.remove 5; Ll.insert 3 ]);
    ((module Vbl_lists.Registry.Lazy_i), [ 2 ], [ Ll.insert 1; Ll.remove 2 ]);
    ((module Vbl_lists.Registry.Lazy_i), [ 5 ], [ Ll.remove 5; Ll.remove 5 ]);
    ((module Vbl_lists.Registry.Hm_i), [ 2 ], [ Ll.insert 1; Ll.remove 2 ]);
    ((module Vbl_lists.Registry.Hm_i), [ 5 ], [ Ll.remove 5; Ll.insert 7 ]);
    ((module Vbl_trees.Registry.Vbl_bst_i), [], [ Ll.insert 1; Ll.insert 2 ]);
    ((module Vbl_trees.Registry.Vbl_bst_i), [ 1 ], [ Ll.remove 1; Ll.insert 2 ]);
    ((module Vbl_trees.Registry.Lockfree_bst_i), [], [ Ll.insert 1; Ll.insert 2 ]);
  ]

let clean_suite ?config ?strategy () : (string * Explore.report) list =
  List.map
    (fun (((module S : Set_intf.S) as impl), initial, ops) ->
      (S.name, analyze ?config ?strategy impl ~initial ~ops))
    clean_cases
