(** Convenience runners tying the explorer, the analysis monitor and the
    mutant zoo together: one call analyzes an implementation on a
    scenario, and the two suites below are the layer's acceptance
    harness — {!mutation_suite} must catch every seeded bug,
    {!clean_suite} must come back empty-handed on the clean
    algorithms. *)

module Explore = Vbl_sched.Explore
module Shrink = Vbl_sched.Shrink
module Drive = Vbl_sched.Drive
module Ll = Vbl_sched.Ll_abstract

val default_config : Explore.config
(** Exhaustive-up-to-bounds exploration: 200k executions, 5k steps per
    execution. *)

val analyze :
  ?config:Explore.config ->
  ?strategy:Explore.strategy ->
  (module Vbl_lists.Set_intf.S) ->
  initial:int list ->
  ops:Ll.opspec list ->
  Explore.report
(** Explore [impl] on [initial]/[ops] with the race detector and
    lock-discipline linter attached.  [strategy] defaults to
    [Dpor (preempt 3)], exactly as {!Explore.run}. *)

val analyze_shrunk :
  ?config:Explore.config ->
  ?strategy:Explore.strategy ->
  (module Vbl_lists.Set_intf.S) ->
  initial:int list ->
  ops:Ll.opspec list ->
  Explore.report * Shrink.result option
(** {!analyze}, plus a shrunk counterexample when a failure is found:
    the failing schedule is delta-debugged under the same monitor to a
    locally minimal reproduction ([None] when the report passes). *)

type case = { mutant : string; initial : int list; ops : Ll.opspec list }
(** A mutant plus a scenario small enough to explore exhaustively yet
    sufficient to expose the seeded bug. *)

val mutation_cases : case list
(** One catching scenario per registered mutant. *)

type mutation_result = {
  case : case;
  report : Explore.report;
  shrunk : Shrink.result option;  (** minimal counterexample, when caught *)
}

val caught : mutation_result -> bool
(** A mutant counts as caught if {e any} failure (race, lint,
    non-linearizable history, broken invariant, deadlock) was reported. *)

val mutation_suite :
  ?config:Explore.config -> ?strategy:Explore.strategy -> unit -> mutation_result list
(** Run every seeded mutant under the full analysis, shrinking each
    counterexample. *)

val clean_cases : ((module Vbl_lists.Set_intf.S) * int list * Ll.opspec list) list
(** Conflict-heavy scenarios over the clean instrumented implementations
    that must pass the full analysis with no failure of any kind. *)

val clean_suite :
  ?config:Explore.config ->
  ?strategy:Explore.strategy ->
  unit ->
  (string * Explore.report) list
(** {!analyze} on every clean case, each report under its set's name. *)
