(** Glue between the schedule machinery and concrete implementations on
    the instrumented backend: fresh pre-populated instances wrapped as
    thread bodies for {!Directed} and {!Explore}.  The instrumented sets
    are declared in the family registries, beside their real builds
    ({!Vbl_lists.Registry.instrumented} for the lists); this module
    applies no algorithm functor. *)

type prepared = {
  bodies : (unit -> unit) list;
  results : bool option array;
  invariants : unit -> (unit, string) result;
  contents : unit -> int list;
}

val prepare :
  (module Vbl_lists.Set_intf.S) ->
  initial:int list ->
  ops:Ll_abstract.opspec list ->
  prepared
(** Fresh instance, sequentially pre-populated with [initial]; one body
    per operation, results captured by index. *)

val run_script_full :
  (module Vbl_lists.Set_intf.S) ->
  initial:int list ->
  ops:Ll_abstract.opspec list ->
  Directed.directive list ->
  Directed.outcome * prepared

val run_script :
  (module Vbl_lists.Set_intf.S) ->
  initial:int list ->
  ops:Ll_abstract.opspec list ->
  Directed.directive list ->
  Directed.outcome

val explore_scenario :
  (module Vbl_lists.Set_intf.S) ->
  initial:int list ->
  ops:Ll_abstract.opspec list ->
  Explore.scenario
(** Fresh instance per execution; the checked history seeds the initial
    values as completed inserts and appends one contains probe per
    relevant key reflecting the final contents (the paper's σ̄
    extension — this is what catches lost updates). *)

val explore_range_scenario :
  (module Vbl_lists.Set_intf.S) ->
  initial:int list ->
  range:int * int ->
  ops:Ll_abstract.opspec list list ->
  Explore.scenario
(** Thread 0 runs [range_query lo hi] concurrently with one thread per
    op sequence, each running its ops in order.  The verdict goes
    through {!Vbl_spec.Multikey.check} — the whole-state
    linearizability search that can judge a multi-key read — inside
    the scenario's [invariants] closure, with σ̄-style trailing contains
    probes against the final contents.  The single-key history
    fed to the per-key checker is left empty (subsumed). *)

val explore_to_list_scenario :
  (module Vbl_lists.Set_intf.S) ->
  initial:int list ->
  ops:Ll_abstract.opspec list list ->
  Explore.scenario
(** {!explore_range_scenario} with [to_list] for thread 0, judged as a
    read of the window [[min_int, max_int]]: one collection, so unlike
    [range_query]'s double-collect no second collection can hide a key
    the walk met twice. *)
