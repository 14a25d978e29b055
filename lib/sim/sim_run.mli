(** Synchrobench-style workload runs on the simulated multicore (paper §4
    methodology: x% updates split evenly, uniform keys, pre-population
    with probability ½).  "Time" is virtual cycles, so thread counts far
    beyond the host's physical cores stay meaningful — see DESIGN.md §4
    for what this substitution does and does not preserve. *)

type params = {
  threads : int;
  update_percent : int;
  key_range : int;
  horizon : float;  (** simulated duration in cycles *)
  seed : int64;
  zipf : float option;  (** [Some s]: zipfian keys with skew [s]; [None]: uniform *)
}

type result = {
  ops_completed : int;
  throughput : float;  (** operations per 1000 simulated cycles *)
  steps : int;  (** conductor steps executed (simulator work, not time) *)
  final_size : int;
}

val default_horizon : float

val run :
  ?costs:Coherence.costs ->
  ?topology:Coherence.topology ->
  (module Vbl_lists.Set_intf.S) ->
  params ->
  result
(** The implementation must be instantiated on the instrumented backend:
    an [instrumented] entry of a family registry, such as
    {!Vbl_lists.Registry.instrumented}. *)
