(** Parameter sweeps regenerating the paper's figures, over two engines:
    real domains on this host, or the coherence-model multicore (how the
    72-thread curves are reproduced on small hosts).  Units differ between
    engines; only within-engine comparisons are meaningful. *)

type engine =
  | Real of { duration_s : float; warmup_s : float; trials : int }
  | Simulated of { horizon : float; trials : int; costs : Vbl_sim.Coherence.costs }

val simulated :
  ?costs:Vbl_sim.Coherence.costs -> horizon:float -> trials:int -> unit -> engine

type point = {
  algorithm : string;
  threads : int;
  update_percent : int;
  key_range : int;
  throughput : Vbl_util.Stats.summary;
      (** ops/s for [Real]; ops per 1000 simulated cycles for [Simulated] *)
  ops : int;  (** total operations across trials *)
  metrics : Vbl_obs.Metrics.snapshot option;
      (** counter totals across trials when measured with [~metrics:true];
          both engines produce them (the instrumented lists share the
          probes) *)
  latency : (string * Vbl_obs.Histogram.summary) list;
      (** per-op-type latency (ns); only the [Real] engine produces it *)
}

val point_mean : point -> float

val real : (module Vbl_lists.Set_intf.S) list
(** Every registered set on the real backend: the list family, the
    skip-list and tree extensions and the sharded frontends, in that
    order.  The family registries declare the sets; this is the one
    concatenation of them. *)

val instrumented : (module Vbl_lists.Set_intf.S) list
(** Every instrumented twin, in the same family order. *)

val names : string list
(** The names of [real], in order. *)

val find_real : string -> (module Vbl_lists.Set_intf.S)
(** Lookup by name in [real]; [Invalid_argument] on an unknown name. *)

val find_instrumented : string -> (module Vbl_lists.Set_intf.S)
(** Lookup by name in [instrumented]; [Invalid_argument] on an unknown
    name. *)

val measure :
  ?metrics:bool ->
  ?profile:bool ->
  ?interval_s:float ->
  engine ->
  algorithm:string ->
  threads:int ->
  update_percent:int ->
  key_range:int ->
  seed:int64 ->
  point
(** One data point.  Simulated horizons are stretched with the key range
    (capped at 8x) so large-range points retain enough operations.
    [profile] and [interval_s] forward to {!Runner.run} on the [Real]
    engine (contention profiler + flight recorder around the measured
    trials; periodic progress lines); both are ignored by the
    [Simulated] engine, which has no wall clock. *)

val measure_impl :
  ?metrics:bool ->
  ?profile:bool ->
  ?interval_s:float ->
  engine ->
  (module Vbl_lists.Set_intf.S) ->
  algorithm:string ->
  threads:int ->
  update_percent:int ->
  key_range:int ->
  seed:int64 ->
  point
(** Like {!measure} on the [Real] engine but driving an explicitly given
    implementation instead of a registry lookup — for ablation baselines
    living outside the registries (the hand-specialised [vbl-direct] in
    bench/).  Raises [Invalid_argument] on a [Simulated] engine, which
    needs an instrumented functor. *)

val series :
  ?metrics:bool ->
  engine ->
  algorithms:string list ->
  thread_counts:int list ->
  update_percent:int ->
  key_range:int ->
  seed:int64 ->
  point list
(** One figure panel. *)

val paper_algorithms : string list
(** The three algorithms the paper's figures plot. *)

val figure1 : ?thread_counts:int list -> engine -> seed:int64 -> point list
(** Figure 1: lazy vs vbl, 20% updates, key range 50. *)

val figure4 :
  ?thread_counts:int list ->
  ?update_ratios:int list ->
  ?key_ranges:int list ->
  engine ->
  seed:int64 ->
  ((int * int) * point list) list
(** Figure 4: one series per (update ratio, key range) panel. *)

type headlines = {
  vbl_over_lazy_fig1 : float;  (** paper: 1.6x at 72 threads *)
  vbl_over_hm_amr_readonly : float;  (** paper: up to 1.6x *)
  threads_used : int;
}

val headlines : ?threads:int -> engine -> seed:int64 -> headlines
