(** Parameter sweeps that regenerate the paper's figures.

    Two engines produce the same series shape:
    - [Real]: OCaml domains on this host (honest numbers, but scaling is
      bounded by the physical core count);
    - [Simulated]: the coherence-model multicore of [lib/sim], which is how
      the 72-thread curves of Figures 1 and 4 are reproduced on small
      hosts.  Simulated trials vary the seed. *)

type engine =
  | Real of { duration_s : float; warmup_s : float; trials : int }
  | Simulated of { horizon : float; trials : int; costs : Vbl_sim.Coherence.costs }

let simulated ?(costs = Vbl_sim.Coherence.default_costs) ~horizon ~trials () =
  Simulated { horizon; trials; costs }

type point = {
  algorithm : string;
  threads : int;
  update_percent : int;
  key_range : int;
  throughput : Vbl_util.Stats.summary;
      (** ops/second for [Real]; ops per 1000 simulated cycles for
          [Simulated].  Units differ; only within-engine comparisons are
          meaningful. *)
  ops : int;  (** total operations across trials *)
  metrics : Vbl_obs.Metrics.snapshot option;
      (** counter totals across trials when measured with [~metrics:true] *)
  latency : (string * Vbl_obs.Histogram.summary) list;
      (** per-op-type latency; only the [Real] engine produces it *)
}

let point_mean p = p.throughput.Vbl_util.Stats.mean

(* The one place the families meet: every registered set, each build in
   one list, in registry order (lists, skiplists, trees, sharded). *)
let real =
  Vbl_lists.Registry.all @ Vbl_skiplists.Registry.all @ Vbl_trees.Registry.all
  @ Vbl_shard.Registry.all

let instrumented =
  Vbl_lists.Registry.instrumented @ Vbl_skiplists.Registry.instrumented
  @ Vbl_trees.Registry.instrumented @ Vbl_shard.Registry.instrumented

let name (module S : Vbl_lists.Set_intf.S) = S.name
let names = List.map name real

let find ~what impls algorithm =
  match List.find_opt (fun i -> name i = algorithm) impls with
  | Some impl -> impl
  | None -> invalid_arg (Printf.sprintf "Sweep.%s: unknown algorithm %s" what algorithm)

let find_real = find ~what:"find_real" real
let find_instrumented = find ~what:"find_instrumented" instrumented

(** Like {!measure} on the [Real] engine, but drives an explicitly given
    implementation instead of a registry lookup — for ablation baselines
    that live outside the registries, e.g. the hand-specialised
    [vbl-direct] in bench/.  The [Simulated] engine needs an instrumented
    functor and so cannot accept an arbitrary module. *)
let measure_impl ?(metrics = false) ?(profile = false) ?interval_s engine impl ~algorithm
    ~threads ~update_percent ~key_range ~seed =
  let spec = Workload.uniform ~update_percent ~key_range in
  match engine with
  | Real { duration_s; warmup_s; trials } ->
      let r =
        Runner.run ~metrics ~profile ?interval_s impl
          { Runner.threads; spec; duration_s; warmup_s; trials; seed }
      in
      {
        algorithm;
        threads;
        update_percent;
        key_range;
        throughput = r.Runner.throughput;
        ops = List.fold_left (fun acc (tr : Runner.trial) -> acc + tr.Runner.ops) 0 r.Runner.trials_run;
        metrics = r.Runner.metrics;
        latency = r.Runner.latency;
      }
  | Simulated _ -> invalid_arg "Sweep.measure_impl: Real engine only"

let measure ?(metrics = false) ?(profile = false) ?interval_s engine ~algorithm ~threads
    ~update_percent ~key_range ~seed =
  match engine with
  | Real _ ->
      measure_impl ~metrics ~profile ?interval_s engine (find_real algorithm) ~algorithm
        ~threads ~update_percent ~key_range ~seed
  | Simulated { horizon; trials; costs } ->
      let impl = find_instrumented algorithm in
      (* A traversal costs O(key_range) cycles, so a fixed horizon would
         leave large-range runs with a handful of operations; stretch it
         with the range (capped to keep simulation time sane).  Only
         within-panel comparisons are meaningful anyway. *)
      let horizon =
        horizon *. Float.min 8. (Float.max 1. (float_of_int key_range /. 250.))
      in
      (* The instrumented lists call the same probes as the real ones, so
         counters work under the simulator too (latency does not: the sim
         has no wall clock). *)
      if metrics then begin
        Vbl_obs.Metrics.reset ();
        Vbl_obs.Gcstats.rebase ();
        Vbl_obs.Probe.install (Vbl_obs.Probe.metrics ())
      end;
      let ops = ref 0 in
      let samples =
        Array.init trials (fun k ->
            let r =
              Vbl_sim.Sim_run.run ~costs impl
                {
                  Vbl_sim.Sim_run.threads;
                  update_percent;
                  key_range;
                  horizon;
                  seed = Int64.add seed (Int64.of_int (k * 1009));
                  zipf = None;
                }
            in
            ops := !ops + r.Vbl_sim.Sim_run.ops_completed;
            r.Vbl_sim.Sim_run.throughput)
      in
      let snapshot =
        if metrics then begin
          let s = Vbl_obs.Metrics.snapshot () in
          Vbl_obs.Probe.uninstall ();
          Some s
        end
        else None
      in
      {
        algorithm;
        threads;
        update_percent;
        key_range;
        throughput = Vbl_util.Stats.summarize samples;
        ops = !ops;
        metrics = snapshot;
        latency = [];
      }

(** One figure panel: every algorithm at every thread count, fixed
    workload. *)
let series ?(metrics = false) engine ~algorithms ~thread_counts ~update_percent ~key_range ~seed =
  List.concat_map
    (fun algorithm ->
      List.map
        (fun threads ->
          measure ~metrics engine ~algorithm ~threads ~update_percent ~key_range ~seed)
        thread_counts)
    algorithms

(* The algorithms the paper's figures plot. *)
let paper_algorithms = [ "lazy"; "harris-michael-tagged"; "vbl" ]

(** Figure 1: 20% updates, key range 50, Lazy vs VBL across the thread
    sweep.  [thread_counts] defaults to the paper's x-axis up to 72. *)
let figure1 ?(thread_counts = [ 1; 4; 8; 16; 24; 32; 40; 48; 56; 64; 72 ]) engine ~seed =
  series engine
    ~algorithms:[ "lazy"; "vbl" ]
    ~thread_counts ~update_percent:20 ~key_range:50 ~seed

(** Figure 4: the full 3-ratio x 4-range grid over the three measured
    algorithms.  Returns one series per (update, range) panel. *)
let figure4 ?(thread_counts = [ 1; 8; 24; 48; 72 ]) ?(update_ratios = Workload.paper_update_ratios)
    ?(key_ranges = Workload.paper_key_ranges) engine ~seed =
  List.concat_map
    (fun update_percent ->
      List.map
        (fun key_range ->
          ( (update_percent, key_range),
            series engine ~algorithms:paper_algorithms ~thread_counts ~update_percent
              ~key_range ~seed ))
        key_ranges)
    update_ratios

(** Headline numbers the paper quotes: the VBL/Lazy ratio at the largest
    thread count of Figure 1 (paper: 1.6x at 72 threads), and the
    VBL/Harris-Michael-AMR ratio on the read-only workload (paper: up to
    1.6x). *)
type headlines = {
  vbl_over_lazy_fig1 : float;
  vbl_over_hm_amr_readonly : float;
  threads_used : int;
}

let headlines ?(threads = 72) engine ~seed =
  let at alg ~update ~range =
    point_mean (measure engine ~algorithm:alg ~threads ~update_percent:update ~key_range:range ~seed)
  in
  let vbl_fig1 = at "vbl" ~update:20 ~range:50
  and lazy_fig1 = at "lazy" ~update:20 ~range:50
  and vbl_ro = at "vbl" ~update:0 ~range:200
  and hm_ro = at "harris-michael" ~update:0 ~range:200 in
  {
    vbl_over_lazy_fig1 = vbl_fig1 /. lazy_fig1;
    vbl_over_hm_amr_readonly = vbl_ro /. hm_ro;
    threads_used = threads;
  }
