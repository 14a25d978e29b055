(* figures — regenerate the paper's evaluation figures, and the sweeps
   around them, as tables.

     figures fig1        Figure 1: lazy vs vbl, 20% updates, key range 50
     figures fig4        Figure 4: the 3-ratio x 4-range grid
     figures headlines   the 1.6x ratios the paper quotes
     figures ablation    validation strategies: vbl, vbl-postlock,
                         vbl-versioned (and lazy) on the Figure 1 workload
     figures family      every list algorithm on the Figure 1 workload
     figures skiplists   skip lists beside vbl (paper §5 future work)
     figures trees       BSTs beside vbl (paper §5 future work)
     figures zipf        zipfian hot keys in key range 2000
     figures numa        the Figure 1 point on a 4-socket topology
     figures batch       apply_batch batch sizes on vbl-sharded-8
     figures all         everything above, in this order (the default)

   Options: --engine real|sim picks the engine of the thread sweeps
   (default sim); zipf and numa always run on the simulator, and batch
   on one real domain, as their titles say.  --quick (coarser sweeps),
   --csv (raw points; tables as CSV), --seed N, --machine intel|amd
   (the simulated cost profile).  Bad input exits 2 with one line on
   stderr before anything is measured. *)

type cfg = {
  engine : Vbl_harness.Sweep.engine;
  quick : bool;
  csv : bool;
  seed : int64;
  costs : Vbl_sim.Coherence.costs;
}

let real_duration quick = if quick then 0.3 else 1.0

let engine_of costs = function
  | `Sim, quick ->
      Vbl_harness.Sweep.simulated ~costs
        ~horizon:(if quick then 40_000. else 100_000.)
        ~trials:(if quick then 2 else 5)
        ()
  | `Real, quick ->
      Vbl_harness.Sweep.Real
        {
          duration_s = real_duration quick;
          warmup_s = (if quick then 0.1 else 0.5);
          trials = (if quick then 2 else 5);
        }

(* Real scaling is bounded by this host's cores. *)
let host_threads () =
  let cores = Domain.recommended_domain_count () in
  List.sort_uniq compare (List.filter (fun t -> t <= max 2 (2 * cores)) [ 1; 2; 4; 8 ])

let sim_threads quick = if quick then [ 1; 24; 72 ] else [ 1; 8; 24; 48; 72 ]

(* The thread axis of every panel but Figure 1's dense sweep. *)
let panel_threads cfg =
  match cfg.engine with
  | Vbl_harness.Sweep.Real _ -> host_threads ()
  | Vbl_harness.Sweep.Simulated _ -> sim_threads cfg.quick

let print_table cfg title table =
  if cfg.csv then print_endline (Vbl_util.Table.render_csv table)
  else begin
    print_endline title;
    print_newline ();
    print_endline (Vbl_util.Table.render table);
    print_newline ()
  end

let fig1 cfg =
  let thread_counts =
    match cfg.engine with
    | Vbl_harness.Sweep.Real _ -> host_threads ()
    | Vbl_harness.Sweep.Simulated _ ->
        if cfg.quick then [ 1; 8; 24; 48; 72 ]
        else [ 1; 4; 8; 16; 24; 32; 40; 48; 56; 64; 72 ]
  in
  let points = Vbl_harness.Sweep.figure1 ~thread_counts cfg.engine ~seed:cfg.seed in
  if cfg.csv then print_endline (Vbl_harness.Report.points_csv points)
  else begin
    print_endline (Vbl_harness.Report.render_figure1 cfg.engine points);
    print_newline ()
  end

let fig4 cfg =
  let key_ranges =
    if cfg.quick then [ 50; 2_000 ] else Vbl_harness.Workload.paper_key_ranges
  in
  let panels =
    Vbl_harness.Sweep.figure4 ~thread_counts:(panel_threads cfg) ~key_ranges cfg.engine
      ~seed:cfg.seed
  in
  if cfg.csv then
    print_endline (Vbl_harness.Report.points_csv (List.concat_map snd panels))
  else begin
    print_endline (Vbl_harness.Report.render_figure4 cfg.engine panels);
    print_newline ()
  end

let headlines cfg =
  let threads =
    match cfg.engine with
    | Vbl_harness.Sweep.Real _ -> max 2 (Domain.recommended_domain_count ())
    | Vbl_harness.Sweep.Simulated _ -> 72
  in
  print_endline
    (Vbl_harness.Report.render_headlines
       (Vbl_harness.Sweep.headlines ~threads cfg.engine ~seed:cfg.seed));
  print_newline ()

(* One panel per (update %, key range) cell, every algorithm at every
   thread count of the panel axis. *)
let sweep cfg ~title ~algorithms cells =
  let panels =
    List.map
      (fun (update_percent, key_range) ->
        ( Printf.sprintf "%d%% updates, key range %d" update_percent key_range,
          Vbl_harness.Sweep.series cfg.engine ~algorithms
            ~thread_counts:(panel_threads cfg) ~update_percent ~key_range ~seed:cfg.seed ))
      cells
  in
  if cfg.csv then print_endline (Vbl_harness.Report.points_csv (List.concat_map snd panels))
  else begin
    print_endline title;
    print_newline ();
    List.iter
      (fun (subtitle, points) ->
        print_endline
          (Vbl_harness.Report.render_panel ~engine:cfg.engine ~title:subtitle points);
        print_newline ())
      panels
  end

let ablation cfg =
  sweep cfg ~title:"== Ablation: value-aware pre-lock validation (vbl vs vbl-postlock) =="
    ~algorithms:[ "vbl"; "vbl-postlock"; "vbl-versioned"; "lazy" ]
    [ (20, 50) ]

(* Where each synchronisation strategy lands between coarse locking and
   VBL. *)
let family cfg =
  sweep cfg ~title:"== Extended family: every list algorithm =="
    ~algorithms:
      [
        "coarse";
        "hand-over-hand";
        "optimistic";
        "lazy";
        "harris-michael";
        "harris-michael-tagged";
        "fomitchev-ruppert";
        "vbl";
      ]
    [ (20, 50) ]

(* Does value-aware validation help a skip list the way it helps a list?
   (The [Vbl] header in lib/skiplists/lock_skiplist.ml says why the expected
   gap is small.) *)
let skiplists cfg =
  sweep cfg ~title:"== Extension: skip lists (paper §5 future work) =="
    ~algorithms:[ "lazy-skiplist"; "vbl-skiplist"; "lockfree-skiplist"; "vbl" ]
    [ (20, 50); (100, 50); (20, 2_000) ]

let trees cfg =
  sweep cfg ~title:"== Extension: BSTs (paper §5 future work) =="
    ~algorithms:[ "coarse-bst"; "vbl-bst"; "vbl-skiplist"; "vbl" ]
    [ (20, 200); (100, 200) ]

(* One simulated run at 20% updates, as a throughput cell. *)
let sim_cell cfg ?topology ~threads ~key_range ~horizon ~zipf algorithm =
  let r =
    Vbl_sim.Sim_run.run ~costs:cfg.costs ?topology
      (Vbl_harness.Sweep.find_instrumented algorithm)
      {
        Vbl_sim.Sim_run.threads;
        update_percent = 20;
        key_range;
        horizon;
        seed = cfg.seed;
        zipf;
      }
  in
  Vbl_util.Table.si_cell r.Vbl_sim.Sim_run.throughput

let kcycle_columns = List.map (fun a -> a ^ " (ops/kcycle)")

(* Zipfian keys concentrate traffic on the list prefix, recreating
   small-range contention inside a large range. *)
let zipf cfg =
  let algorithms = [ "lazy"; "harris-michael-tagged"; "vbl" ] in
  let table = Vbl_util.Table.create ("threads" :: kcycle_columns algorithms) in
  List.iter
    (fun threads ->
      Vbl_util.Table.add_row table
        (string_of_int threads
        :: List.map
             (sim_cell cfg ~threads ~key_range:2_000
                ~horizon:(if cfg.quick then 120_000. else 250_000.)
                ~zipf:(Some 1.0))
             algorithms))
    (sim_threads cfg.quick);
  print_table cfg
    "== Zipfian keys (s = 1.0), 20% updates, key range 2000 (simulated engine) ==" table

(* Cross-socket penalties hit the lock-handoff-heavy algorithms
   hardest. *)
let numa cfg =
  let algorithms = [ "lazy"; "vbl" ] in
  let table = Vbl_util.Table.create ("threads" :: "topology" :: kcycle_columns algorithms) in
  List.iter
    (fun threads ->
      List.iter
        (fun (name, topology) ->
          Vbl_util.Table.add_row table
            (string_of_int threads :: name
            :: List.map
                 (sim_cell cfg ~topology ~threads ~key_range:50
                    ~horizon:(if cfg.quick then 30_000. else 60_000.)
                    ~zipf:None)
                 algorithms))
        [ ("flat", Vbl_sim.Coherence.flat); ("4-socket", Vbl_sim.Coherence.intel_topology) ])
    (if cfg.quick then [ 24 ] else [ 24; 72 ]);
  print_table cfg "== 4-socket NUMA topology, 20% updates, key range 50 (simulated engine) =="
    table

(* The same mixed workload pushed through apply_batch at growing batch
   sizes, one domain.  Larger batches drain each shard's group in one
   pass, so consecutive operations revisit a cache-hot chain; batch
   size 1 prices the pure grouping overhead. *)
let batch cfg =
  let module S = Vbl_shard.Registry.Vbl_sharded_8 in
  let range = 20_000 in
  let rng = Vbl_util.Rng.create ~seed:cfg.seed () in
  let t = S.create () in
  for _ = 1 to range / 2 do
    ignore (S.insert t (1 + Vbl_util.Rng.int rng range))
  done;
  let gen_op () =
    let v = 1 + Vbl_util.Rng.int rng range in
    match Vbl_util.Rng.int rng 10 with
    | 0 -> Vbl_shard.Sharded_set.Insert v
    | 1 -> Vbl_shard.Sharded_set.Remove v
    | _ -> Vbl_shard.Sharded_set.Contains v
  in
  let duration = real_duration cfg.quick in
  let table = Vbl_util.Table.create [ "batch size"; "ops/s"; "vs batch 1" ] in
  let base = ref nan in
  List.iter
    (fun bs ->
      let ops = Array.init bs (fun _ -> gen_op ()) in
      let count = ref 0 in
      let t0 = Unix.gettimeofday () in
      let elapsed = ref 0. in
      while !elapsed < duration do
        for i = 0 to bs - 1 do
          ops.(i) <- gen_op ()
        done;
        ignore (S.apply_batch t ops);
        count := !count + bs;
        elapsed := Unix.gettimeofday () -. t0
      done;
      let rate = float_of_int !count /. !elapsed in
      if Float.is_nan !base then base := rate;
      Vbl_util.Table.add_row table
        [
          string_of_int bs;
          Vbl_util.Table.si_cell rate;
          Printf.sprintf "%+.1f%%" ((rate -. !base) /. !base *. 100.);
        ])
    [ 1; 16; 256 ];
  (match S.check_invariants t with
  | Ok () -> ()
  | Error m -> failwith ("sharded invariants after the batch ablation: " ^ m));
  print_table cfg
    "== Ablation: apply_batch batch size (vbl-sharded-8, 1 real domain, 20% updates, range \
     20000) =="
    table;
  (* splitmix64 routing should keep the shards within a few percent of
     each other. *)
  if not cfg.csv then begin
    print_string "per-shard load:";
    Array.iteri
      (fun i n -> Printf.printf " %s=%d" (Vbl_obs.Metrics.shard_label i) n)
      (S.shard_sizes t);
    print_string "\n\n"
  end

let targets =
  [
    ("fig1", fig1);
    ("fig4", fig4);
    ("headlines", headlines);
    ("ablation", ablation);
    ("family", family);
    ("skiplists", skiplists);
    ("trees", trees);
    ("zipf", zipf);
    ("numa", numa);
    ("batch", batch);
  ]

let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline msg;
      exit 2)
    fmt

(* Every flag and target is checked here, before anything is measured. *)
let parse argv =
  let engine = ref `Sim and quick = ref false and csv = ref false and seed = ref 42L in
  let machine = ref "intel" and chosen = ref [] in
  let n = Array.length argv in
  let rec go i =
    if i < n then begin
      let value () =
        if i + 1 < n then argv.(i + 1) else usage_error "%s needs a value" argv.(i)
      in
      match argv.(i) with
      | "--engine" ->
          (engine :=
             match value () with
             | "real" -> `Real
             | "sim" -> `Sim
             | e -> usage_error "--engine %s: expected real or sim" e);
          go (i + 2)
      | "--machine" ->
          let m = value () in
          if not (List.mem_assoc m Vbl_sim.Coherence.profiles) then
            usage_error "--machine %s: expected one of %s" m
              (String.concat ", " (List.map fst Vbl_sim.Coherence.profiles));
          machine := m;
          go (i + 2)
      | "--seed" ->
          let s = value () in
          (seed :=
             match Int64.of_string_opt s with
             | Some s -> s
             | None -> usage_error "--seed %s: expected an integer" s);
          go (i + 2)
      | "--quick" ->
          quick := true;
          go (i + 1)
      | "--csv" ->
          csv := true;
          go (i + 1)
      | "all" ->
          chosen := List.rev_append (List.map fst targets) !chosen;
          go (i + 1)
      | t when List.mem_assoc t targets ->
          chosen := t :: !chosen;
          go (i + 1)
      | other ->
          usage_error "unknown target %S (%s|all)" other
            (String.concat "|" (List.map fst targets))
    end
  in
  go 1;
  let costs = Vbl_sim.Coherence.profile_exn !machine in
  let chosen = if !chosen = [] then List.map fst targets else List.rev !chosen in
  ( !machine,
    { engine = engine_of costs (!engine, !quick); quick = !quick; csv = !csv; seed = !seed; costs },
    chosen )

let () =
  let machine, cfg, chosen = parse Sys.argv in
  if machine <> "intel" then Printf.printf "(machine profile: %s)\n\n" machine;
  List.iter (fun t -> (List.assoc t targets) cfg) chosen
