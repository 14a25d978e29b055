(* The benchmark harness: regenerates every figure of the paper's
   evaluation plus the ablations called out in DESIGN.md.

   Sections (all printed by a default run):

     1. Bechamel microbenchmarks — one Test.make group per figure/ablation:
          fig1-ops / fig4-ops      per-op latency on the paper's workloads
          ablation-functor         functorised VBL vs hand-specialised VBL
          ablation-marks           mark encodings (flag / AMR / tagged)
          skiplist-ops / bst-ops   the extension families
     2. Figure 1 — Lazy vs VBL thread sweep (simulated engine + real).
     3. Figure 4 — the 3x4 workload grid (simulated engine).
     4. Headlines — the 1.6x ratios quoted in the paper's prose.
     5. Ablations — vbl vs vbl-postlock vs vbl-versioned (validation
        strategies) on the Figure 1 workload.
     6. Extended family — all eight list algorithms on one workload.
     7. Extensions — skip lists and external BSTs (paper §5 future work).
     8. Appendix — zipfian hot-key workload.

   Flags: --quick (smaller sweeps), --full (paper-sized sweeps),
          --machine amd (Opteron cost profile), --skip-micro,
          --skip-figures.

   Observability modes (run instead of the figure suite):
          --metrics [--json FILE]  per-algorithm counter + latency tables
          --trace                  event-trace dump from a short sim run
          --smoke                  tiny metrics+trace exercise for CI
          --matrix [--json FILE]   real-engine scaling matrix
                                   (threads x update%% x key range) over the
                                   measured algorithms plus the vbl-direct
                                   ablation baseline and the reclamation
                                   on/off churn ablation; JSON in the
                                   BENCH_*.json schema
          --churn [--json FILE]    churn preset: update-heavy traffic on a
                                   small key range, each algorithm with
                                   reclamation off and on — throughput,
                                   retire/recycle counters, limbo depth and
                                   GC words per operation
          --profile [--algos a,b]  contention profile: wait-time-by-site
                                   table, hot-shard ranking, flight-recorder
                                   tail ([--interval S] adds periodic
                                   progress lines; composes with --smoke for
                                   a short CI-sized run)
          --export PREFIX          write PREFIX.metrics.txt (OpenMetrics)
                                   and PREFIX.trace.json (Chrome trace) from
                                   the last profiled run                   *)

open Bechamel
open Toolkit

let quick = Array.exists (( = ) "--quick") Sys.argv
let full = Array.exists (( = ) "--full") Sys.argv
let skip_micro = Array.exists (( = ) "--skip-micro") Sys.argv
let skip_figures = Array.exists (( = ) "--skip-figures") Sys.argv
let metrics_mode = Array.exists (( = ) "--metrics") Sys.argv
let trace_mode = Array.exists (( = ) "--trace") Sys.argv
let smoke = Array.exists (( = ) "--smoke") Sys.argv
let matrix_mode = Array.exists (( = ) "--matrix") Sys.argv
let churn_mode = Array.exists (( = ) "--churn") Sys.argv
let profile_mode = Array.exists (( = ) "--profile") Sys.argv

(* Bad input is rejected here, while the flags are read at start-up:
   one line on stderr and exit 2, before anything is measured. *)
let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline msg;
      exit 2)
    fmt

let flag_value name =
  let rec find i =
    if i >= Array.length Sys.argv then None
    else if Sys.argv.(i) <> name then find (i + 1)
    else if i + 1 < Array.length Sys.argv then Some Sys.argv.(i + 1)
    else usage_error "%s needs a value" name
  in
  find 1

(* An output path is checked up front, so a typo cannot cost a whole
   measured run. *)
let output_path name =
  let path = flag_value name in
  Option.iter
    (fun p ->
      let dir = Filename.dirname p in
      if not (Sys.file_exists dir && Sys.is_directory dir) then
        usage_error "%s %s: directory %s does not exist" name p dir)
    path;
  path

let json_file = output_path "--json"
let export_prefix = output_path "--export"

let interval_s =
  match flag_value "--interval" with
  | None -> None
  | Some s -> (
      match float_of_string_opt s with
      | Some x when x > 0. -> Some x
      | _ -> usage_error "--interval %s: expected a positive number of seconds" s)

let algos =
  match flag_value "--algos" with
  | None -> None
  | Some s ->
      let names = String.split_on_char ',' s in
      List.iter
        (fun a ->
          match Vbl_harness.Sweep.find_real a with
          | _ -> ()
          | exception Invalid_argument _ -> usage_error "--algos: unknown algorithm %S" a)
        names;
      Some names

let seed = 42L

(* ------------------------------------------------------------------ *)
(* 1. Bechamel microbenchmarks                                         *)
(* ------------------------------------------------------------------ *)

(* Per-op latency of each measured algorithm on a pre-populated list:
   one insert+remove pair and one contains per "run", uniform keys. *)
let ops_test ~range (impl : Vbl_lists.Registry.impl) =
  let module S = (val impl) in
  let t = S.create () in
  let rng = Vbl_util.Rng.create ~seed () in
  for v = 1 to range do
    if Vbl_util.Rng.bool rng then ignore (S.insert t v)
  done;
  Test.make ~name:S.name
    (Staged.stage (fun () ->
         let v = 1 + Vbl_util.Rng.int rng range in
         ignore (S.insert t v);
         ignore (S.contains t (1 + Vbl_util.Rng.int rng range));
         ignore (S.remove t v)))

let contains_test ~range (impl : Vbl_lists.Registry.impl) =
  let module S = (val impl) in
  let t = S.create () in
  let rng = Vbl_util.Rng.create ~seed () in
  for v = 1 to range do
    if Vbl_util.Rng.bool rng then ignore (S.insert t v)
  done;
  Test.make ~name:S.name
    (Staged.stage (fun () -> ignore (S.contains t (1 + Vbl_util.Rng.int rng range))))

let vbl_direct_test ~range =
  let t = Vbl_direct.create () in
  let rng = Vbl_util.Rng.create ~seed () in
  for v = 1 to range do
    if Vbl_util.Rng.bool rng then ignore (Vbl_direct.insert t v)
  done;
  Test.make ~name:"vbl-direct"
    (Staged.stage (fun () ->
         let v = 1 + Vbl_util.Rng.int rng range in
         ignore (Vbl_direct.insert t v);
         ignore (Vbl_direct.contains t (1 + Vbl_util.Rng.int rng range));
         ignore (Vbl_direct.remove t v)))

let micro_groups () =
  let measured = Vbl_lists.Registry.measured in
  let hm_amr = Vbl_lists.Registry.find_exn "harris-michael" in
  let vbl = Vbl_lists.Registry.find_exn "vbl" in
  let hm_tagged = Vbl_lists.Registry.find_exn "harris-michael-tagged" in
  [
    Test.make_grouped ~name:"fig1-ops" (List.map (ops_test ~range:50) measured);
    Test.make_grouped ~name:"fig4-ops"
      (List.map (ops_test ~range:2_000) (measured @ [ hm_amr ]));
    Test.make_grouped ~name:"ablation-functor"
      [ ops_test ~range:200 vbl; vbl_direct_test ~range:200 ];
    Test.make_grouped ~name:"ablation-marks"
      (List.map (contains_test ~range:200) [ vbl; hm_amr; hm_tagged ]);
    Test.make_grouped ~name:"skiplist-ops"
      (List.map (ops_test ~range:2_000) Vbl_skiplists.Registry.all
      @ [ ops_test ~range:2_000 vbl ]);
    Test.make_grouped ~name:"bst-ops"
      (List.map (ops_test ~range:2_000) Vbl_trees.Registry.concurrent);
  ]

let run_micro () =
  let quota = Time.second (if quick then 0.25 else 0.5) in
  let cfg = Benchmark.cfg ~limit:2000 ~quota ~kde:None () in
  let instances = Instance.[ monotonic_clock ] in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  print_endline "== Microbenchmarks (Bechamel, ns/op, single thread, real backend) ==";
  List.iter
    (fun group ->
      let raw = Benchmark.all cfg instances group in
      let results = Analyze.all ols Instance.monotonic_clock raw in
      let rows =
        Hashtbl.fold
          (fun name ols acc ->
            let est =
              match Analyze.OLS.estimates ols with Some (e :: _) -> e | _ -> nan
            in
            (name, est) :: acc)
          results []
      in
      List.iter
        (fun (name, est) -> Printf.printf "  %-40s %12.1f ns/op\n" name est)
        (List.sort compare rows);
      print_newline ())
    (micro_groups ())

(* ------------------------------------------------------------------ *)
(* 2-5. Figure harness                                                  *)
(* ------------------------------------------------------------------ *)

(* --machine amd switches the coherence profile to the paper's Opteron
   testbed (its tech-report results); default is the Intel profile. *)
let machine =
  let rec find i =
    if i + 1 >= Array.length Sys.argv then "intel"
    else if Sys.argv.(i) = "--machine" then Sys.argv.(i + 1)
    else find (i + 1)
  in
  find 1

let sim_engine =
  Vbl_harness.Sweep.simulated
    ~costs:(Vbl_sim.Coherence.profile_exn machine)
    ~horizon:(if quick then 30_000. else if full then 200_000. else 50_000.)
    ~trials:(if quick then 2 else if full then 5 else 2)
    ()

let real_engine =
  Vbl_harness.Sweep.Real
    {
      duration_s = (if quick then 0.2 else if full then 5.0 else 0.5);
      warmup_s = (if quick then 0.1 else if full then 5.0 else 0.25);
      trials = (if quick then 2 else if full then 5 else 3);
    }

let sim_threads =
  if quick then [ 1; 8; 24; 48; 72 ] else [ 1; 4; 8; 16; 24; 32; 40; 48; 56; 64; 72 ]

let real_threads =
  let cores = Domain.recommended_domain_count () in
  List.sort_uniq compare (List.filter (fun t -> t <= max 2 (2 * cores)) [ 1; 2; 4; 8 ])

let figure1 () =
  print_endline "== Figure 1: throughput, 20% updates, key range 50 ==";
  print_newline ();
  let sim = Vbl_harness.Sweep.figure1 ~thread_counts:sim_threads sim_engine ~seed in
  print_endline (Vbl_harness.Report.render_figure1 sim_engine sim);
  print_newline ();
  let real = Vbl_harness.Sweep.figure1 ~thread_counts:real_threads real_engine ~seed in
  print_endline (Vbl_harness.Report.render_figure1 real_engine real);
  Printf.printf "\n(real engine bounded by %d physical cores on this host)\n\n"
    (Domain.recommended_domain_count ())

let figure4 () =
  print_endline "== Figure 4: the 3-ratio x 4-range grid (simulated engine) ==";
  print_newline ();
  (* The two large ranges cost O(range) simulated steps per operation;
     the default sweep keeps them to three thread counts so a full default
     run stays under an hour on one core.  --full restores the dense
     sweep. *)
  let thread_counts =
    if quick then [ 1; 24; 72 ] else if full then [ 1; 8; 24; 48; 72 ] else [ 1; 24; 72 ]
  in
  let key_ranges =
    if quick then [ 50; 2_000 ] else Vbl_harness.Workload.paper_key_ranges
  in
  let panels =
    Vbl_harness.Sweep.figure4 ~thread_counts ~key_ranges sim_engine ~seed
  in
  print_endline (Vbl_harness.Report.render_figure4 sim_engine panels);
  print_newline ()

let headlines () =
  print_endline "== Headline ratios ==";
  print_endline
    (Vbl_harness.Report.render_headlines
       (Vbl_harness.Sweep.headlines ~threads:72 sim_engine ~seed));
  print_newline ()

(* The whole list family on one contended workload: where each synchroni-
   sation strategy lands between coarse locking and VBL. *)
let family_sweep () =
  print_endline "== Extended family: every list algorithm, 20% updates, range 50 ==";
  print_newline ();
  let points =
    Vbl_harness.Sweep.series sim_engine
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
      ~thread_counts:(if quick then [ 1; 24 ] else [ 1; 8; 24; 48; 72 ])
      ~update_percent:20 ~key_range:50 ~seed
  in
  print_endline
    (Vbl_harness.Report.render_panel ~engine:sim_engine ~title:"20% updates, key range 50"
       points);
  print_newline ()

(* The paper's future-work direction: does value-aware validation help a
   skip list the way it helps a list?  (See lib/skiplists/vbl_skiplist.ml
   for why the expected gap is small.) *)
let skiplist_sweep () =
  print_endline "== Extension: skip lists (paper §5 future work) ==";
  print_newline ();
  List.iter
    (fun (update, range) ->
      let points =
        Vbl_harness.Sweep.series sim_engine
          ~algorithms:[ "lazy-skiplist"; "vbl-skiplist"; "lockfree-skiplist"; "vbl" ]
          ~thread_counts:(if quick then [ 1; 24 ] else [ 1; 8; 24; 48; 72 ])
          ~update_percent:update ~key_range:range ~seed
      in
      print_endline
        (Vbl_harness.Report.render_panel ~engine:sim_engine
           ~title:(Printf.sprintf "%d%% updates, key range %d" update range)
           points);
      print_newline ())
    [ (20, 50); (100, 50); (20, 2_000) ]

(* The other future-work direction: the external BST with VBL-style
   value-aware synchronisation vs its coarse-locked anchor. *)
let tree_sweep () =
  print_endline "== Extension: external BSTs (paper §5 future work) ==";
  print_newline ();
  List.iter
    (fun (update, range) ->
      let points =
        Vbl_harness.Sweep.series sim_engine
          ~algorithms:[ "coarse-bst"; "vbl-bst"; "vbl-skiplist"; "vbl" ]
          ~thread_counts:(if quick then [ 1; 24 ] else [ 1; 8; 24; 48; 72 ])
          ~update_percent:update ~key_range:range ~seed
      in
      print_endline
        (Vbl_harness.Report.render_panel ~engine:sim_engine
           ~title:(Printf.sprintf "%d%% updates, key range %d" update range)
           points);
      print_newline ())
    [ (20, 200); (100, 200) ]

(* Hot-key appendix: zipfian keys concentrate traffic on the list prefix,
   recreating small-range contention inside a large range — a synchrobench
   workload family the paper leaves on the table. *)
let zipf_sweep () =
  print_endline "== Appendix: zipfian keys (s = 1.0), 20% updates, key range 2000 ==";
  print_newline ();
  let threads_list = if quick then [ 1; 24 ] else [ 1; 8; 24; 48; 72 ] in
  let table =
    Vbl_util.Table.create
      [ "threads"; "lazy (ops/kcycle)"; "hm-tagged (ops/kcycle)"; "vbl (ops/kcycle)" ]
  in
  List.iter
    (fun threads ->
      let run name =
        let impl = Vbl_harness.Sweep.find_instrumented name in
        let r =
          Vbl_sim.Sim_run.run impl
            {
              Vbl_sim.Sim_run.threads;
              update_percent = 20;
              key_range = 2_000;
              horizon = (if quick then 120_000. else 250_000.);
              seed;
              zipf = Some 1.0;
            }
        in
        Vbl_util.Table.si_cell r.Vbl_sim.Sim_run.throughput
      in
      Vbl_util.Table.add_row table
        [ string_of_int threads; run "lazy"; run "harris-michael-tagged"; run "vbl" ])
    threads_list;
  print_endline (Vbl_util.Table.render table);
  print_newline ()

(* NUMA appendix: the same Figure 1 point under the paper's 4-socket
   topology — cross-socket penalties hit the lock-handoff-heavy algorithms
   hardest. *)
let numa_sweep () =
  print_endline "== Appendix: 4-socket NUMA topology, 20% updates, range 50 ==";
  print_newline ();
  let table =
    Vbl_util.Table.create
      [ "threads"; "topology"; "lazy (ops/kcycle)"; "vbl (ops/kcycle)" ]
  in
  let horizon = if quick then 30_000. else 60_000. in
  List.iter
    (fun threads ->
      List.iter
        (fun (tname, topology) ->
          let run name =
            let impl = Vbl_harness.Sweep.find_instrumented name in
            let r =
              Vbl_sim.Sim_run.run
                ~costs:(Vbl_sim.Coherence.profile_exn machine)
                ~topology impl
                {
                  Vbl_sim.Sim_run.threads;
                  update_percent = 20;
                  key_range = 50;
                  horizon;
                  seed;
                  zipf = None;
                }
            in
            Vbl_util.Table.si_cell r.Vbl_sim.Sim_run.throughput
          in
          Vbl_util.Table.add_row table
            [ string_of_int threads; tname; run "lazy"; run "vbl" ])
        [ ("flat", Vbl_sim.Coherence.flat); ("4-socket", Vbl_sim.Coherence.intel_topology) ])
    (if quick then [ 24 ] else [ 24; 72 ]);
  print_endline (Vbl_util.Table.render table);
  print_newline ()

let ablation_sweep () =
  print_endline "== Ablation: value-aware pre-lock validation (vbl vs vbl-postlock) ==";
  print_newline ();
  let points =
    Vbl_harness.Sweep.series sim_engine
      ~algorithms:[ "vbl"; "vbl-postlock"; "vbl-versioned"; "lazy" ]
      ~thread_counts:(if quick then [ 1; 24; 72 ] else [ 1; 8; 24; 48; 72 ])
      ~update_percent:20 ~key_range:50 ~seed
  in
  print_endline
    (Vbl_harness.Report.render_panel ~engine:sim_engine
       ~title:"20% updates, key range 50" points);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Scaling matrix (--matrix [--json FILE])                             *)
(* ------------------------------------------------------------------ *)

let vbl_direct_impl : (module Vbl_lists.Set_intf.S) = (module Vbl_direct)

(* The real-engine scaling matrix: every measured algorithm (plus the
   AMR Harris-Michael and the hand-specialised vbl-direct ablation
   baseline) at every host thread count, update ratio and key range.
   Counters and latency are collected as in --metrics so the JSON matches
   the BENCH_*.json schema of earlier snapshots and bench/compare_bench
   can diff two of them. *)
let matrix_algorithms =
  [
    "vbl";
    "lazy";
    "harris-michael";
    "harris-michael-tagged";
    (* skiplist family *)
    "vbl-skiplist";
    "lazy-skiplist";
    "lockfree-skiplist";
    (* tree family *)
    "vbl-bst";
    "lazy-bst";
    "lockfree-bst";
  ]

let matrix_updates = [ 0; 20; 100 ]
let matrix_ranges = [ 50; 200; 2_000; 20_000 ]

let run_matrix () =
  Printf.printf "== Scaling matrix: %s threads x %s%% updates x range %s ==\n"
    (String.concat "/" (List.map string_of_int real_threads))
    (String.concat "/" (List.map string_of_int matrix_updates))
    (String.concat "/" (List.map string_of_int matrix_ranges));
  Printf.printf "   (real engine, %d cores on this host)\n\n"
    (Domain.recommended_domain_count ());
  let points = ref [] in
  let record (p : Vbl_harness.Sweep.point) =
    points := p :: !points;
    Printf.printf "  %-22s t=%d u=%3d%% r=%-6d  %s ops/s\n%!" p.Vbl_harness.Sweep.algorithm
      p.Vbl_harness.Sweep.threads p.Vbl_harness.Sweep.update_percent
      p.Vbl_harness.Sweep.key_range
      (Vbl_util.Table.si_cell (Vbl_harness.Sweep.point_mean p))
  in
  List.iter
    (fun key_range ->
      List.iter
        (fun update_percent ->
          List.iter
            (fun threads ->
              List.iter
                (fun algorithm ->
                  record
                    (Vbl_harness.Sweep.measure ~metrics:true real_engine ~algorithm
                       ~threads ~update_percent ~key_range ~seed))
                matrix_algorithms;
              record
                (Vbl_harness.Sweep.measure_impl ~metrics:true real_engine vbl_direct_impl
                   ~algorithm:"vbl-direct" ~threads ~update_percent ~key_range ~seed))
            real_threads)
        matrix_updates)
    matrix_ranges;
  let points = List.rev !points in
  print_newline ();
  (* Ablation: what the functor-over-MEM architecture costs the VBL hot
     path, per workload cell.  Positive overhead means the hand-specialised
     baseline is faster. *)
  print_endline "== Ablation: functorised vbl vs hand-specialised vbl-direct ==";
  print_newline ();
  let find algo threads update range =
    List.find_opt
      (fun (p : Vbl_harness.Sweep.point) ->
        p.Vbl_harness.Sweep.algorithm = algo
        && p.Vbl_harness.Sweep.threads = threads
        && p.Vbl_harness.Sweep.update_percent = update
        && p.Vbl_harness.Sweep.key_range = range)
      points
  in
  let table =
    Vbl_util.Table.create
      [ "threads"; "update%"; "range"; "vbl (ops/s)"; "vbl-direct (ops/s)"; "overhead" ]
  in
  List.iter
    (fun range ->
      List.iter
        (fun update ->
          List.iter
            (fun threads ->
              match (find "vbl" threads update range, find "vbl-direct" threads update range) with
              | Some pv, Some pd ->
                  let mv = Vbl_harness.Sweep.point_mean pv
                  and md = Vbl_harness.Sweep.point_mean pd in
                  Vbl_util.Table.add_row table
                    [
                      string_of_int threads;
                      string_of_int update;
                      string_of_int range;
                      Vbl_util.Table.si_cell mv;
                      Vbl_util.Table.si_cell md;
                      Printf.sprintf "%+.1f%%" ((md -. mv) /. md *. 100.);
                    ]
              | _ -> ())
            real_threads)
        matrix_updates)
    matrix_ranges;
  print_endline (Vbl_util.Table.render table);
  (match (find "vbl" 2 20 200, find "vbl-direct" 2 20 200) with
  | Some pv, Some pd ->
      let mv = Vbl_harness.Sweep.point_mean pv
      and md = Vbl_harness.Sweep.point_mean pd in
      Printf.printf
        "\nheadline cell (2 threads, 20%% updates, range 200): functor overhead %+.1f%%\n"
        ((md -. mv) /. md *. 100.)
  | _ -> ());
  print_newline ();
  points

(* ------------------------------------------------------------------ *)
(* Sharding section of the matrix                                      *)
(* ------------------------------------------------------------------ *)

(* Shard-count scaling: the sharded frontends against the single-list
   vbl baseline.  The thread axis is fixed at 1..8 independently of the
   host core count — the headline cell (8 domains, 20% updates, range
   2e4) is traversal-bound, not parallelism-bound: 8 shards cut the
   expected traversal to 1/8th of the single list's, so the ratio holds
   even when the domains time-share one core. *)
let shard_algorithms =
  [ "vbl"; "vbl-sharded-2"; "vbl-sharded-4"; "vbl-sharded-8"; "vbl-sharded-16" ]

let shard_threads = [ 1; 2; 4; 8 ]
let shard_ranges = [ 2_000; 20_000 ]

let run_shard_matrix () =
  Printf.printf "== Sharding: %s threads x 20%% updates x range %s ==\n\n"
    (String.concat "/" (List.map string_of_int shard_threads))
    (String.concat "/" (List.map string_of_int shard_ranges));
  let points = ref [] in
  List.iter
    (fun key_range ->
      List.iter
        (fun threads ->
          List.iter
            (fun algorithm ->
              let p =
                Vbl_harness.Sweep.measure ~metrics:true real_engine ~algorithm ~threads
                  ~update_percent:20 ~key_range ~seed
              in
              points := p :: !points;
              Printf.printf "  %-22s t=%d u= 20%% r=%-6d  %s ops/s\n%!"
                p.Vbl_harness.Sweep.algorithm p.Vbl_harness.Sweep.threads
                p.Vbl_harness.Sweep.key_range
                (Vbl_util.Table.si_cell (Vbl_harness.Sweep.point_mean p)))
            shard_algorithms)
        shard_threads)
    shard_ranges;
  let points = List.rev !points in
  print_newline ();
  let find algo threads range =
    List.find_opt
      (fun (p : Vbl_harness.Sweep.point) ->
        p.Vbl_harness.Sweep.algorithm = algo
        && p.Vbl_harness.Sweep.threads = threads
        && p.Vbl_harness.Sweep.key_range = range)
      points
  in
  print_endline "== Shard-count scaling (ops/s, 20% updates) ==";
  print_newline ();
  let table =
    Vbl_util.Table.create
      ([ "range"; "threads" ] @ shard_algorithms @ [ "sharded-8 / vbl" ])
  in
  List.iter
    (fun range ->
      List.iter
        (fun threads ->
          let cells =
            List.map
              (fun algo ->
                match find algo threads range with
                | Some p -> Vbl_util.Table.si_cell (Vbl_harness.Sweep.point_mean p)
                | None -> "-")
              shard_algorithms
          in
          let ratio =
            match (find "vbl" threads range, find "vbl-sharded-8" threads range) with
            | Some pv, Some ps ->
                Printf.sprintf "%.2fx"
                  (Vbl_harness.Sweep.point_mean ps /. Vbl_harness.Sweep.point_mean pv)
            | _ -> "-"
          in
          Vbl_util.Table.add_row table
            ([ string_of_int range; string_of_int threads ] @ cells @ [ ratio ]))
        shard_threads)
    shard_ranges;
  print_endline (Vbl_util.Table.render table);
  (match (find "vbl" 8 20_000, find "vbl-sharded-8" 8 20_000) with
  | Some pv, Some ps ->
      let mv = Vbl_harness.Sweep.point_mean pv
      and ms = Vbl_harness.Sweep.point_mean ps in
      Printf.printf
        "\nheadline cell (8 domains, 20%% updates, range 20000): vbl-sharded-8 = %.2fx vbl\n"
        (ms /. mv)
  | _ -> ());
  print_newline ();
  points

(* Batch-vs-single-op ablation: the same mixed workload pushed through
   apply_batch at growing batch sizes, one domain.  Larger batches drain
   each shard's group in one pass, so consecutive operations revisit a
   cache-hot chain; batch size 1 prices the pure grouping overhead. *)
let run_batch_ablation () =
  print_endline "== Ablation: apply_batch batch size (vbl-sharded-8, 1 domain, 20% updates, range 20000) ==";
  print_newline ();
  let module S = Vbl_shard.Registry.Vbl_sharded_8 in
  let range = 20_000 in
  let rng = Vbl_util.Rng.create ~seed () in
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
  let duration = if quick then 0.15 else if full then 1.0 else 0.4 in
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
  print_endline (Vbl_util.Table.render table);
  (* Per-shard load at the end of the ablation: splitmix64 routing should
     keep the shards within a few percent of each other. *)
  let sizes = S.shard_sizes t in
  print_string "per-shard load:";
  Array.iteri
    (fun i n -> Printf.printf " %s=%d" (Vbl_obs.Metrics.shard_label i) n)
    sizes;
  print_newline ();
  (match S.check_invariants t with
  | Ok () -> ()
  | Error m -> failwith ("sharded invariants after ablation: " ^ m));
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Churn preset (--churn; also the --matrix reclamation ablation)      *)
(* ------------------------------------------------------------------ *)

(* Update-heavy traffic on a small key range: nodes churn through
   unlink/retire/recycle continuously, the workload the reclamation
   layer exists for.  Each algorithm runs with reclamation off and on
   (same sources, different MEM backend), so the delta prices the epoch
   brackets and the recycling win together.  GC words per operation come
   from the {!Vbl_obs.Gcstats} delta the runner rebases around the
   measured trials. *)
let churn_update_percent = 90
let churn_key_range = 256

let churn_pairs =
  [
    ("vbl", "vbl-reclaim");
    ("lazy", "lazy-reclaim");
    ("harris-michael", "harris-michael-reclaim");
  ]

let run_churn () =
  Printf.printf "== Churn: %s threads, %d%% updates, key range %d ==\n\n"
    (String.concat "/" (List.map string_of_int real_threads))
    churn_update_percent churn_key_range;
  let points = ref [] in
  let measure algorithm threads =
    let p =
      Vbl_harness.Sweep.measure ~metrics:true real_engine ~algorithm ~threads
        ~update_percent:churn_update_percent ~key_range:churn_key_range ~seed
    in
    let gc = Vbl_obs.Gcstats.delta () in
    points := p :: !points;
    Printf.printf "  %-24s t=%d  %s ops/s\n%!" algorithm threads
      (Vbl_util.Table.si_cell (Vbl_harness.Sweep.point_mean p));
    (p, gc.Vbl_obs.Gcstats.minor_words /. float_of_int (max 1 p.Vbl_harness.Sweep.ops))
  in
  let table =
    Vbl_util.Table.create
      [
        "threads"; "algorithm"; "ops/s"; "vs plain"; "retired"; "recycled"; "limbo";
        "minor words/op";
      ]
  in
  List.iter
    (fun threads ->
      List.iter
        (fun (plain, reclaiming) ->
          let pp, plain_words = measure plain threads in
          let pr, reclaim_words = measure reclaiming threads in
          let mp = Vbl_harness.Sweep.point_mean pp
          and mr = Vbl_harness.Sweep.point_mean pr in
          let counter c =
            match pr.Vbl_harness.Sweep.metrics with
            | Some s -> Vbl_obs.Metrics.get s c
            | None -> 0
          in
          let retired = counter Vbl_obs.Metrics.Reclaim_retired
          and recycled = counter Vbl_obs.Metrics.Reclaim_recycled
          and freed = counter Vbl_obs.Metrics.Reclaim_freed in
          Vbl_util.Table.add_row table
            [
              string_of_int threads; plain; Vbl_util.Table.si_cell mp; "-"; "-"; "-"; "-";
              Printf.sprintf "%.1f" plain_words;
            ];
          Vbl_util.Table.add_row table
            [
              string_of_int threads;
              reclaiming;
              Vbl_util.Table.si_cell mr;
              Printf.sprintf "%+.1f%%" ((mr -. mp) /. mp *. 100.);
              Vbl_util.Table.si_cell (float_of_int retired);
              Vbl_util.Table.si_cell (float_of_int recycled);
              string_of_int (retired - freed);
              Printf.sprintf "%.1f" reclaim_words;
            ])
        churn_pairs)
    real_threads;
  print_newline ();
  print_endline "== Ablation: reclamation off vs on (churn workload) ==";
  print_newline ();
  print_endline (Vbl_util.Table.render table);
  print_newline ();
  List.rev !points

(* vbl-direct must agree with the functorised vbl on every operation
   result — the ablation is meaningless if the baseline drifts.  Driven
   under --smoke so `dune runtest` asserts it. *)
let direct_parity () =
  let module S = (val Vbl_lists.Registry.find_exn "vbl" : Vbl_lists.Set_intf.S) in
  let reference = S.create () in
  let direct = Vbl_direct.create () in
  let rng = Vbl_util.Rng.create ~seed () in
  let range = 64 in
  let ops = 20_000 in
  for i = 1 to ops do
    let v = 1 + Vbl_util.Rng.int rng range in
    let want, got =
      match Vbl_util.Rng.int rng 3 with
      | 0 -> (S.insert reference v, Vbl_direct.insert direct v)
      | 1 -> (S.remove reference v, Vbl_direct.remove direct v)
      | _ -> (S.contains reference v, Vbl_direct.contains direct v)
    in
    if got <> want then
      failwith (Printf.sprintf "vbl-direct parity: op %d on key %d diverged" i v)
  done;
  if Vbl_direct.to_list direct <> S.to_list reference then
    failwith "vbl-direct parity: final contents diverge";
  (match Vbl_direct.check_invariants direct with
  | Ok () -> ()
  | Error m -> failwith ("vbl-direct invariants: " ^ m));
  Printf.printf "vbl-direct parity vs registry vbl: OK (%d ops, range %d)\n\n" ops range

(* ------------------------------------------------------------------ *)
(* Observability modes                                                 *)
(* ------------------------------------------------------------------ *)

(* Counter + latency tables for a few algorithms on one workload: the
   numbers that explain the throughput gaps — restarts, lock failures
   split by field, traversal length, p50/p99 latency per op kind. *)
let metrics_section ~algorithms ~threads ~update_percent ~key_range ~engine () =
  let points =
    List.map
      (fun algorithm ->
        Vbl_harness.Sweep.measure ~metrics:true engine ~algorithm ~threads
          ~update_percent ~key_range ~seed)
      algorithms
  in
  print_endline
    (Vbl_harness.Report.render_metrics
       ~title:
         (Printf.sprintf
            "== Per-operation counters: %d threads, %d%% updates, range %d [%s] =="
            threads update_percent key_range
            (Vbl_harness.Report.engine_name engine))
       points);
  print_newline ();
  if List.exists (fun p -> p.Vbl_harness.Sweep.latency <> []) points then begin
    print_endline
      (Vbl_harness.Report.render_latency ~title:"== Per-operation latency (ns) ==" points);
    print_newline ()
  end;
  print_endline "-- counters as CSV --";
  print_string (Vbl_harness.Report.metrics_csv points);
  print_newline ();
  (match json_file with
  | Some file ->
      let oc = open_out file in
      output_string oc (Vbl_harness.Report.points_json ~engine points);
      output_string oc "\n";
      close_out oc;
      Printf.printf "(wrote %s)\n" file
  | None -> ());
  points

(* A short deterministic simulated run with the trace sink installed:
   every conductor step becomes one event line, schedule-replay style. *)
let trace_section ~events () =
  print_endline "== Event trace: vbl, 2 threads, 50% updates, range 8 (simulated) ==";
  print_newline ();
  let tr = Vbl_obs.Trace.create () in
  Vbl_obs.Probe.install (Vbl_obs.Probe.tracer tr);
  let engine = Vbl_harness.Sweep.simulated ~horizon:600. ~trials:1 () in
  ignore
    (Vbl_harness.Sweep.measure engine ~algorithm:"vbl" ~threads:2 ~update_percent:50
       ~key_range:8 ~seed);
  Vbl_obs.Probe.uninstall ();
  let all = Vbl_obs.Trace.events tr in
  let shown = List.filteri (fun i _ -> i < events) all in
  List.iter (fun e -> print_endline ("  " ^ Vbl_obs.Trace.event_to_string e)) shown;
  Printf.printf "\n(%d events emitted, %d dropped from the ring, first %d shown)\n\n"
    (Vbl_obs.Trace.emitted tr) (Vbl_obs.Trace.dropped tr) (List.length shown)

(* ------------------------------------------------------------------ *)
(* Contention profile (--profile [--export PREFIX] [--interval S])     *)
(* ------------------------------------------------------------------ *)

let write_file file s =
  let oc = open_out file in
  output_string oc s;
  close_out oc

(* Export the process's current profiling state: the OpenMetrics text of
   every counter + contention histogram + shard traffic, and the flight
   recorder as a Chrome trace.  Runner resets that state per profiled run,
   so this snapshots the {e last} one. *)
let export_run prefix =
  let metrics_file = prefix ^ ".metrics.txt" in
  let trace_file = prefix ^ ".trace.json" in
  write_file metrics_file (Vbl_obs.Export.openmetrics_of_run ());
  write_file trace_file
    (Vbl_obs.Export.chrome_trace_of_entries (Vbl_obs.Recorder.entries ()));
  Printf.printf "(wrote %s and %s — load the trace in about:tracing)\n" metrics_file
    trace_file

let run_profile ~engine () =
  let algorithms = Option.value algos ~default:[ "vbl"; "vbl-sharded-8" ] in
  let threads = max 2 (min 4 (Domain.recommended_domain_count ())) in
  let update_percent = 50 and key_range = 512 in
  List.iter
    (fun algorithm ->
      Printf.printf "== Contention profile: %s, %d threads, %d%% updates, range %d ==\n\n"
        algorithm threads update_percent key_range;
      let p =
        Vbl_harness.Sweep.measure ~profile:true ?interval_s engine ~algorithm ~threads
          ~update_percent ~key_range ~seed
      in
      Printf.printf "throughput: %s ops/s\n\n"
        (Vbl_util.Table.si_cell (Vbl_harness.Sweep.point_mean p));
      print_string (Vbl_obs.Contention.render_site_table ());
      print_newline ();
      let shards = Vbl_obs.Contention.render_hot_shards () in
      if shards <> "" then begin
        print_string shards;
        print_newline ()
      end;
      print_string (Vbl_obs.Recorder.dump ~last:8 ());
      print_newline ())
    algorithms;
  (* The export snapshots the last profiled algorithm (state is reset per
     run). *)
  Option.iter export_run export_prefix

let metrics_threads = max 2 (min 4 (Domain.recommended_domain_count ()))

let run_metrics_mode () =
  let algorithms = Option.value algos ~default:[ "vbl"; "lazy"; "harris-michael-tagged" ] in
  ignore
    (metrics_section ~algorithms ~threads:metrics_threads ~update_percent:20
       ~key_range:200 ~engine:real_engine ())

(* Tiny end-to-end exercise of the metrics/trace path, cheap enough for
   `dune runtest` (the smoke alias in bench/dune). *)
let run_smoke () =
  direct_parity ();
  ignore
    (metrics_section ~algorithms:[ "vbl"; "lazy" ] ~threads:2 ~update_percent:20
       ~key_range:64
       ~engine:(Vbl_harness.Sweep.Real { duration_s = 0.05; warmup_s = 0.02; trials = 1 })
       ());
  (* And the same counters through the simulated engine: the probes live in
     the shared functor code, so both engines must produce them. *)
  ignore
    (metrics_section ~algorithms:[ "vbl" ] ~threads:2 ~update_percent:20 ~key_range:64
       ~engine:(Vbl_harness.Sweep.simulated ~horizon:2_000. ~trials:1 ())
       ());
  trace_section ~events:12 ()

let () =
  if smoke then begin
    print_endline "vbl benchmark harness (smoke mode)\n";
    run_smoke ();
    (* --smoke --profile: the CI-sized profile pass, short trials but the
       full pipeline — site table, hot shards, recorder, exporters. *)
    if profile_mode then
      run_profile
        ~engine:(Vbl_harness.Sweep.Real { duration_s = 0.08; warmup_s = 0.02; trials = 1 })
        ()
  end
  else if profile_mode then begin
    print_endline "vbl benchmark harness (profile mode)\n";
    run_profile ~engine:real_engine ()
  end
  else if matrix_mode then begin
    print_endline "vbl benchmark harness (matrix mode)\n";
    let points = run_matrix () in
    let shard_points = run_shard_matrix () in
    let churn_points = run_churn () in
    run_batch_ablation ();
    match json_file with
    | Some file ->
        let points = points @ shard_points @ churn_points in
        let oc = open_out file in
        output_string oc (Vbl_harness.Report.points_json ~engine:real_engine points);
        output_string oc "\n";
        close_out oc;
        Printf.printf "(wrote %s: %d points)\n" file (List.length points)
    | None -> ()
  end
  else if churn_mode then begin
    print_endline "vbl benchmark harness (churn mode)\n";
    let points = run_churn () in
    match json_file with
    | Some file ->
        let oc = open_out file in
        output_string oc (Vbl_harness.Report.points_json ~engine:real_engine points);
        output_string oc "\n";
        close_out oc;
        Printf.printf "(wrote %s: %d points)\n" file (List.length points)
    | None -> ()
  end
  else if metrics_mode || trace_mode then begin
    Printf.printf "vbl benchmark harness (observability mode)\n\n";
    if metrics_mode then run_metrics_mode ();
    if trace_mode then trace_section ~events:30 ()
  end
  else begin
    Printf.printf "vbl benchmark harness (%s mode)\n\n"
      (if quick then "quick" else if full then "full" else "default");
    if not skip_micro then run_micro ();
    if not skip_figures then begin
      figure1 ();
      figure4 ();
      headlines ();
      ablation_sweep ();
      family_sweep ();
      skiplist_sweep ();
      tree_sweep ();
      zipf_sweep ();
      numa_sweep ()
    end
  end
