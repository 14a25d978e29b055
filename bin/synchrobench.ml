(* synchrobench — benchmark one list algorithm under one workload, in the
   style of the Synchrobench suite the paper uses (gramoli/synchrobench):

     synchrobench -a vbl -t 8 -u 20 -r 2000 -d 2 -n 5
     synchrobench --engine sim -a lazy -t 72 -u 20 -r 50
     synchrobench -a vbl --matrix --csv

   The real engine uses OCaml domains on this host; the sim engine runs the
   same algorithm on the deterministic coherence-model multicore, which is
   how thread counts beyond the physical core count stay meaningful.

   --matrix sweeps the scaling grid (threads up to -t doubling, update
   ratios 0/20/100, key ranges 50/200/2000/20000) for one algorithm instead
   of a single point.  The special algorithm "vbl-direct" (real engine
   only) is the hand-specialised ablation baseline from bench/. *)

open Cmdliner

let algorithms () = Vbl_harness.Sweep.names @ [ "vbl-direct" ]

(* The ablation baseline lives outside the registries (bench/) and has no
   instrumented counterpart, so it is real-engine only. *)
let measure_point ~metrics ~profile ?interval_s engine_v ~algorithm ~threads ~update_percent
    ~key_range ~seed =
  if algorithm = "vbl-direct" then
    Vbl_harness.Sweep.measure_impl ~metrics ~profile ?interval_s engine_v
      (module Vbl_direct : Vbl_lists.Set_intf.S)
      ~algorithm ~threads ~update_percent ~key_range ~seed
  else
    Vbl_harness.Sweep.measure ~metrics ~profile ?interval_s engine_v ~algorithm ~threads
      ~update_percent ~key_range ~seed

let algo_arg =
  let doc =
    Printf.sprintf "Algorithm to benchmark. One of: %s."
      (String.concat ", " (algorithms ()))
  in
  Arg.(value & opt string "vbl" & info [ "a"; "algorithm" ] ~docv:"ALGO" ~doc)

let threads_arg =
  Arg.(value & opt int 2 & info [ "t"; "threads" ] ~docv:"N" ~doc:"Number of threads.")

let update_arg =
  Arg.(
    value & opt int 20
    & info [ "u"; "update" ] ~docv:"PCT"
        ~doc:"Update percentage: PCT/2 inserts, PCT/2 removes, rest contains.")

let range_arg =
  Arg.(
    value & opt int 200
    & info [ "r"; "range" ] ~docv:"RANGE" ~doc:"Keys are uniform in [1, RANGE].")

let duration_arg =
  Arg.(
    value & opt float 1.0
    & info [ "d"; "duration" ] ~docv:"SECONDS" ~doc:"Measured duration per trial (real engine).")

let warmup_arg =
  Arg.(value & opt float 0.5 & info [ "w"; "warmup" ] ~docv:"SECONDS" ~doc:"Warm-up time.")

let trials_arg =
  Arg.(value & opt int 5 & info [ "n"; "trials" ] ~docv:"N" ~doc:"Number of measured trials.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Deterministic workload seed.")

let horizon_arg =
  Arg.(
    value & opt float 100_000.
    & info [ "horizon" ] ~docv:"CYCLES" ~doc:"Simulated duration in cycles (sim engine).")

let engine_arg =
  let e = Arg.enum [ ("real", `Real); ("sim", `Sim) ] in
  Arg.(
    value & opt e `Real
    & info [ "engine" ] ~docv:"ENGINE" ~doc:"Measurement engine: $(b,real) domains or $(b,sim).")

let csv_arg = Arg.(value & flag & info [ "csv" ] ~doc:"Emit a CSV row instead of prose.")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Collect per-operation counters (restarts, lock failures, traversal \
           steps, ...) and, on the real engine, per-op latency percentiles.")

let metrics_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-json" ] ~docv:"FILE"
        ~doc:"Write the measured point (throughput + counters + latency) as JSON to $(docv). Implies $(b,--metrics).")

let trace_arg =
  Arg.(
    value & opt int 0
    & info [ "trace" ] ~docv:"N"
        ~doc:
          "Dump the first $(docv) events of a short deterministic run on the \
           simulated engine (one line per schedule step).")

let trace_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-json" ] ~docv:"FILE"
        ~doc:
          "Write the instrumented-schedule timeline of a short deterministic \
           run (the same run $(b,--trace) prints) as Chrome trace-event JSON \
           to $(docv); load it in about:tracing or Perfetto.")

let profile_arg =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Enable the contention profiler and flight recorder around the \
           measured trials (real engine only; implies $(b,--metrics)).  \
           Prints the per-site lock wait/hold attribution table, the \
           hot-shard ranking and the tail of the flight recorder after the \
           run.")

let export_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "export" ] ~docv:"PREFIX"
        ~doc:
          "With $(b,--profile): write $(docv).metrics.txt (OpenMetrics \
           exposition of all counters and contention histograms) and \
           $(docv).trace.json (Chrome trace-event timeline of the flight \
           recorder) after the run.")

let interval_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "interval" ] ~docv:"SECONDS"
        ~doc:
          "Print a snapshot-delta progress line (throughput, restart rate, \
           contention rate, shard skew) every $(docv) seconds during the \
           measured trials (real engine only).")

let shards_arg =
  Arg.(
    value
    & opt (list int) []
    & info [ "shards" ] ~docv:"LIST"
        ~doc:
          "Shard-count axis: measure $(b,-a)'s sharded frontend at each count \
           in the comma-separated $(docv) (1 means the unsharded base \
           algorithm, s maps to $(b,ALGO-sharded-s)).  Composes with \
           $(b,--matrix); $(b,--metrics-json) then collects every cell across \
           the axis.")

let churn_arg =
  Arg.(
    value & flag
    & info [ "churn" ]
        ~doc:
          "Churn preset: override $(b,-u) to 90 and $(b,-r) to 256 — \
           update-heavy traffic on a small key range, where nodes cycle \
           through unlink, retire and recycle continuously.  The target \
           workload of the reclaiming backends (pair with $(b,-a) \
           vbl-reclaim / lazy-reclaim / harris-michael-reclaim and compare \
           against the plain algorithm).")

let matrix_arg =
  Arg.(
    value & flag
    & info [ "matrix" ]
        ~doc:
          "Sweep the scaling grid instead of one point: thread counts doubling \
           up to $(b,-t), update ratios 0/20/100, key ranges 50/200/2000/20000. \
           Prints one CSV row per cell (with $(b,--csv)) or a prose line each; \
           $(b,--metrics-json) then collects every cell.")

(* The grid the scaling matrix sweeps. *)
let matrix_updates = [ 0; 20; 100 ]
let matrix_ranges = [ 50; 200; 2_000; 20_000 ]

let matrix_threads up_to =
  let rec doubling t acc = if t > up_to then List.rev acc else doubling (2 * t) (t :: acc) in
  doubling 1 []

let run_matrix ~algo ~threads ~engine_v ~metrics ~seed ~csv =
  List.concat_map
    (fun key_range ->
      List.concat_map
        (fun update_percent ->
          List.map
            (fun threads ->
              let p =
                measure_point ~metrics ~profile:false engine_v ~algorithm:algo ~threads
                  ~update_percent ~key_range ~seed
              in
              let s = p.Vbl_harness.Sweep.throughput in
              if csv then
                Printf.printf "%s,%d,%d,%d,%s,%.4f,%.4f\n%!" algo threads
                  update_percent key_range
                  (Vbl_harness.Report.engine_name engine_v)
                  s.Vbl_util.Stats.mean s.Vbl_util.Stats.stddev
              else
                Printf.printf "%-22s t=%d u=%3d%% r=%-6d  %s %s\n%!" algo threads
                  update_percent key_range
                  (Vbl_util.Table.si_cell s.Vbl_util.Stats.mean)
                  (Vbl_harness.Report.engine_unit engine_v);
              p)
            (matrix_threads threads))
        matrix_updates)
    matrix_ranges

let run_single ~algo ~threads ~update ~range ~engine_v ~metrics ~profile ~interval_s ~seed
    ~csv =
  let point =
    measure_point ~metrics ~profile ?interval_s engine_v ~algorithm:algo ~threads
      ~update_percent:update ~key_range:range ~seed
  in
  let s = point.Vbl_harness.Sweep.throughput in
  if csv then
    Printf.printf "%s,%d,%d,%d,%s,%.4f,%.4f\n" algo threads update range
      (Vbl_harness.Report.engine_name engine_v)
      s.Vbl_util.Stats.mean s.Vbl_util.Stats.stddev
  else begin
    Printf.printf "algorithm        : %s\n" algo;
    Printf.printf "engine           : %s\n" (Vbl_harness.Report.engine_name engine_v);
    Printf.printf "threads          : %d\n" threads;
    Printf.printf "workload         : %d%% updates, key range %d\n" update range;
    Printf.printf "trials           : %d\n" s.Vbl_util.Stats.n;
    Printf.printf "throughput       : %s %s (stddev %s, min %s, max %s)\n"
      (Vbl_util.Table.si_cell s.Vbl_util.Stats.mean)
      (Vbl_harness.Report.engine_unit engine_v)
      (Vbl_util.Table.si_cell s.Vbl_util.Stats.stddev)
      (Vbl_util.Table.si_cell s.Vbl_util.Stats.min)
      (Vbl_util.Table.si_cell s.Vbl_util.Stats.max)
  end;
  if metrics && not csv then begin
    print_newline ();
    print_endline (Vbl_harness.Report.render_metrics ~title:"per-operation counters:" [ point ]);
    if point.Vbl_harness.Sweep.latency <> [] then begin
      print_newline ();
      print_endline
        (Vbl_harness.Report.render_latency ~title:"per-operation latency (ns):" [ point ])
    end
  end;
  if profile && not csv then begin
    print_newline ();
    print_endline (Vbl_obs.Contention.render_site_table ());
    let hot = Vbl_obs.Contention.render_hot_shards () in
    if hot <> "" then begin
      print_newline ();
      print_endline hot
    end;
    print_newline ();
    print_endline (Vbl_obs.Recorder.dump ~last:12 ())
  end;
  point

(* Bad input is rejected before anything is measured: one line on
   stderr and exit 2. *)
let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline msg;
      exit 2)
    fmt

let run algo threads update range duration warmup trials seed horizon engine csv metrics
    metrics_json trace_n trace_json profile export interval_s matrix shards churn =
  let update = if churn then 90 else update
  and range = if churn then 256 else range in
  if churn && matrix then usage_error "--churn fixes one workload cell; drop --matrix";
  if profile && engine = `Sim then
    usage_error "--profile needs the wall clock; use --engine real";
  if profile && matrix then
    usage_error "--profile attributes one measured point; drop --matrix";
  if export <> None && not profile then
    usage_error "--export requires --profile (nothing to export otherwise)";
  if threads < 1 then usage_error "-t %d: expected at least one thread" threads;
  if trials < 1 then usage_error "-n %d: expected at least one trial" trials;
  if range < 1 then usage_error "-r %d: expected a key range of at least 1" range;
  if update < 0 || update > 100 then
    usage_error "-u %d: expected a percentage between 0 and 100" update;
  (* [nan] fails every comparison, so each test is written to reject it. *)
  if not (duration > 0. && Float.is_finite duration) then
    usage_error "-d %g: expected a positive, finite number of seconds" duration;
  if not (warmup >= 0. && Float.is_finite warmup) then
    usage_error "-w %g: expected a non-negative, finite number of seconds" warmup;
  if not (horizon > 0. && Float.is_finite horizon) then
    usage_error "--horizon %g: expected a positive, finite number of cycles" horizon;
  Option.iter
    (fun s ->
      if not (s > 0.) then
        usage_error "--interval %g: expected a positive number of seconds" s)
    interval_s;
  (* Output paths are checked before anything is measured, so a typo in
     a directory cannot cost a whole run. *)
  List.iter
    (fun (flag, path) ->
      Option.iter
        (fun p ->
          let dir = Filename.dirname p in
          if not (Sys.file_exists dir && Sys.is_directory dir) then
            usage_error "%s %s: directory %s does not exist" flag p dir)
        path)
    [ ("--metrics-json", metrics_json); ("--trace-json", trace_json); ("--export", export) ];
  (* The shard axis maps each count s to ALGO-sharded-s (1 = the base
     algorithm), so one invocation sweeps an algorithm's sharded frontends
     alongside it. *)
  let algos =
    match shards with
    | [] -> [ algo ]
    | counts ->
        List.map
          (fun s -> if s = 1 then algo else Printf.sprintf "%s-sharded-%d" algo s)
          counts
  in
  (* The simulated engine, and the trace dump that always runs on it for
     the first algorithm, need the set's instrumented twin. *)
  let twin_needed_by i =
    if engine = `Sim then Some "--engine sim"
    else if matrix || i > 0 then None
    else if trace_n > 0 then Some "--trace"
    else if trace_json <> None then Some "--trace-json"
    else None
  in
  List.iteri
    (fun i a ->
      if not (List.mem a (algorithms ())) then
        usage_error "unknown algorithm %S; known: %s" a (String.concat ", " (algorithms ()));
      Option.iter
        (fun flag ->
          match Vbl_harness.Sweep.find_instrumented a with
          | _ -> ()
          | exception Invalid_argument _ ->
              usage_error "%s has no instrumented build, which %s needs" a flag)
        (twin_needed_by i))
    algos;
  let seed = Int64.of_int seed in
  let metrics = metrics || metrics_json <> None || profile in
  let engine_v =
    match engine with
    | `Real -> Vbl_harness.Sweep.Real { duration_s = duration; warmup_s = warmup; trials }
    | `Sim -> Vbl_harness.Sweep.simulated ~horizon ~trials ()
  in
  let points =
    List.concat_map
      (fun (i, a) ->
        if matrix then run_matrix ~algo:a ~threads ~engine_v ~metrics ~seed ~csv
        else begin
          if i > 0 && not csv then print_newline ();
          [
            run_single ~algo:a ~threads ~update ~range ~engine_v ~metrics ~profile
              ~interval_s ~seed ~csv;
          ]
        end)
      (List.mapi (fun i a -> (i, a)) algos)
  in
  (match metrics_json with
  | Some file ->
      let oc = open_out file in
      output_string oc (Vbl_harness.Report.points_json ~engine:engine_v points);
      output_string oc "\n";
      close_out oc;
      if not csv then Printf.printf "\n(wrote %s: %d points)\n" file (List.length points)
  | None -> ());
  let write_file file s =
    let oc = open_out file in
    output_string oc s;
    close_out oc
  in
  (match export with
  | Some prefix ->
      let mfile = prefix ^ ".metrics.txt" and tfile = prefix ^ ".trace.json" in
      write_file mfile (Vbl_obs.Export.openmetrics_of_run ());
      write_file tfile (Vbl_obs.Export.chrome_trace_of_entries (Vbl_obs.Recorder.entries ()));
      if not csv then
        Printf.printf "\n(wrote %s and %s — load the trace in about:tracing)\n" mfile tfile
  | None -> ());
  if (trace_n > 0 || trace_json <> None) && not matrix then begin
    (* Tracing hooks live in the schedule conductor, so the dump always
       comes from a short deterministic run on the simulated engine,
       whatever --engine was used for the measurement above. *)
    let tr = Vbl_obs.Trace.create () in
    Vbl_obs.Probe.install (Vbl_obs.Probe.tracer tr);
    ignore
      (Vbl_harness.Sweep.measure
         (Vbl_harness.Sweep.simulated ~horizon:600. ~trials:1 ())
         ~algorithm:(List.hd algos) ~threads ~update_percent:update ~key_range:range ~seed);
    Vbl_obs.Probe.uninstall ();
    if trace_n > 0 then begin
      Printf.printf "\nevent trace (simulated engine, first %d of %d steps):\n" trace_n
        (Vbl_obs.Trace.emitted tr);
      List.iteri
        (fun i e -> if i < trace_n then print_endline ("  " ^ Vbl_obs.Trace.event_to_string e))
        (Vbl_obs.Trace.events tr)
    end;
    match trace_json with
    | Some file ->
        write_file file (Vbl_obs.Export.chrome_trace_of_trace tr);
        if not csv then
          Printf.printf "\n(wrote %s: instrumented-schedule timeline, %d steps)\n" file
            (Vbl_obs.Trace.emitted tr)
    | None -> ()
  end

let cmd =
  let doc = "synchrobench-style benchmark for the list-based set family" in
  Cmd.v
    (Cmd.info "synchrobench" ~doc)
    Term.(
      const run $ algo_arg $ threads_arg $ update_arg $ range_arg $ duration_arg $ warmup_arg
      $ trials_arg $ seed_arg $ horizon_arg $ engine_arg $ csv_arg $ metrics_arg
      $ metrics_json_arg $ trace_arg $ trace_json_arg $ profile_arg $ export_arg
      $ interval_arg $ matrix_arg $ shards_arg $ churn_arg)

let () = Cli.eval cmd
