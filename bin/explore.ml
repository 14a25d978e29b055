(* explore — bounded model checking of an algorithm from the command line.

     explore -a vbl --ops "insert 1, remove 2" --initial "2"
             [--bound preempt:3|delay:2|none] [--sct random:SEED:ITERS]
             [--shrink] [--analyze] [--dfs] [--stats]

   Explores interleavings of the given operations on the instrumented
   backend, checking every complete execution for linearizability (with the
   sigma-bar contains-extension) and structural invariants.  By default the
   explorer uses sleep-set DPOR; --dfs selects the naive brute-force search
   (mainly to measure the reduction), --bound picks the schedule bound the
   systematic strategies apply (preemption, delay, or none; preempt:3 by
   default), --sct switches to the randomized swarm scheduler (weights and
   preemption probabilities re-drawn per run from the seed), --shrink
   delta-debugs any failing schedule down to a locally minimal
   counterexample, --analyze attaches the happens-before race detector and
   lock-discipline linter (and also accepts the seeded mutants from
   vbl.analysis by name, e.g. vbl-unlocked-unlink), and --stats prints
   explorer statistics.

   Exit status: 0 all explored executions pass, 1 a violation was found,
   2 malformed command line, rejected before anything runs (unknown -a,
   unparseable --ops/--initial/--bound/--sct, non-positive
   --max-executions). *)

module Explore = Vbl_sched.Explore
module Shrink = Vbl_sched.Shrink

let usage =
  "usage: explore [-a ALGO] [--initial \"v1, v2\"] [--ops \"insert 1, remove 2\"]\n\
  \               [--bound preempt:N|delay:N|none] [--sct random:SEED:ITERS]\n\
  \               [--shrink] [--max-executions N]\n\
  \               [--analyze] [--dfs] [--stats]"

let bad fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("explore: " ^ msg);
      exit 2)
    fmt

let key flag s v =
  match int_of_string_opt v with
  | Some k -> k
  | None -> bad "invalid %s %S: %S is not an integer key" flag s v

let parse_ops s =
  s |> String.split_on_char ','
  |> List.filter_map (fun chunk ->
         match String.split_on_char ' ' (String.trim chunk) with
         | [ "" ] -> None
         | [ "insert"; v ] -> Some (Vbl_sched.Ll_abstract.insert (key "--ops" s v))
         | [ "remove"; v ] -> Some (Vbl_sched.Ll_abstract.remove (key "--ops" s v))
         | [ "contains"; v ] -> Some (Vbl_sched.Ll_abstract.contains (key "--ops" s v))
         | _ ->
             bad "invalid --ops %S: cannot parse %S (expected insert N, remove N or contains N)"
               s (String.trim chunk))

let parse_ints s =
  s |> String.split_on_char ','
  |> List.filter_map (fun x ->
         let x = String.trim x in
         if x = "" then None else Some (key "--initial" s x))

let parse_bound s =
  let budget kind n =
    match int_of_string_opt n with
    | Some k when k >= 0 -> k
    | _ -> bad "invalid --bound %S: the %s budget must be a non-negative integer" s kind
  in
  match String.split_on_char ':' s with
  | [ "none" ] -> Explore.none
  | [ "preempt"; n ] -> Explore.preempt (budget "preempt" n)
  | [ "delay"; n ] -> Explore.delay (budget "delay" n)
  | _ -> bad "invalid --bound %S (expected preempt:N, delay:N, or none)" s

let parse_sct s =
  match String.split_on_char ':' s with
  | [ "random"; seed; iters ] -> (
      match (Int64.of_string_opt seed, int_of_string_opt iters) with
      | Some seed, Some iters when iters > 0 -> { Explore.seed; iters }
      | _ -> bad "invalid --sct %S: need an integer seed and a positive iteration count" s)
  | _ -> bad "invalid --sct %S (expected random:SEED:ITERS)" s

let find_impl nm =
  try Vbl_harness.Sweep.find_instrumented nm
  with Invalid_argument _ -> (
    try Vbl_analysis.Mutants.find nm
    with Invalid_argument _ ->
      bad "unknown algorithm %S: neither an instrumented set nor a seeded mutant" nm)

let () =
  let algo = ref "vbl" in
  let initial = ref "" in
  let ops = ref "insert 1, insert 2" in
  let bound_spec = ref None in
  let sct_spec = ref None in
  let shrink = ref false in
  let max_executions = ref 200_000 in
  let analyze = ref false in
  let dfs = ref false in
  let stats = ref false in
  let spec =
    [
      ("-a", Arg.Set_string algo, "algorithm (default vbl)");
      ("--initial", Arg.Set_string initial, "initial values, comma-separated");
      ("--ops", Arg.Set_string ops, "operations, e.g. \"insert 1, remove 2\"");
      ( "--bound",
        Arg.String (fun s -> bound_spec := Some s),
        "schedule bound: preempt:N, delay:N, or none (default preempt:3)" );
      ( "--sct",
        Arg.String (fun s -> sct_spec := Some s),
        "randomized swarm scheduling: random:SEED:ITERS" );
      ("--shrink", Arg.Set shrink, "shrink any failing schedule to a local minimum");
      ("--max-executions", Arg.Set_int max_executions, "execution cap");
      ( "--analyze",
        Arg.Set analyze,
        "attach the race detector and lock-discipline linter; also accepts mutant names" );
      ("--dfs", Arg.Set dfs, "use the naive DFS instead of DPOR");
      ("--stats", Arg.Set stats, "print explorer statistics");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let impl = find_impl !algo in
  let ops = parse_ops !ops in
  let initial = parse_ints !initial in
  if !max_executions < 1 then
    bad "invalid --max-executions %d: the execution cap must be positive" !max_executions;
  let config = { Explore.max_executions = !max_executions; max_steps = 20_000 } in
  let strategy =
    match !sct_spec with
    | Some s ->
        if !dfs then bad "--sct cannot be combined with --dfs";
        if !bound_spec <> None then bad "--sct cannot be combined with --bound";
        Explore.Random (parse_sct s)
    | None ->
        let b =
          match !bound_spec with
          | Some s -> parse_bound s
          | None -> Explore.preempt 3
        in
        if !dfs then Explore.Dfs b else Explore.Dpor b
  in
  let mode =
    match !sct_spec with
    | Some s -> "sct " ^ s
    | None ->
        (match !bound_spec with
        | Some s -> "bound " ^ s
        | None -> "preemption bound 3")
        ^ (if !dfs then ", naive dfs" else ", dpor")
  in
  Format.printf "exploring %s: initial {%s}, ops [%a], %s%s@." !algo
    (String.concat ", " (List.map string_of_int initial))
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
       Vbl_sched.Ll_abstract.pp_opspec)
    ops mode
    (if !analyze then ", analysis on" else "");
  let scenario = Vbl_sched.Drive.explore_scenario impl ~initial ~ops in
  let monitor =
    if !analyze then Some (Vbl_analysis.Monitor.make ~threads:(max 2 (List.length ops)) ())
    else None
  in
  let started = Unix.gettimeofday () in
  let report = Explore.run ~config ?monitor ~strategy scenario in
  let dt = Unix.gettimeofday () -. started in
  Printf.printf "executions explored : %d%s  (%.2fs)\n" report.Explore.executions
    (if report.Explore.truncated then " (truncated)" else "")
    dt;
  if !stats then begin
    Printf.printf "sleep-set blocked   : %d\n" report.Explore.sleep_blocked;
    Printf.printf "backtrack races     : %d\n" report.Explore.races;
    Printf.printf "bound prunes        : %d\n" report.Explore.bound_prunes;
    Printf.printf "distinct schedules  : %d\n" report.Explore.distinct_schedules
  end;
  match report.Explore.failure with
  | None ->
      print_endline
        (if !analyze then "verdict             : linearizable, race-free, lock-disciplined"
         else "verdict             : all explored executions linearizable")
  | Some f ->
      Format.printf "verdict             : FAILURE@.%a@." Explore.pp_failure f;
      Printf.printf "schedule            : [%s]\n"
        (String.concat "; " (List.map string_of_int (Explore.failure_schedule f)));
      if !shrink then begin
        let r = Shrink.shrink ?monitor ~max_steps:config.Explore.max_steps scenario f in
        Printf.printf "shrink              : %d -> %d steps (%d replays)\n"
          (List.length r.Shrink.original) (List.length r.Shrink.shrunk) r.Shrink.attempts;
        Format.printf "shrunk schedule     : %a@." Shrink.pp_steps r.Shrink.shrunk;
        match r.Shrink.failure with
        | Some sf -> Format.printf "shrunk verdict      : %a@." Explore.pp_failure sf
        | None -> ()
      end;
      exit 1
