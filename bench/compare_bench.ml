(* compare_bench OLD.json NEW.json [--threshold PCT]

   Diffs two benchmark snapshots in the BENCH_*.json schema (written by
   `vbl-synchrobench --matrix --metrics-json F`, or by any
   `--metrics-json F` run): matches points by (algorithm, threads,
   update_percent, key_range), prints the throughput delta for each,
   and flags regressions where the new mean is more than PCT percent
   (default 10) below the old one.  Exits 1 if any
   point regressed (so it can gate CI), 2 if the point sets differ without
   any regression (warning only: the snapshots do not cover the same
   workload matrix), 64 on usage errors, 0 otherwise.  A snapshot that
   cannot be read or parsed, and a threshold that is not a non-negative
   number, are usage errors: one line on stderr, nothing on stdout.

   The schema is small and fixed, so [Vbl_util.Json]'s minimal reader
   suffices. *)

open Vbl_util.Json

let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("compare_bench: " ^ msg);
      exit 64)
    fmt

let num_exn what = function
  | Some (Num f) -> f
  | _ -> failwith ("missing or non-numeric field " ^ what)

let str_exn what = function
  | Some (Str s) -> s
  | _ -> failwith ("missing or non-string field " ^ what)

(* One comparable point: workload key plus mean throughput. *)
type point = { algorithm : string; threads : int; update : int; range : int; mean : float }

let load_points file =
  let contents =
    try In_channel.with_open_bin file In_channel.input_all
    with Sys_error msg -> usage_error "cannot read snapshot: %s" msg
  in
  try
    let root = parse contents in
    let points = match member "points" root with Some (Arr l) -> l | _ -> [] in
    let unit_ = match member "unit" root with Some (Str u) -> u | _ -> "?" in
    ( unit_,
      List.map
        (fun p ->
          {
            algorithm = str_exn "algorithm" (member "algorithm" p);
            threads = int_of_float (num_exn "threads" (member "threads" p));
            update = int_of_float (num_exn "update_percent" (member "update_percent" p));
            range = int_of_float (num_exn "key_range" (member "key_range" p));
            mean =
              num_exn "throughput.mean"
                (Option.bind (member "throughput" p) (member "mean"));
          })
        points )
  with
  | Parse_error (msg, offset) ->
      usage_error "%s: malformed snapshot: %s at offset %d" file msg offset
  | Failure msg -> usage_error "%s: malformed snapshot: %s" file msg

let () =
  let args = Array.to_list Sys.argv in
  let rec split files threshold = function
    | [] -> (List.rev files, threshold)
    | "--threshold" :: v :: rest -> (
        match float_of_string_opt v with
        | Some t when t >= 0. -> split files t rest
        | _ -> usage_error "invalid --threshold %S: expected a non-negative number" v)
    | f :: rest -> split (f :: files) threshold rest
  in
  match split [] 10.0 (List.tl args) with
  | [ old_file; new_file ], threshold ->
      let old_unit, old_points = load_points old_file in
      let new_unit, new_points = load_points new_file in
      if old_unit <> new_unit then
        Printf.printf "note: units differ (%s vs %s); deltas are still relative\n\n"
          old_unit new_unit;
      Printf.printf "%-24s %7s %4s %7s %14s %14s %9s\n" "algorithm" "threads" "upd%"
        "range" old_file new_file "delta";
      let regressions = ref 0 in
      let compared = ref 0 in
      List.iter
        (fun (np : point) ->
          match
            List.find_opt
              (fun (op : point) ->
                op.algorithm = np.algorithm && op.threads = np.threads
                && op.update = np.update && op.range = np.range)
              old_points
          with
          | None -> ()
          | Some op ->
              incr compared;
              let delta = (np.mean -. op.mean) /. op.mean *. 100. in
              let flag =
                if delta < -.threshold then begin
                  incr regressions;
                  "  << REGRESSION"
                end
                else ""
              in
              Printf.printf "%-24s %7d %4d %7d %14.0f %14.0f %+8.1f%%%s\n" np.algorithm
                np.threads np.update np.range op.mean np.mean delta flag)
        new_points;
      let only_new =
        List.length new_points - !compared
      and only_old =
        List.length old_points
        - List.length
            (List.filter
               (fun (op : point) ->
                 List.exists
                   (fun (np : point) ->
                     op.algorithm = np.algorithm && op.threads = np.threads
                     && op.update = np.update && op.range = np.range)
                   new_points)
               old_points)
      in
      Printf.printf
        "\n%d point(s) compared, %d regression(s) beyond %.0f%%; %d only in %s, %d only in %s\n"
        !compared !regressions threshold only_new new_file only_old old_file;
      if only_new > 0 || only_old > 0 then
        Printf.eprintf
          "warning: point sets differ — the snapshots do not cover the same workload matrix\n";
      (* Exit codes: 1 = throughput regression (gates CI), 2 = point-set
         mismatch only (warning — snapshots are not directly comparable),
         64 = usage error. *)
      if !regressions > 0 then exit 1
      else if only_new > 0 || only_old > 0 then exit 2
      else exit 0
  | _, _ ->
      prerr_endline "usage: compare_bench OLD.json NEW.json [--threshold PCT]";
      exit 64
