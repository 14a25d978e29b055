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

   The schema is small and fixed, so the JSON reader below is a minimal
   recursive-descent parser rather than a library dependency. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Parse_error of string

let parse (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () = Some c then advance () else fail (Printf.sprintf "expected %c" c)
  in
  let literal word value =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      value
    end
    else fail ("expected " ^ word)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec loop () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some (('"' | '\\' | '/') as c) ->
              Buffer.add_char b c;
              advance ();
              loop ()
          | Some 'n' ->
              Buffer.add_char b '\n';
              advance ();
              loop ()
          | Some 't' ->
              Buffer.add_char b '\t';
              advance ();
              loop ()
          | _ -> fail "unsupported escape")
      | Some c ->
          Buffer.add_char b c;
          advance ();
          loop ()
    in
    loop ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> is_num_char c | None -> false) do
      advance ()
    done;
    if !pos = start then fail "expected number";
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "malformed number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((key, v) :: acc)
            | Some '}' ->
                advance ();
                Obj (List.rev ((key, v) :: acc))
            | _ -> fail "expected , or } in object"
          in
          members []
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let rec elements acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elements (v :: acc)
            | Some ']' ->
                advance ();
                Arr (List.rev (v :: acc))
            | _ -> fail "expected , or ] in array"
          in
          elements []
        end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (parse_number ())
    | None -> fail "unexpected end of input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("compare_bench: " ^ msg);
      exit 64)
    fmt

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

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
  with Parse_error msg | Failure msg -> usage_error "%s: malformed snapshot: %s" file msg

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
