(* omcheck — validate the observability exporters' output files.

     omcheck run.metrics.txt            # OpenMetrics text exposition
     omcheck --chrome run.trace.json    # Chrome trace-event JSON

   Exits 0 iff every named file validates, 1 on any invalid file, 2 on
   usage errors.  The OpenMetrics check is the library parser in
   [Vbl_obs.Export] (the same one the tests round-trip through); the
   Chrome check reads the file with [Vbl_util.Json] and asserts the
   trace-event shape about:tracing needs: a top-level object with a
   "traceEvents" array whose events carry a string "name"/"ph" and a
   numeric "ts". *)

open Cmdliner

module Json = Vbl_util.Json

let validate_chrome text =
  match Json.parse text with
  | exception Json.Parse_error (m, at) ->
      Error (Printf.sprintf "not valid JSON: %s at byte %d" m at)
  | Json.Obj fields -> (
      match List.assoc_opt "traceEvents" fields with
      | Some (Json.Arr events) ->
          let check k e =
            match e with
            | Json.Obj ev ->
                let str f =
                  match List.assoc_opt f ev with Some (Json.Str _) -> true | _ -> false
                in
                let num f =
                  match List.assoc_opt f ev with Some (Json.Num _) -> true | _ -> false
                in
                if not (str "name") then
                  Error (Printf.sprintf "event %d: missing string \"name\"" k)
                else if not (str "ph") then
                  Error (Printf.sprintf "event %d: missing string \"ph\"" k)
                else if not (num "ts") then
                  Error (Printf.sprintf "event %d: missing numeric \"ts\"" k)
                else Ok ()
            | _ -> Error (Printf.sprintf "event %d: not an object" k)
          in
          let rec go k = function
            | [] -> Ok (List.length events)
            | e :: tl -> ( match check k e with Ok () -> go (k + 1) tl | Error _ as e -> e)
          in
          go 0 events
      | Some _ -> Error "\"traceEvents\" is not an array"
      | None -> Error "missing \"traceEvents\" array")
  | _ -> Error "top level is not an object"

let read_file f =
  let ic = open_in_bin f in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let run chrome files =
  let ok = ref true in
  List.iter
    (fun f ->
      match read_file f with
      | exception Sys_error m ->
          Printf.eprintf "%s: %s\n" f m;
          ok := false
      | text -> (
          let r =
            if chrome then
              Result.map
                (fun n -> Printf.sprintf "valid Chrome trace (%d events)" n)
                (validate_chrome text)
            else
              Result.map
                (fun n -> Printf.sprintf "valid OpenMetrics (%d samples)" n)
                (Vbl_obs.Export.validate text)
          in
          match r with
          | Ok msg -> Printf.printf "%s: %s\n" f msg
          | Error m ->
              Printf.eprintf "%s: INVALID: %s\n" f m;
              ok := false))
    files;
  if not !ok then exit 1

let chrome_arg =
  Arg.(
    value & flag
    & info [ "chrome" ]
        ~doc:
          "Validate Chrome trace-event JSON (the $(b,.trace.json) exporter \
           output) instead of OpenMetrics text.")

let files_arg = Arg.(non_empty & pos_all string [] & info [] ~docv:"FILE")

let cmd =
  let doc = "validate OpenMetrics and Chrome trace exporter output" in
  Cmd.v (Cmd.info "omcheck" ~doc) Term.(const run $ chrome_arg $ files_arg)

let () = Cli.eval cmd
