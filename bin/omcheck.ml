(* omcheck — validate the observability exporters' output files.

     omcheck run.metrics.txt            # OpenMetrics text exposition
     omcheck --chrome run.trace.json    # Chrome trace-event JSON

   Exits 0 iff every named file validates, 1 on any invalid file, 2 on
   usage errors.  The OpenMetrics check is the library parser in
   [Vbl_obs.Export] (the same one the tests round-trip through); the
   Chrome check is a self-contained JSON reader asserting the
   trace-event shape about:tracing needs: a top-level object with a
   "traceEvents" array whose events carry a string "name"/"ph" and a
   numeric "ts". *)

open Cmdliner

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad of string

(* Minimal recursive-descent JSON reader: enough to validate shape. *)
let parse_json s =
  let n = String.length s in
  let i = ref 0 in
  let error msg = raise (Bad (Printf.sprintf "%s at byte %d" msg !i)) in
  let peek () = if !i < n then s.[!i] else '\255' in
  let skip_ws () =
    while
      !i < n && (match s.[!i] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr i
    done
  in
  let expect c = if peek () = c then incr i else error (Printf.sprintf "expected %C" c) in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !i >= n then error "unterminated string"
      else
        match s.[!i] with
        | '"' ->
            incr i;
            Buffer.contents b
        | '\\' ->
            incr i;
            if !i >= n then error "unterminated escape";
            (match s.[!i] with
            | '"' -> Buffer.add_char b '"'
            | '\\' -> Buffer.add_char b '\\'
            | '/' -> Buffer.add_char b '/'
            | 'b' -> Buffer.add_char b '\b'
            | 'f' -> Buffer.add_char b '\012'
            | 'n' -> Buffer.add_char b '\n'
            | 'r' -> Buffer.add_char b '\r'
            | 't' -> Buffer.add_char b '\t'
            | 'u' ->
                (* Shape-checked, not decoded: validation never needs the
                   code point's value. *)
                if !i + 4 >= n then error "truncated \\u escape";
                for k = 1 to 4 do
                  match s.[!i + k] with
                  | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> ()
                  | _ -> error "bad \\u escape"
                done;
                i := !i + 4;
                Buffer.add_char b '?'
            | _ -> error "bad escape");
            incr i;
            go ()
        | c ->
            Buffer.add_char b c;
            incr i;
            go ()
    in
    go ()
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '{' -> obj ()
    | '[' -> arr ()
    | '"' -> Str (string_lit ())
    | 't' -> lit "true" (Bool true)
    | 'f' -> lit "false" (Bool false)
    | 'n' -> lit "null" Null
    | '-' | '0' .. '9' -> number ()
    | _ -> error "unexpected character"
  and lit w v =
    let k = String.length w in
    if !i + k <= n && String.sub s !i k = w then begin
      i := !i + k;
      v
    end
    else error ("expected " ^ w)
  and number () =
    let start = !i in
    if peek () = '-' then incr i;
    while
      match peek () with '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true | _ -> false
    do
      incr i
    done;
    match float_of_string_opt (String.sub s start (!i - start)) with
    | Some f -> Num f
    | None -> error "bad number"
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = '}' then begin
      incr i;
      Obj []
    end
    else begin
      let rec members acc =
        skip_ws ();
        let k = string_lit () in
        skip_ws ();
        expect ':';
        let v = value () in
        skip_ws ();
        match peek () with
        | ',' ->
            incr i;
            members ((k, v) :: acc)
        | '}' ->
            incr i;
            Obj (List.rev ((k, v) :: acc))
        | _ -> error "expected ',' or '}'"
      in
      members []
    end
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = ']' then begin
      incr i;
      Arr []
    end
    else begin
      let rec elems acc =
        let v = value () in
        skip_ws ();
        match peek () with
        | ',' ->
            incr i;
            elems (v :: acc)
        | ']' ->
            incr i;
            Arr (List.rev (v :: acc))
        | _ -> error "expected ',' or ']'"
      in
      elems []
    end
  in
  let v = value () in
  skip_ws ();
  if !i <> n then error "trailing content";
  v

let validate_chrome text =
  match parse_json text with
  | exception Bad m -> Error ("not valid JSON: " ^ m)
  | Obj fields -> (
      match List.assoc_opt "traceEvents" fields with
      | Some (Arr events) ->
          let check k e =
            match e with
            | Obj ev ->
                let str f =
                  match List.assoc_opt f ev with Some (Str _) -> true | _ -> false
                in
                let num f =
                  match List.assoc_opt f ev with Some (Num _) -> true | _ -> false
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
