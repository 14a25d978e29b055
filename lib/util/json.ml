type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string * int

let parse s =
  let n = String.length s in
  let i = ref 0 in
  let error msg = raise (Parse_error (msg, !i)) in
  let peek () = if !i < n then Some s.[!i] else None in
  let skip_ws () =
    while match peek () with Some (' ' | '\t' | '\n' | '\r') -> true | _ -> false do
      incr i
    done
  in
  let expect c = if peek () = Some c then incr i else error (Printf.sprintf "expected %C" c) in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> error "unterminated string"
      | Some '"' ->
          incr i;
          Buffer.contents b
      | Some '\\' ->
          incr i;
          (match peek () with
          | Some (('"' | '\\' | '/') as c) -> Buffer.add_char b c
          | Some 'b' -> Buffer.add_char b '\b'
          | Some 'f' -> Buffer.add_char b '\012'
          | Some 'n' -> Buffer.add_char b '\n'
          | Some 'r' -> Buffer.add_char b '\r'
          | Some 't' -> Buffer.add_char b '\t'
          | Some 'u' ->
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
      | Some c ->
          Buffer.add_char b c;
          incr i;
          go ()
    in
    go ()
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | None -> error "unexpected end of input"
    | Some '{' ->
        incr i;
        Obj
          (items '}' (fun () ->
               skip_ws ();
               let k = string_lit () in
               skip_ws ();
               expect ':';
               (k, value ())))
    | Some '[' ->
        incr i;
        Arr (items ']' value)
    | Some '"' -> Str (string_lit ())
    | Some 't' -> lit "true" (Bool true)
    | Some 'f' -> lit "false" (Bool false)
    | Some 'n' -> lit "null" Null
    | Some ('-' | '0' .. '9') -> number ()
    | Some _ -> error "unexpected character"
  (* The comma-separated items of an object or array, through [close]. *)
  and items : 'a. char -> (unit -> 'a) -> 'a list =
   fun close item ->
    skip_ws ();
    if peek () = Some close then begin
      incr i;
      []
    end
    else
      let rec go acc =
        let x = item () in
        skip_ws ();
        match peek () with
        | Some ',' ->
            incr i;
            go (x :: acc)
        | Some c when c = close ->
            incr i;
            List.rev (x :: acc)
        | _ -> error (Printf.sprintf "expected ',' or %C" close)
      in
      go []
  and lit w v =
    let k = String.length w in
    if !i + k <= n && String.sub s !i k = w then begin
      i := !i + k;
      v
    end
    else error ("expected " ^ w)
  and number () =
    let start = !i in
    while
      match peek () with Some ('0' .. '9' | '-' | '+' | '.' | 'e' | 'E') -> true | _ -> false
    do
      incr i
    done;
    match float_of_string_opt (String.sub s start (!i - start)) with
    | Some f -> Num f
    | None -> error "bad number"
  in
  let v = value () in
  skip_ws ();
  if !i <> n then error "trailing content";
  v

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None
