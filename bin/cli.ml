(* Cmdliner reports a malformed command line on several lines with exit
   124; keep its first line and exit 2, like every other rejection. *)
let eval cmd =
  let buf = Buffer.create 256 in
  let err = Format.formatter_of_buffer buf in
  Format.pp_set_margin err max_int;
  let result = Cmdliner.Cmd.eval_value ~err cmd in
  Format.pp_print_flush err ();
  match result with
  | Ok _ -> exit 0
  | Error (`Parse | `Term) ->
      prerr_endline (List.hd (String.split_on_char '\n' (Buffer.contents buf)));
      exit 2
  | Error `Exn ->
      prerr_string (Buffer.contents buf);
      exit Cmdliner.Cmd.Exit.internal_error
