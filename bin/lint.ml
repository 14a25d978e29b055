(* lint — the AST-level concurrency-discipline linter.

     lint [--rule L1,L2,...] [--format text|json|sarif] [--dir DIR]... ROOT
     lint [--rule ...] [--format ...] FILE.ml

   Parses every algorithm source under ROOT (default directories
   lib/lists, lib/skiplists and lib/shard with all seven rules, lib/trees
   with L1..L4, as no tree reclaims yet, and lib/reclaim with the
   backend subset L3..L7 — override with repeated --dir, which lints the
   named directories uniformly) and
   enforces the discipline rules of vbl.lint; see FRAMEWORK.md "Static
   lint layer".  Exit status: 0 clean, 1 findings, 2 usage or
   missing-directory errors.                                            *)

let usage =
  "usage: lint [--rule L1,L2,...] [--format text|json|sarif] [--dir DIR]... ROOT|FILE.ml"

module F = Vbl_lint.Finding

let parse_rules s =
  s |> String.split_on_char ','
  |> List.filter_map (fun chunk ->
         let chunk = String.trim chunk in
         if chunk = "" then None
         else
           match F.rule_of_string chunk with
           | Some r -> Some r
           | None -> failwith ("unknown rule: " ^ chunk ^ " (expected L1..L7)"))

let emit_text ~target findings =
  List.iter (fun f -> print_endline (F.to_string f)) findings;
  match findings with
  | [] -> Printf.printf "lint: clean (%s)\n" target
  | fs -> Printf.eprintf "lint: %d finding(s)\n" (List.length fs)

let emit_json ~target findings =
  Printf.printf "{\"target\": \"%s\", \"count\": %d, \"findings\": [%s]}\n"
    (F.json_escape target) (List.length findings)
    (String.concat ", " (List.map F.to_json findings))

(* SARIF 2.1.0, the schema GitHub code scanning ingests.  One run, one
   driver, a rule table built from the selectable rules, one result per
   finding. *)
let emit_sarif findings =
  let rule_entry r =
    Printf.sprintf {|{"id":"%s","shortDescription":{"text":"%s"}}|} (F.rule_to_string r)
      (F.json_escape (F.describe r))
  in
  let rules = String.concat "," (List.map rule_entry F.all_rules) in
  let results = String.concat "," (List.map F.to_sarif_result findings) in
  Printf.printf
    {|{"$schema":"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json","version":"2.1.0","runs":[{"tool":{"driver":{"name":"vbl-lint","informationUri":"https://example.invalid/vbl-lint","rules":[%s]}},"results":[%s]}]}|}
    rules results;
  print_newline ()

let () =
  let rules = ref F.all_rules in
  let format = ref "text" in
  let dirs = ref [] in
  let target = ref None in
  let spec =
    [
      ( "--rule",
        Arg.String (fun s -> rules := parse_rules s),
        "RULES comma-separated subset of L1..L7 (default: all)" );
      ( "--format",
        Arg.Symbol ([ "text"; "json"; "sarif" ], fun s -> format := s),
        " output format (default text)" );
      ( "--dir",
        Arg.String (fun d -> dirs := !dirs @ [ d ]),
        "DIR lint this directory under ROOT (repeatable; replaces the default set)" );
    ]
  in
  let anon s =
    match !target with
    | None -> target := Some s
    | Some _ -> raise (Arg.Bad "exactly one ROOT or FILE.ml expected")
  in
  (try Arg.parse spec anon usage
   with Failure msg ->
     prerr_endline ("lint: " ^ msg);
     exit 2);
  let target = Option.value !target ~default:"." in
  let result =
    if Sys.file_exists target && not (Sys.is_directory target) then
      if Filename.check_suffix target ".ml" then
        Ok (target, Vbl_lint.Lint.lint_file ~rules:!rules target)
      else Error (target ^ " is not an .ml file")
    else
      let targets =
        match !dirs with
        | [] -> Vbl_lint.Lint.default_targets
        | ds -> List.map (fun d -> (d, F.all_rules)) ds
      in
      match Vbl_lint.Lint.lint_root ~rules:!rules ~targets target with
      | Ok findings -> Ok (String.concat " " (List.map fst targets), findings)
      | Error msg -> Error msg
  in
  match result with
  | Error msg ->
      prerr_endline ("lint: " ^ msg);
      exit 2
  | Ok (shown, findings) ->
      let findings = List.sort_uniq F.compare findings in
      (match !format with
      | "json" -> emit_json ~target:shown findings
      | "sarif" -> emit_sarif findings
      | _ -> emit_text ~target:shown findings);
      exit (if findings = [] then 0 else 1)
