(* Fixture-driven tests for the AST concurrency-discipline lint.  Each
   bad_* fixture seeds violations whose rule, line and column are
   asserted exactly; the clean_* fixtures are negative controls —
   including [clean_comments.ml], the regression for the grep lint's
   false positives on comments and string literals, and
   [clean_reclaim.ml], the disciplined reclaiming shape that must stay
   clean under L5/L6/L7 without any [@protected] annotations. *)

module F = Vbl_lint.Finding
module L = Vbl_lint.Lint

let fixture name = Filename.concat "fixtures" name

let spans ?rules name =
  L.lint_file ?rules (fixture name)
  |> List.map (fun (f : F.t) -> (F.rule_to_string f.rule, f.line, f.col))

let span = Alcotest.(triple string int int)
let check_spans name expected actual = Alcotest.(check (list span)) name expected actual

let l1_atomics () =
  check_spans "direct, aliased and opened Atomic/Mutex are all flagged"
    [
      ("L1", 5, 14);
      (* [A.make] resolves through the [module A = Atomic] alias *)
      ("L1", 6, 14);
      ("L1", 7, 8);
      ("L1", 10, 2);
      ("L1", 12, 2);
      ("L1", 15, 0);
      (* the [open Atomic] itself *)
    ]
    (spans ~rules:[ F.L1 ] "bad_l1_atomic.ml")

let l1_mutation () =
  check_spans "mutable field, setfield and escaping refs are flagged; local ref temporary is not"
    [ ("L1", 4, 11); ("L1", 6, 13); ("L1", 7, 11); ("L1", 8, 22) ]
    (spans ~rules:[ F.L1 ] "bad_l1_mutation.ml")

let l1_link () =
  check_spans "a link after another field, and a second link, flagged; first-field links clean"
    [ ("L1", 6, 36); ("L1", 10, 36) ]
    (spans ~rules:[ F.L1 ] "bad_l1_link.ml")

let l1_key () =
  check_spans "a key away from field 1 beside a link, and a second key, flagged; field-1 keys clean"
    [ ("L1", 7, 49); ("L1", 11, 55) ]
    (spans ~rules:[ F.L1 ] "bad_l1_key.ml")

let l2_naming () =
  check_spans
    "unguarded Naming mentions flagged, also as a field's node name; guarded and \
     when-guarded ones clean"
    [
      ("L2", 11, 13);
      ("L2", 11, 31);
      ("L2", 12, 19);
      ("L2", 12, 32);
      ("L2", 15, 27);
      ("L2", 23, 11);
    ]
    (spans ~rules:[ F.L2 ] "bad_l2_naming.ml")

let l3_leak () =
  check_spans
    "branch leak, one-sided acquire and loop leak flagged; balanced/try-lock/protect/[@acquires] clean"
    [ ("L3", 10, 7); ("L3", 13, 2); ("L3", 18, 2) ]
    (spans ~rules:[ F.L3 ] "bad_l3_leak.ml")

let l4_hot () =
  check_spans "tuple, closure, ref and constructor in a [@hot] body flagged; untagged twin clean"
    [ ("L4", 4, 13); ("L4", 5, 10); ("L4", 6, 10); ("L4", 10, 2) ]
    (spans ~rules:[ F.L4 ] "bad_l4_hot.ml")

let l4_reclaim () =
  check_spans
    "option-boxing and consing in a [@hot] recycle flagged; dummy-sentinel twin clean"
    (* the cons doubles as constructor application and list allocation,
       so its span reports twice *)
    [ ("L4", 10, 6); ("L4", 16, 19); ("L4", 16, 19) ]
    (spans ~rules:[ F.L4 ] "bad_reclaim.ml")

let l5_bracket () =
  check_spans
    "unbracketed root deref (key reads and rewrites included), unsafe call to a touching \
     helper, and a leaked bracket flagged; bracketed, unreclaiming-guarded and [@quiescent] \
     shapes clean"
    [ ("L5", 9, 10); ("L5", 10, 10); ("L5", 19, 7); ("L5", 39, 19); ("L5", 41, 23) ]
    (spans ~rules:[ F.L5 ] "bad_l5_bracket.ml")

let l5_nested () =
  check_spans
    "a nested module's unbracketed root is flagged although another module's same-named \
     helper is bracketed"
    [ ("L5", 16, 15); ("L5", 16, 27) ]
    (spans ~rules:[ F.L5 ] "bad_l5_nested.ml")

let l6_retire () =
  check_spans
    "unlock-after-retire, double retire and undominated retire flagged; unlink-then-retire, \
     fresh-node retire and sibling-branch use clean"
    [ ("L6", 8, 22); ("L6", 13, 18); ("L6", 16, 18) ]
    (spans ~rules:[ F.L6 ] "bad_l6_use_after_retire.ml")

let l7_publish () =
  check_spans
    "field initialization after the publishing store flagged; init-then-publish and the \
     constant fully-linked flag clean"
    [ ("L7", 10, 6); ("L7", 11, 6) ]
    (spans ~rules:[ F.L7 ] "bad_l7_publish.ml")

let l7_link () =
  check_spans "a fresh node's link written after its publishing store flagged; link first clean"
    [ ("L7", 7, 4) ]
    (spans ~rules:[ F.L7 ] "bad_l7_link.ml")

let l7_key () =
  check_spans "a recycled node's key rewritten after its publishing store flagged; key first clean"
    [ ("L7", 7, 4) ]
    (spans ~rules:[ F.L7 ] "bad_l7_key.ml")

let l7_version_mutant () =
  (* The PR 6 vbl_versioned bug shape, under every rule: the only
     finding is L7 on the next write that trails the version bump. *)
  check_spans "the version-before-next mutant is caught statically, and only it"
    [ ("L7", 11, 6) ]
    (spans "mutant_l7_version_first.ml")

let clean_reclaim () =
  check_spans
    "disciplined reclaiming module (bracketed ops, helpers inheriting protection through the \
     call graph, unlink-then-retire, init-then-publish) is clean under all rules"
    []
    (spans "clean_reclaim.ml")

let clean_fixtures () =
  check_spans "disciplined miniature list is clean under all rules" []
    (spans "clean_list.ml");
  check_spans "Atomic/Mutex/<- in comments and strings produce no findings" []
    (spans "clean_comments.ml")

let rule_selection () =
  check_spans "an L1-riddled file is clean when only L2 is requested" []
    (spans ~rules:[ F.L2 ] "bad_l1_atomic.ml");
  check_spans "an L4-riddled file is clean when only L3 is requested" []
    (spans ~rules:[ F.L3 ] "bad_l4_hot.ml");
  check_spans "an L5-riddled file is clean when only L6 is requested" []
    (spans ~rules:[ F.L6 ] "bad_l5_bracket.ml")

let parse_failure () =
  match L.lint_file (fixture "bad_parse.ml") with
  | [ f ] ->
      Alcotest.(check string) "rule" "parse" (F.rule_to_string f.rule);
      Alcotest.(check int) "line" 4 f.line
  | fs -> Alcotest.failf "expected exactly one parse finding, got %d" (List.length fs)

let missing_dir () =
  match L.lint_root ~targets:[ ("no/such/dir", F.all_rules) ] "." with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "lint_root must refuse a missing directory, not skip it"

let () =
  Alcotest.run "lint"
    [
      ( "rules",
        [
          Alcotest.test_case "L1 atomics" `Quick l1_atomics;
          Alcotest.test_case "L1 mutation" `Quick l1_mutation;
          Alcotest.test_case "L1 link layout" `Quick l1_link;
          Alcotest.test_case "L1 key layout" `Quick l1_key;
          Alcotest.test_case "L2 naming" `Quick l2_naming;
          Alcotest.test_case "L3 lock pairing" `Quick l3_leak;
          Alcotest.test_case "L4 hot allocation" `Quick l4_hot;
        ] );
      ( "reclaim",
        [
          Alcotest.test_case "L4 reclaim recycle" `Quick l4_reclaim;
          Alcotest.test_case "L5 epoch bracket" `Quick l5_bracket;
          Alcotest.test_case "L5 nested modules" `Quick l5_nested;
          Alcotest.test_case "L6 retire/use" `Quick l6_retire;
          Alcotest.test_case "L7 publish order" `Quick l7_publish;
          Alcotest.test_case "L7 link publish order" `Quick l7_link;
          Alcotest.test_case "L7 key publish order" `Quick l7_key;
          Alcotest.test_case "L7 version-first mutant" `Quick l7_version_mutant;
          Alcotest.test_case "clean reclaiming module" `Quick clean_reclaim;
        ] );
      ( "driver",
        [
          Alcotest.test_case "clean fixtures" `Quick clean_fixtures;
          Alcotest.test_case "rule selection" `Quick rule_selection;
          Alcotest.test_case "parse failure" `Quick parse_failure;
          Alcotest.test_case "missing directory" `Quick missing_dir;
        ] );
    ]
