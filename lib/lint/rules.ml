(* The seven concurrency-discipline rules, implemented over the parsetree.
   See rules.mli for the contract of each rule and the exact approximations
   this pass makes.  The walk is a single Ast_iterator traversal for the
   scoped rules (L1/L2) with per-function analyses (L3/L4/L6/L7 and L5's
   bracket balance) triggered from the value-binding hook, so nested
   [let rec attempt ... in] loops are checked exactly like top-level
   bindings.  L5's interprocedural part runs off the {!Summaries} pass
   after the traversal. *)

open Parsetree

module SMap = Map.Make (String)

type ctx = {
  file : string;
  l1 : bool;
  l2 : bool;
  l3 : bool;
  l4 : bool;
  l5 : bool;
  l6 : bool;
  l7 : bool;
  summary : Summaries.file_info;
  mutable env : string list SMap.t;  (** local module aliases, name -> canonical path *)
  mutable guarded : bool;  (** inside the then-branch of an [if M.named] *)
  mutable exempt : int;  (** depth of enclosing [@acquires]/inferred-release bindings (L3 off) *)
  mutable ref_ok : (int * int) list;  (** locs of [ref] idents in local let binders *)
  mutable findings : Finding.t list;
}

let report ctx rule (loc : Location.t) msg =
  let p = loc.loc_start in
  ctx.findings <-
    Finding.v ~rule ~file:ctx.file ~line:p.pos_lnum ~col:(p.pos_cnum - p.pos_bol) msg
    :: ctx.findings

let report_pos ctx rule (pos : Summaries.pos) msg =
  ctx.findings <-
    Finding.v ~rule ~file:ctx.file ~line:pos.line ~col:pos.col msg :: ctx.findings

let flatten lid = try Longident.flatten lid with _ -> []

let resolve env path =
  match path with
  | [] -> []
  | hd :: rest -> ( match SMap.find_opt hd env with Some tgt -> tgt @ rest | None -> path)

let is_forbidden_root c = String.equal c "Atomic" || String.equal c "Mutex"

let is_ref_path = function [ "ref" ] | [ "Stdlib"; "ref" ] -> true | _ -> false

let has_attr name attrs =
  List.exists (fun a -> String.equal a.attr_name.txt name) attrs

let loc_key (loc : Location.t) = (loc.loc_start.pos_lnum, loc.loc_start.pos_cnum)

(* ------------------------------------------------------------------ *)
(* Shared path checks (L1 confinement, L2 naming mentions)            *)
(* ------------------------------------------------------------------ *)

let check_path ctx (loc : Location.t) path =
  let resolved = resolve ctx.env path in
  if ctx.l1 && List.exists is_forbidden_root resolved then
    report ctx Finding.L1 loc
      (Printf.sprintf "raw %s access outside the memory backend (use the M.* functor argument)"
         (String.concat "." resolved));
  if ctx.l2 && List.exists (String.equal "Naming") resolved && not ctx.guarded then
    report ctx Finding.L2 loc
      (Printf.sprintf "%s outside an [if M.named] guard (names must not be built on the real backend)"
         (String.concat "." path))

(* Does an expression mention an identifier whose last component is
   [named] (e.g. [M.named])?  Used to recognize L2 guards. *)
let mentions_named e =
  let found = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_ident { txt; _ } -> (
              match List.rev (flatten txt) with
              | "named" :: _ -> found := true
              | _ -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it e;
  !found

(* ------------------------------------------------------------------ *)
(* Paired-operation balance (L3 locks, L5 epoch brackets)             *)
(* ------------------------------------------------------------------ *)

(* L3 tracks qualified backend lock operations: [M.lock] / [M.unlock] /
   [M.try_lock] (any one-module qualifier); unqualified calls to local
   functions the summary pass knows as [@acquires] count as try-style
   acquisitions in [if] conditions.  L5 reuses the same machinery for
   [M.op_enter] / [M.op_exit] epoch brackets.  Only the classifier and
   the report text differ, so both are parameters. *)
type pair_kind = Acquire | Release | Try_acquire

type pair_ops = {
  po_classify : expression -> pair_kind option;  (** on the function position of an apply *)
  po_rule : Finding.rule;
  po_branch : string -> int -> int -> string;  (** construct word, branch balances *)
  po_loop : int -> string;
  po_implicit : int -> string;
  po_exit : int -> string;
}

let lock_ops ctx =
  {
    po_classify =
      (fun f ->
        match f.pexp_desc with
        | Pexp_ident { txt; _ } -> (
            match flatten txt with
            | [ _; "lock" ] -> Some Acquire
            | [ _; "unlock" ] -> Some Release
            | [ _; "try_lock" ] -> Some Try_acquire
            | [ name ] when Summaries.is_acquires ctx.summary name -> Some Try_acquire
            | _ -> None)
        | _ -> None);
    po_rule = Finding.L3;
    po_branch =
      (fun word a b -> Printf.sprintf "lock balance differs across %s branches (%+d vs %+d)" word a b);
    po_loop =
      Printf.sprintf "loop body acquires %d lock(s) not released within the iteration";
    po_implicit = Printf.sprintf "implicit else branch exits holding %d lock(s)";
    po_exit =
      Printf.sprintf "exits holding %d lock(s); release on every path or tag the binding [@acquires]";
  }

let bracket_ops =
  {
    po_classify =
      (fun f ->
        match f.pexp_desc with
        | Pexp_ident { txt; _ } -> (
            match flatten txt with
            | [ _; "op_enter" ] -> Some Acquire
            | [ _; "op_exit" ] -> Some Release
            | _ -> None)
        | _ -> None);
    po_rule = Finding.L5;
    po_branch =
      (fun word a b ->
        Printf.sprintf "epoch-bracket balance differs across %s branches (%+d vs %+d)" word a b);
    po_loop =
      Printf.sprintf "loop body opens %d epoch bracket(s) not closed within the iteration";
    po_implicit = Printf.sprintf "implicit else branch exits with %d open epoch bracket(s)";
    po_exit =
      Printf.sprintf "exits with %d open epoch bracket(s); close the bracket on every path";
  }

let is_fun_protect f =
  match f.pexp_desc with
  | Pexp_ident { txt; _ } -> flatten txt = [ "Fun"; "protect" ]
  | _ -> false

(* Count release applications anywhere in [e], including inside
   closures — used for [Fun.protect ~finally:(fun () -> M.unlock ...)],
   whose release runs on every exit including exceptional ones. *)
let count_releases ops e =
  let n = ref 0 in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_apply (f, _) when ops.po_classify f = Some Release -> incr n
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it e;
  !n

(* An expression that leaves the function by raising rather than
   returning; balance on exceptional exits is out of scope. *)
let is_exception_exit e =
  match e.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
      match List.rev (flatten txt) with
      | ("raise" | "raise_notrace" | "failwith" | "invalid_arg") :: _ -> true
      | _ -> false)
  | Pexp_assert { pexp_desc = Pexp_construct ({ txt = Lident "false"; _ }, None); _ } -> true
  | _ -> false

(* If the condition of an [if] is a try-acquire attempt, the then/else
   branches start with different balances. *)
let cond_acquire ops c =
  match c.pexp_desc with
  | Pexp_apply (f, _) when ops.po_classify f = Some Try_acquire -> (1, 0)
  | Pexp_apply
      ( { pexp_desc = Pexp_ident { txt = Lident "not"; _ }; _ },
        [ (_, { pexp_desc = Pexp_apply (f, _); _ }) ] )
    when ops.po_classify f = Some Try_acquire ->
      (0, 1)
  | _ -> (0, 0)

let is_function_expr e =
  match e.pexp_desc with
  | Pexp_fun _ | Pexp_function _ | Pexp_newtype _ -> true
  | _ -> false

(* Net balance change of evaluating [e] in statement position.
   Branch constructs whose arms disagree while acquiring are reported;
   the larger (more-held) arm is propagated so a leak is still caught at
   the exit.  Closures contribute zero: their bodies run later. *)
let rec delta ctx ops e =
  match e.pexp_desc with
  | Pexp_apply (f, args) ->
      if is_fun_protect f then
        List.fold_left
          (fun acc (label, arg) ->
            match label with
            | Asttypes.Labelled "finally" -> acc - count_releases ops arg
            | _ -> acc + delta ctx ops arg)
          0 args
      else
        let base = List.fold_left (fun acc (_, arg) -> acc + delta ctx ops arg) 0 args in
        (match ops.po_classify f with
        | Some Acquire -> base + 1
        | Some Release -> base - 1
        | Some Try_acquire | None -> base + delta ctx ops f)
  | Pexp_sequence (a, b) -> delta ctx ops a + delta ctx ops b
  | Pexp_let (_, vbs, body) ->
      List.fold_left
        (fun acc vb ->
          if is_function_expr vb.pvb_expr then acc else acc + delta ctx ops vb.pvb_expr)
        0 vbs
      + delta ctx ops body
  | Pexp_ifthenelse (c, t, eo) ->
      let base = delta ctx ops c in
      let ta, ea = cond_acquire ops c in
      let dt = ta + delta ctx ops t in
      let de = ea + match eo with Some e2 -> delta ctx ops e2 | None -> 0 in
      if dt <> de && max dt de > 0 then
        report ctx ops.po_rule e.pexp_loc (ops.po_branch "if" dt de);
      base + max dt de
  | Pexp_match (scr, cases) | Pexp_try (scr, cases) ->
      let base = delta ctx ops scr in
      let ds = List.map (fun c -> delta ctx ops c.pc_rhs) cases in
      let mx = List.fold_left max min_int ds and mn = List.fold_left min max_int ds in
      if mx <> mn && mx > 0 then
        report ctx ops.po_rule e.pexp_loc (ops.po_branch "match" mn mx);
      base + if cases = [] then 0 else mx
  | Pexp_while (c, body) ->
      let db = delta ctx ops body in
      if db > 0 then report ctx ops.po_rule e.pexp_loc (ops.po_loop db);
      delta ctx ops c
  | Pexp_for (_, lo, hi, _, body) ->
      let db = delta ctx ops body in
      if db > 0 then report ctx ops.po_rule e.pexp_loc (ops.po_loop db);
      delta ctx ops lo + delta ctx ops hi
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) | Pexp_open (_, e)
  | Pexp_letmodule (_, _, e) | Pexp_newtype (_, e) ->
      delta ctx ops e
  | Pexp_construct (_, Some e) | Pexp_variant (_, Some e) | Pexp_field (e, _)
  | Pexp_assert e | Pexp_letexception (_, e) ->
      delta ctx ops e
  | Pexp_setfield (a, _, b) -> delta ctx ops a + delta ctx ops b
  | Pexp_tuple es | Pexp_array es -> List.fold_left (fun acc e -> acc + delta ctx ops e) 0 es
  | Pexp_record (fields, base) ->
      List.fold_left (fun acc (_, e) -> acc + delta ctx ops e) 0 fields
      + (match base with Some e -> delta ctx ops e | None -> 0)
  | Pexp_fun _ | Pexp_function _ | Pexp_lazy _ -> 0
  | _ -> 0

(* Check [e] in tail position of a function whose current syntactic
   balance is [bal]; every exit with a positive balance is a finding. *)
let rec check_tail ctx ops bal e =
  match e.pexp_desc with
  | Pexp_sequence (a, b) -> check_tail ctx ops (bal + delta ctx ops a) b
  | Pexp_let (_, vbs, body) ->
      let bal =
        List.fold_left
          (fun acc vb ->
            if is_function_expr vb.pvb_expr then acc else acc + delta ctx ops vb.pvb_expr)
          bal vbs
      in
      check_tail ctx ops bal body
  | Pexp_ifthenelse (c, t, eo) -> (
      let bal = bal + delta ctx ops c in
      let ta, ea = cond_acquire ops c in
      check_tail ctx ops (bal + ta) t;
      match eo with
      | Some e2 -> check_tail ctx ops (bal + ea) e2
      | None -> if bal + ea > 0 then report ctx ops.po_rule e.pexp_loc (ops.po_implicit (bal + ea)))
  | Pexp_match (scr, cases) ->
      let bal = bal + delta ctx ops scr in
      List.iter (fun c -> check_tail ctx ops bal c.pc_rhs) cases
  | Pexp_try (body, cases) ->
      check_tail ctx ops bal body;
      List.iter (fun c -> check_tail ctx ops bal c.pc_rhs) cases
  | Pexp_constraint (e, _) | Pexp_open (_, e) | Pexp_letmodule (_, _, e) ->
      check_tail ctx ops bal e
  | _ ->
      if not (is_exception_exit e) then begin
        let final = bal + delta ctx ops e in
        if final > 0 then report ctx ops.po_rule e.pexp_loc (ops.po_exit final)
      end

let rec strip_params e =
  match e.pexp_desc with
  | Pexp_fun (_, _, _, body) -> strip_params body
  | Pexp_newtype (_, body) -> strip_params body
  | _ -> e

let pair_check ctx ops vb =
  if is_function_expr vb.pvb_expr then
    match (strip_params vb.pvb_expr).pexp_desc with
    | Pexp_function cases ->
        List.iter (fun c -> check_tail ctx ops 0 c.pc_rhs) cases
    | _ -> check_tail ctx ops 0 (strip_params vb.pvb_expr)

(* A function whose body releases through a local releaser helper
   ([unlock_distinct] over an array of predecessors) cannot be tracked
   syntactically; it gets the same exemption as an explicit [@acquires]
   tag, inferred from the summary pass. *)
let calls_releaser ctx e =
  let found = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_apply ({ pexp_desc = Pexp_ident { txt = Lident name; _ }; _ }, _)
            when Summaries.is_releaser ctx.summary name ->
              found := true
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it e;
  !found

(* ------------------------------------------------------------------ *)
(* L4: hot-path allocation lint                                       *)
(* ------------------------------------------------------------------ *)

let l4_check ctx vb =
  let flag loc what = report ctx Finding.L4 loc (what ^ " in a [@hot] body allocates") in
  let body = strip_params vb.pvb_expr in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_fun _ | Pexp_function _ -> flag e.pexp_loc "closure"
          | Pexp_tuple _ -> flag e.pexp_loc "tuple construction"
          | Pexp_record _ -> flag e.pexp_loc "record construction"
          | Pexp_array _ -> flag e.pexp_loc "array construction"
          | Pexp_lazy _ -> flag e.pexp_loc "lazy suspension"
          | Pexp_letop _ -> flag e.pexp_loc "binding operator"
          | Pexp_construct (_, Some _) | Pexp_variant (_, Some _) ->
              flag e.pexp_loc "constructor application"
          | Pexp_apply ({ pexp_desc = Pexp_apply _; _ }, _) ->
              flag e.pexp_loc "staged (partial) application"
          | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _)
            when is_ref_path (flatten txt) ->
              flag e.pexp_loc "ref cell allocation"
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it body

(* ------------------------------------------------------------------ *)
(* L6: retire/use discipline                                          *)
(* ------------------------------------------------------------------ *)

(* Intraprocedural forward dataflow over the statement walk: a value
   passed to [M.retire] is poisoned — any later mention (field read,
   lock call, re-retire) in the same function is a finding.  A retire of
   a value the function did not allocate itself (a parameter or
   traversal result) must additionally be preceded by an unlinking
   [M.set]/[M.cas] on some path walked earlier.  Poison is branch-local:
   each if/match arm starts from the state before the construct and the
   arms union at the join, so a retire in one arm never taints its
   siblings — only the code after the construct.  Closures and nested
   functions are their own scope. *)
let l6_check ctx vb =
  if is_function_expr vb.pvb_expr then begin
    let poisoned : (string, unit) Hashtbl.t ref = ref (Hashtbl.create 4) in
    let local : (string, unit) Hashtbl.t = Hashtbl.create 4 in
    let unlink_seen = ref false in
    let rec bind_pat p =
      match p.ppat_desc with
      | Ppat_var { txt; _ } -> Hashtbl.replace local txt ()
      | Ppat_tuple ps -> List.iter bind_pat ps
      | Ppat_constraint (p, _) | Ppat_alias (p, _) -> bind_pat p
      | _ -> ()
    in
    (* Walk each arm from a copy of the pre-construct state, then union
       the arms' poison into the state after the construct. *)
    let rec branches thunks =
      let base = !poisoned in
      let outcomes =
        List.map
          (fun thunk ->
            poisoned := Hashtbl.copy base;
            thunk ();
            !poisoned)
          thunks
      in
      List.iter (fun tbl -> Hashtbl.iter (fun k () -> Hashtbl.replace base k ()) tbl) outcomes;
      poisoned := base
    and go e =
      match e.pexp_desc with
      | Pexp_ident { txt = Lident x; loc } ->
          if Hashtbl.mem !poisoned x then
            report ctx Finding.L6 loc
              (Printf.sprintf "use of %s after M.retire (the node may already be recycled)" x)
      | Pexp_apply (f, args) -> (
          let path =
            match f.pexp_desc with Pexp_ident { txt; _ } -> flatten txt | _ -> []
          in
          match (path, List.rev args) with
          | [ _; "retire" ], (_, { pexp_desc = Pexp_ident { txt = Lident x; loc }; _ }) :: rest
            ->
              List.iter (fun (_, a) -> go a) (List.rev rest);
              if Hashtbl.mem !poisoned x then
                report ctx Finding.L6 loc
                  (Printf.sprintf "%s retired twice (retire happens at most once per unlink)" x)
              else begin
                if (not (Hashtbl.mem local x)) && not !unlink_seen then
                  report ctx Finding.L6 loc
                    (Printf.sprintf
                       "retire of %s is not dominated by an unlinking store/CAS (only unlinked \
                        or never-published nodes may be retired)"
                       x);
                Hashtbl.replace !poisoned x ()
              end
          | _ ->
              go f;
              List.iter (fun (_, a) -> go a) args;
              match path with
              | [ _; ("set" | "cas" | "set_link" | "cas_link" | "set_key") ] ->
                  unlink_seen := true
              | _ -> ())
      | Pexp_let (_, vbs, body) ->
          List.iter
            (fun b ->
              if not (is_function_expr b.pvb_expr) then begin
                go b.pvb_expr;
                bind_pat b.pvb_pat
              end)
            vbs;
          go body
      | Pexp_sequence (a, b) -> go a; go b
      | Pexp_ifthenelse (c, t, eo) ->
          go c;
          branches [ (fun () -> go t); (fun () -> Option.iter go eo) ]
      | Pexp_match (s, cs) | Pexp_try (s, cs) ->
          go s;
          branches
            (List.map
               (fun c () ->
                 Option.iter go c.pc_guard;
                 go c.pc_rhs)
               cs)
      | Pexp_while (c, b) -> go c; go b
      | Pexp_for (_, a, b, _, body) -> go a; go b; go body
      | Pexp_fun _ | Pexp_function _ -> ()
      | Pexp_construct (_, Some e) | Pexp_variant (_, Some e) | Pexp_field (e, _)
      | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) | Pexp_assert e | Pexp_lazy e
      | Pexp_open (_, e) | Pexp_newtype (_, e) | Pexp_letmodule (_, _, e)
      | Pexp_letexception (_, e) ->
          go e
      | Pexp_setfield (a, _, b) -> go a; go b
      | Pexp_tuple es | Pexp_array es -> List.iter go es
      | Pexp_record (fs, base) ->
          List.iter (fun (_, e) -> go e) fs;
          Option.iter go base
      | _ -> ()
    in
    go (strip_params vb.pvb_expr)
  end

(* ------------------------------------------------------------------ *)
(* L7: publish-before-reachable                                       *)
(* ------------------------------------------------------------------ *)

(* Once a node is published — its name appears in the stored value of an
   [M.set]/[M.cas] or of their [_link] forms, or its [version] field is
   bumped — writing a direct field cell of it ([n.field]), its link
   ([M.set_link x ...]) or its key ([M.set_key x ...]) with a
   non-constant value is a finding: other threads can already reach the
   node, so initialization came too late.
   Constant stores ([M.set n.fully_linked true]) are the deliberate
   post-publish flag idiom and stay exempt.  Cells and links reached
   through accessor or guard helpers ([linked prev]) are list surgery on
   already reachable nodes, never initialization, so only direct ones
   can violate.  [match x with Node n -> ...] aliases [n] to [x]. *)
let l7_check ctx vb =
  if is_function_expr vb.pvb_expr then begin
    let alias : (string, string) Hashtbl.t = Hashtbl.create 4 in
    let published : (string, [ `Store | `Version ]) Hashtbl.t = Hashtbl.create 4 in
    let rec resolve_root fuel x =
      if fuel = 0 then x
      else
        match Hashtbl.find_opt alias x with
        | Some y when y <> x -> resolve_root (fuel - 1) y
        | _ -> x
    in
    let resolve_root = resolve_root 8 in
    (* Idents mentioned in value position (function positions excluded). *)
    let rec mentions acc e =
      match e.pexp_desc with
      | Pexp_ident { txt = Lident x; _ } -> x :: acc
      | Pexp_ident _ -> acc
      | Pexp_apply (f, args) ->
          let acc =
            match f.pexp_desc with Pexp_ident _ -> acc | _ -> mentions acc f
          in
          List.fold_left (fun acc (_, a) -> mentions acc a) acc args
      | Pexp_construct (_, Some e) | Pexp_variant (_, Some e) | Pexp_field (e, _)
      | Pexp_constraint (e, _) | Pexp_lazy e | Pexp_open (_, e) ->
          mentions acc e
      | Pexp_tuple es | Pexp_array es -> List.fold_left mentions acc es
      | Pexp_record (fs, base) ->
          let acc = List.fold_left (fun acc (_, e) -> mentions acc e) acc fs in
          (match base with Some e -> mentions acc e | None -> acc)
      | Pexp_ifthenelse (c, t, eo) ->
          let acc = mentions (mentions acc c) t in
          (match eo with Some e -> mentions acc e | None -> acc)
      | Pexp_sequence (a, b) -> mentions (mentions acc a) b
      | _ -> acc
    in
    let is_const v =
      match v.pexp_desc with
      | Pexp_constant _ | Pexp_construct (_, None) | Pexp_variant (_, None) -> true
      | _ -> false
    in
    let register_aliases root pat =
      let rec binders p =
        match p.ppat_desc with
        | Ppat_var { txt; _ } -> [ txt ]
        | Ppat_alias (p, { txt; _ }) -> txt :: binders p
        | Ppat_tuple ps | Ppat_array ps -> List.concat_map binders ps
        | Ppat_record (fields, _) -> List.concat_map (fun (_, p) -> binders p) fields
        | Ppat_constraint (p, _) -> binders p
        | _ -> []
      in
      match pat.ppat_desc with
      | Ppat_construct (_, Some (_, arg)) ->
          List.iter (fun b -> Hashtbl.replace alias b root) (binders arg)
      | _ -> ()
    in
    let field_of cell =
      match cell.pexp_desc with
      | Pexp_field ({ pexp_desc = Pexp_ident { txt = Lident n; _ }; _ }, { txt = fld; _ }) ->
          Some (resolve_root n, (match List.rev (flatten fld) with f :: _ -> f | [] -> ""))
      | _ -> None
    in
    (* A link or key store names its node; a guard or accessor around
       the node ([linked prev]) is surgery on a reachable node, like
       [next_of]. *)
    let node_field fld node =
      match node.pexp_desc with
      | Pexp_ident { txt = Lident n; _ } -> Some (resolve_root n, fld)
      | _ -> None
    in
    let handle_store field_cell v loc =
      (* Violation: non-constant store to a field of an already published root. *)
      (match field_cell with
      | Some (root, fld) when not (is_const v) -> (
          match Hashtbl.find_opt published root with
          | Some `Store ->
              report ctx Finding.L7 loc
                (Printf.sprintf
                   "field '%s' of %s written after the node was published by a store/CAS \
                    (initialize every cell before publishing)"
                   fld root)
          | Some `Version ->
              report ctx Finding.L7 loc
                (Printf.sprintf
                   "field '%s' of %s written after its version bump (the bump publishes the \
                    node's pending writes; write data fields first)"
                   fld root)
          | None -> ())
      | _ -> ());
      (* Publish effects of this store. *)
      let cell_root = Option.map fst field_cell in
      List.iter
        (fun y ->
          let y = resolve_root y in
          if Some y <> cell_root then
            if not (Hashtbl.mem published y) then Hashtbl.replace published y `Store)
        (mentions [] v);
      match field_cell with
      | Some (root, "version") ->
          if not (Hashtbl.mem published root) then Hashtbl.replace published root `Version
      | _ -> ()
    in
    let rec go e =
      match e.pexp_desc with
      | Pexp_apply (f, args) -> (
          go f;
          List.iter (fun (_, a) -> go a) args;
          let path =
            match f.pexp_desc with Pexp_ident { txt; _ } -> flatten txt | _ -> []
          in
          match (path, args) with
          | [ _; "set" ], [ (_, cell); (_, v) ] -> handle_store (field_of cell) v e.pexp_loc
          | [ _; "cas" ], [ (_, cell); _; (_, v) ] -> handle_store (field_of cell) v e.pexp_loc
          | [ _; "set_link" ], [ (_, node); _; (_, v) ] ->
              handle_store (node_field "link" node) v e.pexp_loc
          | [ _; "cas_link" ], [ (_, node); _; _; (_, v) ] ->
              handle_store (node_field "link" node) v e.pexp_loc
          | [ _; "set_key" ], [ (_, node); _; (_, v) ] ->
              handle_store (node_field "key" node) v e.pexp_loc
          | _ -> ())
      | Pexp_let (_, vbs, body) ->
          List.iter
            (fun b ->
              if not (is_function_expr b.pvb_expr) then begin
                go b.pvb_expr;
                match b.pvb_pat.ppat_desc with
                | Ppat_var { txt; _ } ->
                    (* rebinding starts a fresh, unpublished value *)
                    Hashtbl.remove published txt;
                    Hashtbl.remove alias txt
                | _ -> ()
              end)
            vbs;
          go body
      | Pexp_match (scr, cases) ->
          go scr;
          (match scr.pexp_desc with
          | Pexp_ident { txt = Lident x; _ } ->
              List.iter (fun c -> register_aliases (resolve_root x) c.pc_lhs) cases
          | _ -> ());
          List.iter
            (fun c ->
              Option.iter go c.pc_guard;
              go c.pc_rhs)
            cases
      | Pexp_try (s, cs) ->
          go s;
          List.iter
            (fun c ->
              Option.iter go c.pc_guard;
              go c.pc_rhs)
            cs
      | Pexp_sequence (a, b) -> go a; go b
      | Pexp_ifthenelse (c, t, eo) -> go c; go t; Option.iter go eo
      | Pexp_while (c, b) -> go c; go b
      | Pexp_for (_, a, b, _, body) -> go a; go b; go body
      | Pexp_fun _ | Pexp_function _ -> ()
      | Pexp_construct (_, Some e) | Pexp_variant (_, Some e) | Pexp_field (e, _)
      | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) | Pexp_assert e | Pexp_lazy e
      | Pexp_open (_, e) | Pexp_newtype (_, e) | Pexp_letmodule (_, _, e)
      | Pexp_letexception (_, e) ->
          go e
      | Pexp_setfield (a, _, b) -> go a; go b
      | Pexp_tuple es | Pexp_array es -> List.iter go es
      | Pexp_record (fs, base) ->
          List.iter (fun (_, e) -> go e) fs;
          Option.iter go base
      | _ -> ()
    in
    go (strip_params vb.pvb_expr)
  end

(* ------------------------------------------------------------------ *)
(* L5: interprocedural epoch-bracket reachability                     *)
(* ------------------------------------------------------------------ *)

(* Runs off the summary pass after the traversal: in a reclaiming
   module, an unprotected function may not reach shared cells outside a
   bracket — neither by direct dereference (reported on roots, where the
   protocol obligation sits) nor by calling an in-file function that
   touches shared cells without its own protection. *)
let l5_reachability ctx =
  let s = ctx.summary in
  if Summaries.reclaiming s then
    List.iter
      (fun (fn : Summaries.fn) ->
        let unprotected =
          Summaries.status s fn.Summaries.fn_name = Summaries.Unprotected
          && not fn.Summaries.fn_quiescent
        in
        if unprotected then begin
          List.iter
            (fun (c : Summaries.call) ->
              if
                (not c.Summaries.c_site.s_bracketed)
                && (not c.Summaries.c_site.s_unreclaiming)
                && Summaries.touches_shared s c.Summaries.c_callee
              then
                report_pos ctx Finding.L5 c.Summaries.c_site.s_pos
                  (Printf.sprintf
                     "call to %s, which touches shared cells, outside an op_enter/op_exit \
                      bracket (bracket the call, tag %s [@protected], or the caller \
                      [@quiescent])"
                     c.Summaries.c_callee c.Summaries.c_callee))
            fn.Summaries.fn_calls;
          if Summaries.is_root s fn.Summaries.fn_name then
            List.iter
              (fun (d : Summaries.deref) ->
                if
                  (not d.Summaries.d_site.s_bracketed)
                  && not d.Summaries.d_site.s_unreclaiming
                then
                  report_pos ctx Finding.L5 d.Summaries.d_site.s_pos
                    (Printf.sprintf
                       "M.%s outside an op_enter/op_exit bracket in a reclaiming module (open \
                        a bracket, or tag the function [@protected] or [@quiescent])"
                       d.Summaries.d_op))
              fn.Summaries.fn_derefs
        end)
      (Summaries.fns s)

(* ------------------------------------------------------------------ *)
(* L1 on record declarations                                           *)
(* ------------------------------------------------------------------ *)

(* A field of type [_ M.link] or [_ M.key] (any single-module
   qualifier). *)
let is_backend_type name (l : label_declaration) =
  match l.pld_type.ptyp_desc with
  | Ptyp_constr ({ txt = Ldot (Lident _, n); _ }, [ _ ]) -> String.equal n name
  | _ -> false

let is_link = is_backend_type "link"
let is_key = is_backend_type "key"

(* The fields of one record or inline record: no mutable field; at most
   one link, in first position (the real backends reach it as field 0 of
   the node's block); at most one key, and in a record with a link the
   key is field 1, where the real [set_key] writes.  A record without a
   link (a tail, a skip-list or tree node) is never recycled, so its key
   may sit anywhere. *)
let l1_labels ctx labels =
  let has_link = List.exists is_link labels in
  List.iteri
    (fun i l ->
      if is_key l then begin
        if List.exists is_key (List.filteri (fun j _ -> j < i) labels) then
          report ctx Finding.L1 l.pld_loc
            (Printf.sprintf "second key '%s' in one record (a node has one key)" l.pld_name.txt)
        else if has_link && i <> 1 then
          report ctx Finding.L1 l.pld_loc
            (Printf.sprintf
               "key field '%s' is not field 1, right after the link (the real backends' \
                set_key writes field 1)"
               l.pld_name.txt)
      end;
      if l.pld_mutable = Asttypes.Mutable then
        report ctx Finding.L1 l.pld_loc
          (Printf.sprintf "mutable record field '%s' (shared state must be an M.cell)"
             l.pld_name.txt);
      if is_link l && i > 0 then
        report ctx Finding.L1 l.pld_loc
          (if List.exists is_link (List.filteri (fun j _ -> j < i) labels) then
             Printf.sprintf "second link '%s' in one record (a node has one successor link)"
               l.pld_name.txt
           else
             Printf.sprintf
               "link field '%s' is not the record's first field (the real backends read \
                field 0)"
               l.pld_name.txt))
    labels

(* ------------------------------------------------------------------ *)
(* The traversal                                                       *)
(* ------------------------------------------------------------------ *)

let module_expr_path me =
  match me.pmod_desc with Pmod_ident { txt; _ } -> Some (flatten txt) | _ -> None

let file ?(summaries = Summaries.empty) ~rules ~file:fname (str : structure) : Finding.t list =
  let has r = List.mem r rules in
  let ctx =
    {
      file = fname;
      l1 = has Finding.L1;
      l2 = has Finding.L2;
      l3 = has Finding.L3;
      l4 = has Finding.L4;
      l5 = has Finding.L5;
      l6 = has Finding.L6;
      l7 = has Finding.L7;
      summary = summaries;
      env = SMap.empty;
      guarded = false;
      exempt = 0;
      ref_ok = [];
      findings = [];
    }
  in
  let lops = lock_ops ctx in
  let scoped_env f =
    let saved = ctx.env in
    f ();
    ctx.env <- saved
  in
  let register_alias name me =
    match module_expr_path me with
    | Some path -> ctx.env <- SMap.add name (resolve ctx.env path) ctx.env
    | None -> ()
  in
  let check_open_like (loc : Location.t) me =
    match module_expr_path me with Some path -> check_path ctx loc path | None -> ()
  in
  let default = Ast_iterator.default_iterator in
  let it =
    {
      default with
      expr =
        (fun it e ->
          match e.pexp_desc with
          | Pexp_ident { txt; loc } ->
              let path = flatten txt in
              if ctx.l1 && is_ref_path (resolve ctx.env path)
                 && not (List.mem (loc_key loc) ctx.ref_ok)
              then
                report ctx Finding.L1 loc
                  "ref allocation escaping a local let binding (shared state must be an M.cell)";
              check_path ctx loc path
          | Pexp_setfield (a, _, b) ->
              if ctx.l1 then
                report ctx Finding.L1 e.pexp_loc
                  "mutable field assignment outside the memory backend (use M.set)";
              it.expr it a;
              it.expr it b
          | Pexp_let (_, vbs, body) ->
              (* [let x = ref e in ...] is the accepted thread-local
                 temporary idiom; remember the binder so the ident check
                 lets it through. *)
              List.iter
                (fun vb ->
                  match (vb.pvb_pat.ppat_desc, vb.pvb_expr.pexp_desc) with
                  | Ppat_var _, Pexp_apply ({ pexp_desc = Pexp_ident { txt; loc }; _ }, _)
                    when is_ref_path (resolve ctx.env (flatten txt)) ->
                      ctx.ref_ok <- loc_key loc :: ctx.ref_ok
                  | _ -> ())
                vbs;
              List.iter (it.value_binding it) vbs;
              it.expr it body
          | Pexp_ifthenelse (c, t, eo) ->
              it.expr it c;
              if ctx.l2 && mentions_named c then begin
                let saved = ctx.guarded in
                ctx.guarded <- true;
                it.expr it t;
                ctx.guarded <- saved
              end
              else it.expr it t;
              Option.iter (it.expr it) eo
          | Pexp_open (od, body) ->
              check_open_like od.popen_loc od.popen_expr;
              scoped_env (fun () -> it.expr it body)
          | Pexp_letmodule (name, me, body) ->
              scoped_env (fun () ->
                  (match name.txt with
                  | Some n -> register_alias n me
                  | None -> ());
                  (match module_expr_path me with
                  | Some _ -> ()
                  | None -> it.module_expr it me);
                  it.expr it body)
          | _ -> default.expr it e)
      ;
      case =
        (fun it c ->
          it.pat it c.pc_lhs;
          match c.pc_guard with
          | Some g when ctx.l2 && mentions_named g ->
              it.expr it g;
              let saved = ctx.guarded in
              ctx.guarded <- true;
              it.expr it c.pc_rhs;
              ctx.guarded <- saved
          | Some g ->
              it.expr it g;
              it.expr it c.pc_rhs
          | None -> it.expr it c.pc_rhs);
      value_binding =
        (fun it vb ->
          if ctx.l4 && has_attr "hot" vb.pvb_attributes then l4_check ctx vb;
          let acquires = has_attr "acquires" vb.pvb_attributes in
          let inferred =
            (not acquires) && ctx.l3 && is_function_expr vb.pvb_expr
            && calls_releaser ctx vb.pvb_expr
          in
          if ctx.l3 && ctx.exempt = 0 && (not acquires) && not inferred then
            pair_check ctx lops vb;
          if ctx.l5 && Summaries.reclaiming ctx.summary then pair_check ctx bracket_ops vb;
          if ctx.l6 then l6_check ctx vb;
          if ctx.l7 then l7_check ctx vb;
          if acquires || inferred then begin
            ctx.exempt <- ctx.exempt + 1;
            default.value_binding it vb;
            ctx.exempt <- ctx.exempt - 1
          end
          else default.value_binding it vb);
      module_binding =
        (fun it mb ->
          match (mb.pmb_name.txt, module_expr_path mb.pmb_expr) with
          | Some n, Some _ ->
              register_alias n mb.pmb_expr
              (* pure alias: nothing further to walk *)
          | _ -> default.module_binding it mb);
      structure_item =
        (fun it si ->
          match si.pstr_desc with
          | Pstr_open od ->
              check_open_like od.popen_loc od.popen_expr;
              default.structure_item it si
          | Pstr_include incl ->
              check_open_like incl.pincl_loc incl.pincl_mod;
              default.structure_item it si
          | Pstr_type (_, decls) ->
              if ctx.l1 then
                List.iter
                  (fun d ->
                    match d.ptype_kind with
                    | Ptype_record labels -> l1_labels ctx labels
                    | Ptype_variant cds ->
                        List.iter
                          (fun cd ->
                            match cd.pcd_args with
                            | Pcstr_record labels -> l1_labels ctx labels
                            | Pcstr_tuple _ -> ())
                          cds
                    | _ -> ())
                  decls;
              default.structure_item it si
          | _ -> default.structure_item it si);
    }
  in
  it.structure it str;
  if ctx.l5 then l5_reachability ctx;
  List.sort Finding.compare ctx.findings
