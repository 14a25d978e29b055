(* See summaries.mli.  One pass over every parsed file, before the rules
   run: extract per-function effect summaries (shared-cell dereferences,
   local calls, lock/unlock counts) with the syntactic context of each
   site (inside an op_enter/op_exit bracket?  under the unreclaiming arm
   of an [if M.reclaiming] guard?), then close over the in-file call
   graph so L3 and L5 can reason about helpers without per-helper
   annotations. *)

open Parsetree

type pos = { line : int; col : int }

type site = {
  s_pos : pos;
  s_bracketed : bool;  (** at this point the op_enter/op_exit balance is positive *)
  s_unreclaiming : bool;  (** under the arm of an [if M.reclaiming] where it is false *)
}

type deref = { d_site : site; d_op : string }
type call = { c_site : site; c_callee : string }

type fn = {
  fn_name : string;
  fn_protected : bool;
  fn_quiescent : bool;
  fn_acquires : bool;
  fn_derefs : deref list;
  fn_calls : call list;
  fn_locks : int;
  fn_unlocks : int;
}

type status = Protected | Unprotected

type file_info = {
  fi_reclaiming : bool;
  fi_fns : fn list;
  fi_status : (string, status) Hashtbl.t;
  fi_touches : (string, bool) Hashtbl.t;
  fi_called : (string, unit) Hashtbl.t;
}

type t = (string * file_info) list

(* ------------------------------------------------------------------ *)
(* Extraction                                                          *)
(* ------------------------------------------------------------------ *)

let flatten lid = try Longident.flatten lid with _ -> []

let pos_of (loc : Location.t) =
  { line = loc.loc_start.pos_lnum; col = loc.loc_start.pos_cnum - loc.loc_start.pos_bol }

(* The backend operations that dereference a shared cell or lock word.
   Allocation ([make], [make_lock], [make_pool], ...) and the bracket
   operations themselves are deliberately absent. *)
let deref_ops =
  [
    "get";
    "set";
    "cas";
    "get_link";
    "set_link";
    "cas_link";
    "get_key";
    "set_key";
    "lock";
    "unlock";
    "try_lock";
    "lock_held";
    "retire";
    "recycle";
  ]

let has_attr name attrs = List.exists (fun a -> String.equal a.attr_name.txt name) attrs

let is_function_expr e =
  match e.pexp_desc with
  | Pexp_fun _ | Pexp_function _ | Pexp_newtype _ -> true
  | _ -> false

let rec strip_params e =
  match e.pexp_desc with
  | Pexp_fun (_, _, _, body) -> strip_params body
  | Pexp_newtype (_, body) -> strip_params body
  | _ -> e

let ends_with_reclaiming txt =
  match List.rev (flatten txt) with "reclaiming" :: _ -> true | _ -> false

(* [if M.reclaiming then ... else ...]: the else-arm never runs with
   reclamation on, so unbracketed dereferences there are safe.  Returns
   the polarity of the condition, [None] for ordinary conditions. *)
let reclaiming_cond c =
  match c.pexp_desc with
  | Pexp_ident { txt; _ } when ends_with_reclaiming txt -> Some true
  | Pexp_apply
      ( { pexp_desc = Pexp_ident { txt = Lident "not"; _ }; _ },
        [ (_, { pexp_desc = Pexp_ident { txt; _ }; _ }) ] )
    when ends_with_reclaiming txt ->
      Some false
  | _ -> None

(* Walk one function body, threading the syntactic op_enter/op_exit
   balance [bal] and the [unrecl] guard flag through the statement
   order, recording every dereference and every unqualified call with
   the context at its site.  Branches propagate the larger balance
   (imbalance itself is L5's paired-op check, not the summary's job).
   Closure and nested-function bodies are walked with the context of
   their definition point. *)
let walk_body record_deref record_call body =
  let rec walk bal unrecl e =
    match e.pexp_desc with
    | Pexp_apply (f, args) -> (
        let bal = List.fold_left (fun b (_, a) -> walk b unrecl a) bal args in
        match f.pexp_desc with
        | Pexp_ident { txt; loc } -> (
            match flatten txt with
            | [ _; "op_enter" ] -> bal + 1
            | [ _; "op_exit" ] -> bal - 1
            | [ _; op ] when List.mem op deref_ops ->
                record_deref loc bal unrecl op;
                bal
            | [ name ] ->
                record_call loc bal unrecl name;
                bal
            | _ -> bal)
        | _ -> walk bal unrecl f)
    | Pexp_sequence (a, b) -> walk (walk bal unrecl a) unrecl b
    | Pexp_let (_, vbs, body) ->
        let bal =
          List.fold_left
            (fun b vb ->
              if is_function_expr vb.pvb_expr then begin
                ignore (walk b unrecl (strip_params vb.pvb_expr));
                b
              end
              else walk b unrecl vb.pvb_expr)
            bal vbs
        in
        walk bal unrecl body
    | Pexp_ifthenelse (c, t, eo) ->
        let bal = walk bal unrecl c in
        let then_unrecl, else_unrecl =
          match reclaiming_cond c with
          | Some true -> (unrecl, true)
          | Some false -> (true, unrecl)
          | None -> (unrecl, unrecl)
        in
        let bt = walk bal then_unrecl t in
        let be = match eo with Some e2 -> walk bal else_unrecl e2 | None -> bal in
        max bt be
    | Pexp_match (scr, cases) | Pexp_try (scr, cases) ->
        let bal = walk bal unrecl scr in
        List.fold_left
          (fun acc c ->
            (match c.pc_guard with Some g -> ignore (walk bal unrecl g) | None -> ());
            max acc (walk bal unrecl c.pc_rhs))
          bal cases
    | Pexp_while (c, body) ->
        ignore (walk bal unrecl c);
        ignore (walk bal unrecl body);
        bal
    | Pexp_for (_, lo, hi, _, body) ->
        ignore (walk bal unrecl lo);
        ignore (walk bal unrecl hi);
        ignore (walk bal unrecl body);
        bal
    | Pexp_fun (_, _, _, b) ->
        ignore (walk bal unrecl b);
        bal
    | Pexp_function cases ->
        List.iter (fun c -> ignore (walk bal unrecl c.pc_rhs)) cases;
        bal
    | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) | Pexp_open (_, e)
    | Pexp_letmodule (_, _, e) | Pexp_newtype (_, e) | Pexp_letexception (_, e)
    | Pexp_construct (_, Some e) | Pexp_variant (_, Some e) | Pexp_field (e, _)
    | Pexp_assert e | Pexp_lazy e ->
        walk bal unrecl e
    | Pexp_setfield (a, _, b) -> walk (walk bal unrecl a) unrecl b
    | Pexp_tuple es | Pexp_array es -> List.fold_left (fun b e -> walk b unrecl e) bal es
    | Pexp_record (fields, base) ->
        let bal = List.fold_left (fun b (_, e) -> walk b unrecl e) bal fields in
        (match base with Some e -> walk bal unrecl e | None -> bal)
    | _ -> bal
  in
  ignore (walk 0 false body)

let count_lock_ops e =
  let locks = ref 0 and unlocks = ref 0 in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
              match flatten txt with
              | [ _; ("lock" | "try_lock") ] -> incr locks
              | [ _; "unlock" ] -> incr unlocks
              | _ -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it e;
  (!locks, !unlocks)

let extract_fn name vb =
  let derefs = ref [] and calls = ref [] in
  let site loc bal unrecl =
    { s_pos = pos_of loc; s_bracketed = bal > 0; s_unreclaiming = unrecl }
  in
  walk_body
    (fun loc bal unrecl op -> derefs := { d_site = site loc bal unrecl; d_op = op } :: !derefs)
    (fun loc bal unrecl callee ->
      calls := { c_site = site loc bal unrecl; c_callee = callee } :: !calls)
    (strip_params vb.pvb_expr);
  let locks, unlocks = count_lock_ops vb.pvb_expr in
  {
    fn_name = name;
    fn_protected = has_attr "protected" vb.pvb_attributes;
    fn_quiescent = has_attr "quiescent" vb.pvb_attributes;
    fn_acquires = has_attr "acquires" vb.pvb_attributes;
    fn_derefs = List.rev !derefs;
    fn_calls = List.rev !calls;
    fn_locks = locks;
    fn_unlocks = unlocks;
  }

(* Top-level bindings, looking through [module Make (M : S) = struct]
   functor wrappers and into nested modules, each paired with its
   [scope]: the names of its enclosing modules, innermost first.  A
   function is keyed by its module path within the file ([Make.A.peek];
   a top-level [peek] is [peek]), so two nested modules' same-named
   helpers keep two summaries.  Nested [let rec attempt ... in] helpers
   are folded into their host function's summary by the body walk
   above. *)
let key scope name = String.concat "." (List.rev (name :: scope))

let rec structure_fns scope acc str = List.fold_left (item_fns scope) acc str

and item_fns scope acc si =
  match si.pstr_desc with
  | Pstr_value (_, vbs) ->
      List.fold_left
        (fun acc vb ->
          match vb.pvb_pat.ppat_desc with
          | Ppat_var { txt = name; _ } when is_function_expr vb.pvb_expr ->
              (scope, extract_fn (key scope name) vb) :: acc
          | _ -> acc)
        acc vbs
  | Pstr_module mb -> module_fns scope acc mb
  | Pstr_recmodule mbs -> List.fold_left (module_fns scope) acc mbs
  | _ -> acc

and module_fns scope acc mb =
  let scope = match mb.pmb_name.txt with Some n -> n :: scope | None -> scope in
  let rec body acc me =
    match me.pmod_desc with
    | Pmod_structure str -> structure_fns scope acc str
    | Pmod_functor (_, me) | Pmod_constraint (me, _) -> body acc me
    | _ -> acc
  in
  body acc mb.pmb_expr

(* An unqualified call resolves to the innermost enclosing definition:
   [peek] called in module [A] of [Make] is [Make.A.peek] if the file
   defines it, else [Make.peek], else [peek] (which may name no in-file
   function at all). *)
let rec resolve fn_tbl scope name =
  match scope with
  | [] -> name
  | _ :: outer ->
      let k = key scope name in
      if Hashtbl.mem fn_tbl k then k else resolve fn_tbl outer name

(* A module is "reclaiming" iff it applies the reclamation API — the
   backends in lib/reclaim define these operations but never apply them
   qualified, so they are not swept in. *)
let uses_reclamation str =
  let found = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
              match flatten txt with
              | [ _; ("op_enter" | "retire" | "recycle") ] -> found := true
              | _ -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.structure it str;
  !found

(* ------------------------------------------------------------------ *)
(* Closure                                                             *)
(* ------------------------------------------------------------------ *)

let site_unprotected s = (not s.s_bracketed) && not s.s_unreclaiming

(* touches(f): f dereferences shared cells without arranging its own
   protection — an unguarded deref in its body, or an unguarded call to
   an in-file function that touches.  Bracketed/unreclaiming sites do
   not propagate: a function that opens its own bracket (the public
   insert/remove/contains wrappers) is safe to call from anywhere.
   [@quiescent] bodies are exempt wholesale (single-threaded phases). *)
let compute_touches fn_tbl fns =
  let touches = Hashtbl.create 16 in
  List.iter
    (fun f ->
      Hashtbl.replace touches f.fn_name
        ((not f.fn_quiescent) && List.exists (fun d -> site_unprotected d.d_site) f.fn_derefs))
    fns;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun f ->
        if (not f.fn_quiescent) && not (Hashtbl.find touches f.fn_name) then
          let hit =
            List.exists
              (fun c ->
                site_unprotected c.c_site
                && Hashtbl.mem fn_tbl c.c_callee
                && (try Hashtbl.find touches c.c_callee with Not_found -> false))
              f.fn_calls
          in
          if hit then begin
            Hashtbl.replace touches f.fn_name true;
            changed := true
          end)
      fns
  done;
  touches

(* Protection fixpoint.  Roots (no in-file call site) are Unprotected
   unless tagged; helpers start optimistically Protected and are demoted
   when some call site is neither bracketed, nor unreclaiming, nor in a
   protected/quiescent caller.  Monotone demotion, so it terminates. *)
let compute_status fn_tbl called fns =
  let status = Hashtbl.create 16 in
  List.iter
    (fun f ->
      let st =
        if f.fn_protected then Protected
        else if not (Hashtbl.mem called f.fn_name) then Unprotected
        else Protected
      in
      Hashtbl.replace status f.fn_name st)
    fns;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun caller ->
        let caller_protected =
          caller.fn_quiescent || Hashtbl.find status caller.fn_name = Protected
        in
        List.iter
          (fun c ->
            match Hashtbl.find_opt fn_tbl c.c_callee with
            | Some callee when not callee.fn_protected ->
                if
                  site_unprotected c.c_site && (not caller_protected)
                  && Hashtbl.find status callee.fn_name = Protected
                then begin
                  Hashtbl.replace status callee.fn_name Unprotected;
                  changed := true
                end
            | _ -> ())
          caller.fn_calls)
      fns
  done;
  status

let summarize_file str =
  let scoped = List.rev (structure_fns [] [] str) in
  let fn_tbl = Hashtbl.create 16 in
  List.iter (fun (_, f) -> Hashtbl.replace fn_tbl f.fn_name f) scoped;
  let fns =
    List.map
      (fun (scope, f) ->
        let resolved c = { c with c_callee = resolve fn_tbl scope c.c_callee } in
        { f with fn_calls = List.map resolved f.fn_calls })
      scoped
  in
  let called = Hashtbl.create 16 in
  List.iter
    (fun f -> List.iter (fun c -> if Hashtbl.mem fn_tbl c.c_callee then Hashtbl.replace called c.c_callee ()) f.fn_calls)
    fns;
  {
    fi_reclaiming = uses_reclamation str;
    fi_fns = fns;
    fi_status = compute_status fn_tbl called fns;
    fi_touches = compute_touches fn_tbl fns;
    fi_called = called;
  }

let of_sources sources = List.map (fun (name, str) -> (name, summarize_file str)) sources

let empty =
  {
    fi_reclaiming = false;
    fi_fns = [];
    fi_status = Hashtbl.create 1;
    fi_touches = Hashtbl.create 1;
    fi_called = Hashtbl.create 1;
  }

let find t name = match List.assoc_opt name t with Some fi -> fi | None -> empty

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)
(* ------------------------------------------------------------------ *)

let reclaiming fi = fi.fi_reclaiming
let fns fi = fi.fi_fns
(* By the name a call site writes: the first function of that bare name
   in any module of the file. *)
let find_fn fi name =
  let suffix = "." ^ name in
  List.find_opt
    (fun f -> String.equal f.fn_name name || String.ends_with ~suffix f.fn_name)
    fi.fi_fns

let status fi name =
  match Hashtbl.find_opt fi.fi_status name with Some s -> s | None -> Unprotected

let touches_shared fi name =
  match Hashtbl.find_opt fi.fi_touches name with Some b -> b | None -> false

let is_root fi name = not (Hashtbl.mem fi.fi_called name)
let is_quiescent fi name = match find_fn fi name with Some f -> f.fn_quiescent | None -> false
let is_acquires fi name = match find_fn fi name with Some f -> f.fn_acquires | None -> false

let is_releaser fi name =
  match find_fn fi name with Some f -> f.fn_unlocks > 0 && f.fn_locks = 0 | None -> false
