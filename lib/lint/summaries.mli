(** Interprocedural effect summaries for the lint pass.

    One pass over every parsed file, before the {!Rules} run, computes a
    per-function summary: which backend cells it dereferences, which
    in-file functions it calls, and how many raw lock/unlock operations
    its body contains — each dereference and call site annotated with
    its syntactic context (is the [op_enter]/[op_exit] balance positive
    there?  is it under the unreclaiming arm of an [if M.reclaiming]?).

    Two fixpoints close the in-file call graph:

    - {e protection}: a function is [Protected] when every in-file call
      site reaching it is bracketed, unreclaiming-guarded, or in a
      protected/quiescent caller (or it carries [\[@protected\]]).
      Roots — functions with no in-file call site — are [Unprotected]
      unless tagged.  This is what lets helpers like [locate] inherit
      the bracket from the public wrappers without per-helper tags.
    - {e touches-shared}: a function touches shared cells without
      arranging its own protection — an unguarded dereference in its
      body or an unguarded call to a touching function.  A wrapper that
      opens its own bracket does {e not} touch, so calling it from
      anywhere is fine.  [\[@quiescent\]] bodies (single-threaded
      observers such as [check_invariants]) are exempt wholesale.

    L5 consumes both; L3 consumes the lock counts ([is_releaser]) and
    the [\[@acquires\]] tags ([is_acquires]) to shrink the annotation
    burden — see rules.mli. *)

type pos = { line : int; col : int }

type site = {
  s_pos : pos;
  s_bracketed : bool;
  s_unreclaiming : bool;
}

type deref = { d_site : site; d_op : string }
type call = { c_site : site; c_callee : string }

type fn = {
  fn_name : string;
  fn_protected : bool;  (** carries [\[@protected\]] *)
  fn_quiescent : bool;  (** carries [\[@quiescent\]] *)
  fn_acquires : bool;  (** carries [\[@acquires\]] *)
  fn_derefs : deref list;
  fn_calls : call list;
  fn_locks : int;  (** syntactic [M.lock]/[M.try_lock] count, closures included *)
  fn_unlocks : int;  (** syntactic [M.unlock] count, closures included *)
}

type status = Protected | Unprotected

type file_info

type t = (string * file_info) list
(** Keyed by the display name the findings will carry. *)

val of_sources : (string * Parsetree.structure) list -> t

val find : t -> string -> file_info
(** The summary for one file; an empty summary for unknown names, so a
    single-file lint run degrades to purely intraprocedural checking. *)

val empty : file_info

val reclaiming : file_info -> bool
(** Does the file apply [op_enter]/[retire]/[recycle] (qualified)?  The
    backends in [lib/reclaim] define but never apply them, so they are
    not swept in. *)

val fns : file_info -> fn list
val find_fn : file_info -> string -> fn option
val status : file_info -> string -> status
val touches_shared : file_info -> string -> bool

val is_root : file_info -> string -> bool
(** No in-file call site — an API entry point, from L5's viewpoint. *)

val is_quiescent : file_info -> string -> bool
val is_acquires : file_info -> string -> bool

val is_releaser : file_info -> string -> bool
(** Releases locks it never acquires ([fn_unlocks > 0 && fn_locks = 0]) —
    the [unlock_distinct] shape.  A function calling a releaser gets the
    same L3 exemption as an explicit [\[@acquires\]] tag: its pairing is
    deliberately non-syntactic. *)
