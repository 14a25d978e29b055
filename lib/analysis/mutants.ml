(** Seeded-bug variants of the lists and BSTs — the ground truth the
    analysis layer is validated against.  Each algorithm mutant is its
    clean source with one discipline edit, kept as [seeds/<name>.diff]
    and patched at build time into [seeded_<name>.ml] (rules in this
    directory's dune file); this module only instantiates and names them.
    What each seed breaks, and what catches it:

    - {!Vbl_no_deleted_check}: the value-aware try-lock skips the
      logical-delete test (§3.1's "not deleted" premise), so an update
      links into an unlinked node — a lost update the σ̄-extended
      linearizability check exposes.
    - {!Vbl_unlocked_unlink}: remove unlinks without [prev]'s lock; the
      race detector flags the store racing a locked insert's.
    - {!Vbl_no_logical_delete}: remove unlinks without marking, so an
      insert validated against the victim succeeds into dead memory.
    - {!Vbl_leaky_lock}: insert keeps [prev]'s lock — the lock linter's
      lock-held-at-return, or a deadlock.
    - {!Lazy_no_validation}: the lazy list skips its post-lock
      validation — unlinked predecessors and double removes.
    - {!Bst_no_version_recheck}: insert links without re-checking the
      window version, so two inserts racing for one slot lose one.
    - {!Bst_unlocked_rotation_window}: the splice reads the victim's
      children before the tree locks and drops a leaf linked meanwhile.
    - {!Lockfree_bst_shared_clean}: every unflag restores one shared
      [Clean] stamp, so a flag CAS misses an intervening update (ABA)
      and an insert reports a leaf it never linked. *)

module Instr = Vbl_memops.Instr_mem

module Vbl_no_deleted_check = struct
  module L = Seeded_vbl_no_deleted_check.Make (Instr)
  include L.Vbl
  let name = "vbl-no-deleted-check"
end

module Vbl_unlocked_unlink = struct
  module L = Seeded_vbl_unlocked_unlink.Make (Instr)
  include L.Vbl
  let name = "vbl-unlocked-unlink"
end

module Vbl_no_logical_delete = struct
  module L = Seeded_vbl_no_logical_delete.Make (Instr)
  include L.Vbl
  let name = "vbl-no-logical-delete"
end

module Vbl_leaky_lock = struct
  module L = Seeded_vbl_leaky_lock.Make (Instr)
  include L.Vbl
  let name = "vbl-leaky-lock"
end

module Lazy_no_validation = struct
  module L = Seeded_lazy_no_validation.Make (Instr)
  include L.Lazy
  let name = "lazy-no-validation"
end

module Bst_no_version_recheck = struct
  include Seeded_bst_no_version_recheck.Make (Instr)
  let name = "bst-no-version-recheck"
end

module Bst_unlocked_rotation_window = struct
  include Seeded_bst_unlocked_rotation_window.Make (Instr)
  let name = "bst-unlocked-rotation-window"
end

module Lockfree_bst_shared_clean = struct
  include Seeded_lockfree_bst_shared_clean.Make (Instr)
  let name = "lockfree-bst-shared-clean"
end

(* A backend mutant: the clean VBL list over reclaiming memory without a
   grace period, so a node is recycled under a parked traversal. *)
module Vbl_reclaim_eager = struct
  include Vbl_list.Make (Vbl_memops.Instr_reclaim.Eager)
  let name = "vbl-reclaim-eager"
end

let all : (module Set_intf.S) list =
  [
    (module Vbl_no_deleted_check);
    (module Vbl_unlocked_unlink);
    (module Vbl_no_logical_delete);
    (module Vbl_leaky_lock);
    (module Lazy_no_validation);
    (module Bst_no_version_recheck);
    (module Bst_unlocked_rotation_window);
    (module Lockfree_bst_shared_clean);
    (module Vbl_reclaim_eager);
  ]

let find nm : (module Set_intf.S) =
  match List.find_opt (fun (module S : Set_intf.S) -> S.name = nm) all with
  | Some i -> i
  | None -> invalid_arg ("Mutants.find: unknown mutant " ^ nm)
