(** Seeded-bug variants of the lists and BSTs — the ground truth the
    analysis layer is validated against.  Each algorithm mutant is a clean
    source plus one diff in [lib/analysis/seeds/], applied at build time;
    the implementation's header says what each seed breaks and what
    catches it, FRAMEWORK.md ("How to add a mutation") how to add one. *)

module Vbl_no_deleted_check : Vbl_lists.Set_intf.S
module Vbl_unlocked_unlink : Vbl_lists.Set_intf.S
module Vbl_no_logical_delete : Vbl_lists.Set_intf.S
module Vbl_leaky_lock : Vbl_lists.Set_intf.S
module Lazy_no_validation : Vbl_lists.Set_intf.S
module Bst_no_version_recheck : Vbl_lists.Set_intf.S
module Bst_unlocked_rotation_window : Vbl_lists.Set_intf.S
module Lockfree_bst_shared_clean : Vbl_lists.Set_intf.S

module Vbl_reclaim_eager : Vbl_lists.Set_intf.S
(** The clean VBL list over {!Vbl_memops.Instr_reclaim.Eager}: a backend
    mutant whose reclamation skips the grace period, so recycled nodes
    are reinitialized under parked traversals (use-after-reclaim). *)

val all : (module Vbl_lists.Set_intf.S) list
(** Every registered mutant instance (over the instrumented backend). *)

val find : string -> (module Vbl_lists.Set_intf.S)
(** Look a mutant up by its [name]; raises [Invalid_argument] on an
    unknown name. *)
