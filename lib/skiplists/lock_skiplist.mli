(** The two lock-based skip lists, from one source: per-node lock,
    [marked] and [fully_linked] flags, wait-free contains, multi-level
    lock+validate updates.  They differ in two places only: insert's
    window validation and remove's choice of victim. *)

module Make (M : Vbl_memops.Mem_intf.S) : sig
  module Lazy : Vbl_lists.Set_intf.S
  (** [lazy-skiplist] (Herlihy & Shavit ch. 14.3): insert wants an unmarked
      predecessor and successor, adjacent; remove takes only the node found
      at its top level, fully linked and unmarked. *)

  module Vbl : Vbl_lists.Set_intf.S
  (** [vbl-skiplist]: insert wants an unmarked, adjacent predecessor only;
      remove takes the bottom-level node holding the value, once fully
      linked.  The implementation says what provably cannot be relaxed. *)
end
