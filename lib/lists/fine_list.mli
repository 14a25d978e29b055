(** The two fine-grained lists of Herlihy & Shavit ch. 9, from one
    source: a node holds a successor link, a key and a lock, and there
    is no deletion flag, so a remove unlinks at once.  Every operation,
    [contains] included, decides under the locks of its window [prev],
    [curr]; the two differ only in how they reach and lock it.  The
    paper's concurrency hierarchy places both strictly below the lazy
    list. *)

module Make (M : Vbl_memops.Mem_intf.S) : sig
  module Hand_over_hand : Set_intf.S
  (** [hand-over-hand] (lock coupling, ch. 9.5): a walk locks every
      node it passes and holds at most two locks, acquiring ahead before
      releasing behind. *)

  module Optimistic : Set_intf.S
  (** [optimistic] (ch. 9.6): a lock-free walk, then the candidate pair
      is locked and validated by re-traversal from the head; a failed
      validation restarts from the head. *)
end
