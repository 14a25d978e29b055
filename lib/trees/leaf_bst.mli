(** The leaf-oriented (external) BSTs, from one source: routers route,
    leaves hold the elements, and two sentinel routers give every real
    leaf a parent and grandparent.  Routers are named ["R<key>"] and
    leaves ["L<value>"]. *)

module Make (M : Vbl_memops.Mem_intf.S) : sig
  module Sequential : Vbl_lists.Set_intf.S
  (** [sequential-bst]: single-threaded only, the unsynchronised
      baseline and the structure the other two refine. *)

  module Coarse : Vbl_lists.Set_intf.S
  (** [coarse-bst]: the sequential descents under one global lock, the
      zero-concurrency anchor of the tree family.  Its [range_query] is
      one collection under the lock, a linearizable snapshot. *)

  module Lazy : Vbl_lists.Set_intf.S
  (** [lazy-bst], a Heller-style baseline: wait-free [contains], and
      updates that lock and validate their window {e before} deciding
      the outcome, so an insert of a present value and a remove of an
      absent one both take the parent's lock, as the lazy list does.
      The over-synchronising contrast to {!Vbl_bst}'s
      decide-without-locking discipline. *)
end
