(** The sequential sorted linked list [LL] (paper Algorithm 1), alone
    and behind one global lock, from one source. *)

module Make (M : Vbl_memops.Mem_intf.S) : sig
  module Sequential : Set_intf.S
  (** [sequential], the reference implementation whose interleavings
      define the paper's schedules (§2.2).  It is {e not} safe for
      concurrent use — that is the point: running it concurrently under
      the schedule framework is how correct and incorrect schedules are
      told apart. *)

  module Coarse : Set_intf.S
  (** [coarse], the same walks under one global lock.  Not measured in
      the paper, but the zero-concurrency anchor of the family: every
      other set should beat it as soon as there is parallelism to
      exploit.  Its [range_query] is one collection under the lock, a
      linearizable snapshot. *)
end
