(** The three lock-based lists with a deletion flag, from one source: a
    node holds a successor link, a key, a [deleted] flag and a lock;
    traversals are wait-free; a remove marks its victim, then unlinks it
    under both locks.  They differ only in their updates and their
    [contains]. *)

module Make (M : Vbl_memops.Mem_intf.S) : sig
  module Lazy : Set_intf.S
  (** [lazy], the Lazy Linked List of Heller et al. (OPODIS 2006) and the
      paper's main lock-based baseline: an update locks [prev] and
      [curr], validates both (unmarked, adjacent) and only then checks
      the value, so a failed insert or remove still takes both locks (the
      schedules of the paper's Figure 2); a failed validation restarts
      from the head.  [contains] skips a marked node. *)

  module Vbl : Set_intf.S
  (** [vbl], the Value-Based List (the paper's §3, Algorithm 2): a
      wait-free traversal resuming from [prev], value checks before any
      locking, the §3.1 value-aware try-locks ([lockNextAt] /
      [lockNextAtValue]), and logical deletion with immediate unlink.
      Concurrency-optimal (Theorems 1-3); [contains] reads values only. *)

  module Postlock : Set_intf.S
  (** [vbl-postlock], the ablation that prices §3.1: VBL's node,
      traversal and [contains], with two differences.  An update locks
      [prev] with [lockNextAt] {e before} it checks the value, as the
      lazy list does, so a failed insert or remove takes a lock it never
      uses.  And its remove validates by identity only: [prev] through
      [lockNextAt], then [curr]'s lock without validation, where VBL's
      uses [lockNextAtValue], re-reads the successor and validates it
      with [lockNextAt]. *)
end
