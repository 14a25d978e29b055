(** The list-based set interface shared by every algorithm in this library.

    All implementations store integers strictly between [min_int] and
    [max_int]; the two extremes are reserved for the head and tail sentinels
    (the paper's -inf / +inf).  Operations follow the sequential
    specification of the paper's §2.1:

    - [insert t v] returns [true] iff [v] was absent, and makes it present;
    - [remove t v] returns [true] iff [v] was present, and makes it absent;
    - [contains t v] returns [true] iff [v] is present.

    [to_list], [size] and [check_invariants] are test/diagnostic helpers and
    are only meaningful at quiescence (no concurrent operations). *)

module type S = sig
  type t

  val name : string
  (** Short identifier used by the CLI, the registry and benchmark output,
      e.g. ["vbl"], ["lazy"], ["harris-michael"]. *)

  val create : unit -> t
  (** A fresh empty set: head and tail sentinels only. *)

  val insert : t -> int -> bool

  val remove : t -> int -> bool

  val contains : t -> int -> bool

  val to_list : t -> int list
  (** Present values in ascending order.  Quiescent use only: the traversal
      takes no locks and applies the algorithm's own notion of presence
      (e.g. it skips logically deleted nodes). *)

  val size : t -> int
  (** [List.length (to_list t)]. *)

  val check_invariants : t -> (unit, string) result
  (** Structural sanity at quiescence: sentinel values intact, strictly
      sorted reachable values, termination at the tail sentinel, and
      algorithm-specific conditions (e.g. VBL: no reachable node is marked
      deleted; lazy/Harris lists tolerate reachable marked nodes only where
      their semantics allow it).  [Error msg] pinpoints the violation. *)

  val fold : ('a -> int -> 'a) -> 'a -> t -> 'a
  (** In-order fold over the present values, strictly ascending: each
      value is yielded at most once.  The values are collected by one
      walk first, and [f] runs over the collected list after it, outside
      every lock and epoch bracket, so [f] may call back into any set.
      Concurrent-safe in the same best-effort sense as a single
      collecting traversal: the walk applies the algorithm's own notion
      of presence, so under concurrent updates it sees some
      interleaving of them (each collected value was present at the
      moment its node was read).  At quiescence it is exact. *)

  val iter : (int -> unit) -> t -> unit
  (** [fold]-derived ordered iteration over the present values: [f]
      runs after the collecting walk, as in [fold]. *)

  val range_query : t -> int -> int -> int list
  (** [range_query t lo hi] returns the present values in the inclusive
      window [lo, hi], ascending.  [lo > hi] yields [[]].  Atomicity is
      per-implementation: genuinely linearizable only where the
      collection runs in mutual exclusion (the coarse sets collect once
      under their global lock).  Everywhere else the operation derives
      from {!Derive} and is best-effort: the traversal repeats until two
      successive collections agree (bounded retries), which filters most
      torn windows but certifies nothing — a key removed and re-inserted
      between the two collections (ABA) restores agreement, so the
      result can be a window that no single instant ever contained, and
      an agreeing result is indistinguishable from one returned because
      the retry budget ran out.  Each implementation documents which
      contract it provides.  Each collection visits only the window's
      neighbourhood: O(depth + k) nodes on the BSTs, and the nodes up to
      the position of [hi] on the lists and skiplists. *)

  val approx_size : t -> int
  (** A cheap, possibly stale cardinality estimate.  Exact at
      quiescence.  Structures with auxiliary counters (e.g. the sharded
      frontend's striped counters) answer in O(1); plain structures fall
      back to the length of one whole-set collection. *)
end

(** All algorithms are functors over the memory backend, so the same source
    runs under benchmarks ({!Real_mem}) and under deterministic schedule
    control ({!Instr_mem}). *)
module type MAKER = functor (M : Vbl_memops.Mem_intf.S) -> S

(** [keep v acc] conses [v] onto the descending collection [acc] unless
    [v] is at or below [acc]'s head, the last key kept: the guard that
    keeps every collection strictly ascending (see {!Derive}).  Typed
    [int], so the comparison is a machine compare, not a polymorphic
    [caml_lessequal] call. *)
let[@inline] keep (v : int) (acc : int list) =
  match acc with last :: _ when v <= last -> acc | _ -> v :: acc

(** Derives the traversal operations from one presence-aware window
    collector, [Base.collect_range lo hi acc t], which conses the
    present values of the inclusive window [[lo, hi]] onto [acc] in
    descending order, through {!keep}, and never a sentinel, whatever
    the window.  [to_list], [size] and [approx_size] are one collection
    of the whole window [[min_int, max_int]]; [fold] and [iter] run
    over [to_list]; [range_query] collects [[lo, hi]].

    {b Cost.}  Each family visits only what can hold a key of the
    window: the BSTs descend only into subtrees whose key range meets
    [[lo, hi]], so a collection costs O(depth + k) for [k] keys in the
    window; the lists (and the skiplists, on their bottom level) walk
    from the head and stop at the first key above [hi], so a collection
    costs up to the position of [hi].  Each collector is a closed
    top-level recursion, so a collection allocates only its 3-word
    cons cells, and a [range_query] that accepts at once 9 words per
    key: two collections and one reversal.

    {b Strictly ascending.}  Every collector conses through {!keep},
    which skips any key at or below the last key kept.  On the BSTs a
    single walk can otherwise meet a key twice: a remove splices the
    key's node out and its right subtree moves up into its slot, an
    insert of the same key links a new node at the leftmost end of
    that subtree, and a walk that has just kept the key enters the
    subtree and meets the re-insertion.  On the lists and skiplists the
    guard never fires.

    {b Callbacks.}  No callback runs inside a walk: [fold] and [iter]
    apply theirs to the collected list, after the walk has returned.
    On a backend with [M.reclaiming] the lists bracket the walk alone
    with [M.op_enter]/[M.op_exit], as their point operations are
    bracketed, so a callback holds no epoch and may call back into any
    set, reclaiming or not.

    [range_query] uses the double-collect discipline: collect the window,
    collect it again, retry until two successive collections agree.
    What it filters is a torn single pass: with initial [{1, 3}] and one
    thread running [remove 1; insert 4] during [range_query 1 4], a
    collection that reads 1 before the remove and 4 after the insert
    returns [[1; 3; 4]], a window no instant contained (the two updates
    are ordered in real time); the next collection reads [[3; 4]], so
    the two disagree and the query collects again.
    This is a stabilisation heuristic, {e not} a snapshot certificate.
    Agreement does not imply the window was stable: with initial [{1}],
    a single updater running
    [remove 1; insert 2; remove 2; insert 1; remove 1; insert 2]
    concurrently with [range_query 1 2] can let both collections observe
    [[1; 2]] even though [{1, 2}] never exists at any instant — the
    removal and re-insertion between the two collections (ABA) restores
    agreement.  Certifying stability would need per-node modification
    stamps in the collected view (plus boundary-predecessor stamps for
    the lists and routing-node stamps for the trees); no family carries
    them, so {e every} structure deriving its range ops from this
    functor — locked, versioned and lock-free alike — provides the
    best-effort contract only.  The retry budget bounds the cost under
    adversarial churn; when it runs out the latest collection is
    returned as-is.  That surrender is deliberately not surfaced to the
    caller: since agreement certifies nothing either, a flag separating
    the two outcomes would carry no semantic weight.  Truly linearizable
    range queries live where a single collection runs in mutual
    exclusion — the coarse sets, which collect once under their global
    lock. *)
module Derive (Base : sig
  type t

  val collect_range : int -> int -> int list -> t -> int list
end) =
struct
  let to_list t = List.rev (Base.collect_range min_int max_int [] t)
  let fold f init t = List.fold_left f init (to_list t)
  let iter f t = List.iter f (to_list t)
  let size t = List.length (Base.collect_range min_int max_int [] t)
  let approx_size = size

  (* Successive collections are compared descending, as collected, and
     reversed once on acceptance.  Monomorphic: a polymorphic [=] on
     two lists is a [caml_equal] call. *)
  let rec same_keys (a : int list) (b : int list) =
    match (a, b) with
    | x :: a, y :: b -> x = y && same_keys a b
    | [], [] -> true
    | _ :: _, [] | [], _ :: _ -> false

  let stabilize_budget = 64

  let rec stabilize t lo hi prev budget =
    let cur = Base.collect_range lo hi [] t in
    if same_keys cur prev || budget <= 0 then List.rev cur
    else stabilize t lo hi cur (budget - 1)

  let range_query t lo hi =
    if lo > hi then [] else stabilize t lo hi (Base.collect_range lo hi [] t) stabilize_budget
end
