(** Per-domain limbo bags + recycling free-lists over {!Epoch}.

    [retire] stamps a just-unlinked node with the current epoch;
    [recycle] hands back a node whose grace period (two epoch advances)
    has verifiably passed, or the pool's [dummy] sentinel when none is
    available.  Callers compare the result against their dummy with [==]
    — no option allocation on the hot insert path.  The pool owns one
    state per domain, addressed by {!Epoch.index}: a domain only touches
    its own, and a dropped pool takes every state with it.  A domain that
    reuses an exited domain's index inherits its limbo and free-list.
    Only the epoch counter is shared. *)

type 'a t

val create : dummy:'a -> 'a t
(** [dummy] is returned by {!recycle} on a miss and is never stored; use
    a value that can never be retired (list heads are ideal). *)

val retire : 'a t -> 'a -> unit
(** Quarantine [x] until two epoch advances have passed.  Must be called
    at most once per node, after it became unreachable from the shared
    structure, from within an {!Epoch.enter}/{!Epoch.leave} bracket.
    Costs one list cons; every 32nd call also attempts an epoch
    advance. *)

val recycle : 'a t -> 'a
(** Pop a node whose grace period has passed, or the pool's dummy.
    Allocation-free after the domain's first call on this pool.  A miss
    with nodes in the caller's limbo attempts an epoch advance and a
    wholesale bag rotation before giving up; a miss with an empty limbo
    returns the dummy at once, since no advance could free a node. *)

type stats = { limbo : int; free : int }

val stats : 'a t -> stats
(** Racy sums across domains; exact only at quiescence. *)
