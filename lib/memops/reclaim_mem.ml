(** The reclaiming production backend: {!Real_mem}'s cells and locks with
    the epoch-based reclamation hooks live ([reclaiming = true]).

    Operations bracket themselves with the process-wide epoch protocol
    ([Vbl_reclaim.Epoch]); unlinked nodes sit in per-domain limbo bags
    until two epoch advances prove no traversal can still reach them, then
    recycle into later inserts through a per-domain free-list
    ([Vbl_reclaim.Pool]).  In OCaml nothing is ever freed behind the GC's
    back — what the grace period buys is the safety of {e reinitializing}
    a node (new key, new successor) without a concurrent traversal
    observing the change, plus the allocation win: a free-list hit costs
    an insert 0 fresh words instead of a 9-word node. *)

include Real_mem

let reclaiming = true

type 'a pool = 'a Vbl_reclaim.Pool.t

let make_pool ~dummy = Vbl_reclaim.Pool.create ~dummy

let[@inline] op_enter _ = Vbl_reclaim.Epoch.enter ()

let[@inline] op_exit _ _ = Vbl_reclaim.Epoch.leave ()

let retire p x = Vbl_reclaim.Pool.retire p x

let[@inline] recycle p = Vbl_reclaim.Pool.recycle p

let stats = Vbl_reclaim.Pool.stats
