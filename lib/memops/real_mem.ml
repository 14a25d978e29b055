(** The production backend: cells are [Atomic.t], locks are CAS try-locks
    with exponential backoff, instrumentation hooks are no-ops.  See
    {!Mem_intf.S} for the contract.

    [named = false]: algorithms skip name construction entirely, and
    {!field}/{!field_lock} ignore the node name and suffix they are
    handed, so a node's creation allocates exactly its cells and nothing
    else; a node's successor ({!link}) and key ({!key}) are fields of the
    node itself, not cells.  The accessors are [@inline]-annotated single primitives.
    The registry sets are build-time instances with [M] bound to this module
    statically (lib/*/specialised), so even classic ocamlopt inlines the
    accessors into their traversals; code that applies a functor to this
    module calls them through the functor argument instead. *)

type 'a cell = 'a Atomic.t

let named = false

let fresh_line () = 0

let[@inline] make ?name:_ ~line:_ v = Atomic.make v

let[@inline] field _ _ ~line:_ v = Atomic.make v

(* A link is field 0 of its node's block, and the [Atomic] primitives
   address field 0 of whatever block they are handed (an [Atomic.t] is a
   one-field block), so the successor needs no cell of its own and the
   accessor [next_of] goes unused.  OCaml 5.4's atomic record fields
   would express this without the cast. *)
type 'a link = 'a

let[@inline] link _ _ ~line:_ v = v

let[@inline] as_atomic (node : 'n) : 'a Atomic.t = Obj.magic node

let[@inline] get_link n _ = Atomic.get (as_atomic n)

let[@inline] set_link n _ v = Atomic.set (as_atomic n) v

let[@inline] cas_link n _ expected desired =
  Atomic.compare_and_set (as_atomic n) expected desired

(* A key is the value itself, field 1 of its node's block: a hop reads it
   with one load.  Only a recycled node's key is ever rewritten, before
   the node is republished, so [set_key] stores field 1 in place; the
   accessor [key_of] goes unused. *)
type 'a key = 'a

let[@inline] key _ _ ~line:_ v = v

let[@inline] get_key k = k

let[@inline] set_key n _ v = Obj.set_field (Obj.repr n) 1 (Obj.repr v)

(* A padded cell spans a whole cache line, so striped counters written by
   different domains never invalidate each other's lines.  Cold path only
   (cells are padded at creation; accesses go through the same [Atomic]
   primitives). *)
let make_padded ?name:_ ~line:_ v = Vbl_sync.Padding.copy_as_padded (Atomic.make v)

let[@inline] get c = Atomic.get c

let[@inline] set c v = Atomic.set c v

let[@inline] cas c expected desired = Atomic.compare_and_set c expected desired

let[@inline] touch ~line:_ ~name:_ = ()

let[@inline] new_node ~name:_ ~line:_ = ()

(* No reclamation: the pool is just the dummy sentinel, so [recycle]
   always "misses" and algorithms always allocate fresh nodes — the
   pre-reclamation behaviour, at zero cost (every hook below is a
   constant or the identity). *)
let reclaiming = false

type 'a pool = 'a

let[@inline] make_pool ~dummy = dummy

let[@inline] op_enter _ = 0

let[@inline] op_exit _ _ = ()

let[@inline] retire _ _ = ()

let[@inline] recycle p = p

type lock = Vbl_sync.Try_lock.t

let make_lock ?name:_ ~line:_ () = Vbl_sync.Try_lock.create ()

let field_lock _ _ ~line:_ () = Vbl_sync.Try_lock.create ()

let[@inline] try_lock l = Vbl_sync.Try_lock.try_lock l

let[@inline] lock l = Vbl_sync.Try_lock.lock l

let[@inline] unlock l = Vbl_sync.Try_lock.unlock l

let[@inline] lock_held l = Vbl_sync.Try_lock.is_locked l
