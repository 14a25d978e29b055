(** Skip-list registry, mirroring {!Vbl_lists.Registry}: each set on the
    real backend beside its instrumented twin. *)

module I = Vbl_memops.Instr_mem

(* Real-backend entries are the build-time direct instances of
   specialised/dune; see Vbl_lists.Registry.  The two lock-based sets
   come from one instance of their shared source. *)
module Lock_i = Lock_skiplist.Make (I)
module Lazy_skip = Real_lock_skiplist.Lazy
module Vbl_skip = Real_lock_skiplist.Vbl
module Lockfree_skip = Real_lockfree_skiplist
module Lazy_skip_i = Lock_i.Lazy
module Vbl_skip_i = Lock_i.Vbl
module Lockfree_skip_i = Lockfree_skiplist.Make (I)

type impl = (module Vbl_lists.Set_intf.S)

let all : impl list = [ (module Lazy_skip); (module Vbl_skip); (module Lockfree_skip) ]

let instrumented : impl list =
  [ (module Lazy_skip_i); (module Vbl_skip_i); (module Lockfree_skip_i) ]
