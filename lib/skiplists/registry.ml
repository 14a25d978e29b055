(** Skip-list registry, mirroring {!Vbl_lists.Registry}: each set on the
    real backend beside its instrumented twin. *)

module I = Vbl_memops.Instr_mem

(* Real-backend entries are the build-time direct instances of
   specialised/dune; see Vbl_lists.Registry. *)
module Lazy_skip = Real_lazy_skiplist
module Vbl_skip = Real_vbl_skiplist
module Lockfree_skip = Real_lockfree_skiplist
module Lazy_skip_i = Lazy_skiplist.Make (I)
module Vbl_skip_i = Vbl_skiplist.Make (I)
module Lockfree_skip_i = Lockfree_skiplist.Make (I)

type impl = (module Vbl_lists.Set_intf.S)

let all : impl list = [ (module Lazy_skip); (module Vbl_skip); (module Lockfree_skip) ]

let instrumented : impl list =
  [ (module Lazy_skip_i); (module Vbl_skip_i); (module Lockfree_skip_i) ]
