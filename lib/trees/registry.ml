(** Tree registry, mirroring {!Vbl_lists.Registry}: each set on the real
    backend beside its instrumented twin. *)

module I = Vbl_memops.Instr_mem

(* Real-backend entries are the build-time direct instances of
   specialised/dune; see Vbl_lists.Registry. *)
module Sequential_bst = Real_leaf_bst.Sequential
module Coarse_bst_impl = Real_leaf_bst.Coarse
module Lazy_bst_impl = Real_leaf_bst.Lazy
module Lockfree_bst_impl = Real_lockfree_bst
module Vbl_bst_impl = Real_vbl_bst
module Leaf_bst_i = Leaf_bst.Make (I)
module Seq_bst_i = Leaf_bst_i.Sequential
module Coarse_bst_i = Leaf_bst_i.Coarse
module Lazy_bst_i = Leaf_bst_i.Lazy
module Lockfree_bst_i = Lockfree_bst.Make (I)
module Vbl_bst_i = Vbl_bst.Make (I)

type impl = (module Vbl_lists.Set_intf.S)

(* The sequential tree is single-threaded only, like the sequential list. *)
let concurrent : impl list =
  [
    (module Coarse_bst_impl);
    (module Lazy_bst_impl);
    (module Lockfree_bst_impl);
    (module Vbl_bst_impl);
  ]

let all : impl list = (module Sequential_bst : Vbl_lists.Set_intf.S) :: concurrent

let instrumented : impl list =
  [
    (module Seq_bst_i);
    (module Coarse_bst_i);
    (module Lazy_bst_i);
    (module Lockfree_bst_i);
    (module Vbl_bst_i);
  ]
