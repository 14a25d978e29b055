(** Tree registry, mirroring {!Vbl_lists.Registry}: each set on the real
    backend beside its instrumented twin. *)

module I = Vbl_memops.Instr_mem

(* Real-backend entries are the build-time direct instances of
   specialised/dune; see Vbl_lists.Registry. *)
module Sequential_bst = Real_seq_bst
module Coarse_bst_impl = Real_coarse_bst
module Lazy_bst_impl = Real_lazy_bst
module Lockfree_bst_impl = Real_lockfree_bst
module Vbl_bst_impl = Real_vbl_bst
module Seq_bst_i = Seq_bst.Make (I)
module Coarse_bst_i = Coarse_bst.Make (I)
module Lazy_bst_i = Lazy_bst.Make (I)
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
