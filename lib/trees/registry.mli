(** Tree registry: each set on the real backend, for benchmarks, beside
    its instrumented twin on {!Vbl_memops.Instr_mem}, for the schedule
    machinery.  Like {!Vbl_lists.Registry}, it is the one place the
    family's sets are declared. *)

module Sequential_bst : Vbl_lists.Set_intf.S
module Coarse_bst_impl : Vbl_lists.Set_intf.S
module Lazy_bst_impl : Vbl_lists.Set_intf.S
module Lockfree_bst_impl : Vbl_lists.Set_intf.S
module Vbl_bst_impl : Vbl_lists.Set_intf.S
module Seq_bst_i : Vbl_lists.Set_intf.S
module Coarse_bst_i : Vbl_lists.Set_intf.S
module Lazy_bst_i : Vbl_lists.Set_intf.S
module Lockfree_bst_i : Vbl_lists.Set_intf.S
module Vbl_bst_i : Vbl_lists.Set_intf.S

type impl = (module Vbl_lists.Set_intf.S)

val concurrent : impl list
(** Every set but the single-threaded sequential tree. *)

val all : impl list
(** [concurrent] plus the sequential tree. *)

val instrumented : impl list
(** The twins of [all], in the same order. *)
