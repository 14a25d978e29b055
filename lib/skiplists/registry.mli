(** Skip-list registry: each set on the real backend, for benchmarks,
    beside its instrumented twin on {!Vbl_memops.Instr_mem}, for the
    schedule machinery.  Like {!Vbl_lists.Registry}, it is the one place
    the family's sets are declared. *)

module Lazy_skip : Vbl_lists.Set_intf.S
module Vbl_skip : Vbl_lists.Set_intf.S
module Lockfree_skip : Vbl_lists.Set_intf.S
module Lazy_skip_i : Vbl_lists.Set_intf.S
module Vbl_skip_i : Vbl_lists.Set_intf.S
module Lockfree_skip_i : Vbl_lists.Set_intf.S

type impl = (module Vbl_lists.Set_intf.S)

val all : impl list

val instrumented : impl list
(** The twins of [all], in the same order. *)
