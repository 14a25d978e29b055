(** Sharded-set registry: VBL-backed frontends at shard counts 2/4/8/16,
    each on the real backend, for benchmarks, beside its instrumented
    twin, for the schedule machinery.  Like {!Vbl_lists.Registry}, it is
    the one place the family's sets are declared.  The 8-shard
    reclaiming frontend has no twin. *)

module Vbl_sharded_2 : Sharded_set.S
module Vbl_sharded_4 : Sharded_set.S
module Vbl_sharded_8 : Sharded_set.S
module Vbl_sharded_16 : Sharded_set.S

(** The 8-shard frontend on the reclaiming backend: per-shard pools over
    one global epoch. *)
module Vbl_sharded_8_reclaim : Sharded_set.S
module Vbl_sharded_2_i : Sharded_set.S
module Vbl_sharded_4_i : Sharded_set.S
module Vbl_sharded_8_i : Sharded_set.S
module Vbl_sharded_16_i : Sharded_set.S

type impl = (module Vbl_lists.Set_intf.S)

val all : impl list
(** Real-backend instances, ascending shard count. *)

val instrumented : impl list
(** The twins, ascending shard count. *)

val batched : (module Sharded_set.S) list
(** The same real-backend instances at their full signature (batch API,
    per-shard sizes). *)
