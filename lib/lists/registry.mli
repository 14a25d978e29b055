(** First-class-module registry of the list family: each algorithm on the
    real (Atomic) backend — what the CLIs, examples and benchmarks run —
    beside its instrumented twin on {!Vbl_memops.Instr_mem}, which the
    schedule machinery ([Vbl_sched.Directed], [Vbl_sched.Explore])
    drives.  A set is registered here and nowhere else;
    [Vbl_harness.Sweep] resolves names across the families. *)

module Sequential : Set_intf.S
module Coarse : Set_intf.S
module Hand_over_hand : Set_intf.S
module Optimistic : Set_intf.S
module Lazy : Set_intf.S
module Harris_michael_amr : Set_intf.S
module Harris_michael_rtti : Set_intf.S
module Fomitchev_ruppert_list : Set_intf.S
module Vbl : Set_intf.S
module Vbl_postlock_ablation : Set_intf.S
module Vbl_versioned_variant : Set_intf.S

(** The same algorithm sources on the epoch-based reclamation backend
    ({!Vbl_memops.Reclaim_mem}): unlinked nodes are retired into limbo
    bags and recycled on the insert hot path once a grace period has
    passed.  Each takes its [-reclaim] name from the backend. *)

module Lazy_reclaim : Set_intf.S
module Harris_michael_reclaim : Set_intf.S
module Vbl_reclaim : Set_intf.S

(** The instrumented twins, one per real entry above. *)

module Seq_i : Set_intf.S
module Coarse_i : Set_intf.S
module Hoh_i : Set_intf.S
module Optimistic_i : Set_intf.S
module Lazy_i : Set_intf.S
module Hm_i : Set_intf.S
module Hm_tagged_i : Set_intf.S
module Fr_i : Set_intf.S
module Vbl_i : Set_intf.S
module Vbl_postlock_i : Set_intf.S
module Vbl_versioned_i : Set_intf.S

(** The reclaiming twins, on {!Vbl_memops.Instr_reclaim.Safe}: DPOR
    interleaves the epoch protocol against traversals. *)

module Lazy_reclaim_i : Set_intf.S
module Hm_reclaim_i : Set_intf.S
module Vbl_reclaim_i : Set_intf.S

type impl = (module Set_intf.S)

val concurrent : impl list
(** Every concurrency-safe implementation, in roughly increasing
    concurrency order.  Excludes the sequential list. *)

val all : impl list
(** [concurrent] plus the sequential list. *)

val instrumented : impl list
(** The twins of [all], in the same order. *)
