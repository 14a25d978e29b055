(** First-class-module registry of the list family: every algorithm on
    the real (Atomic) backend, for the CLIs, examples and benchmarks, and
    its instrumented twin, for the schedule machinery. *)

(* Every real entry is a direct instance generated at build time from its
   algorithm's one source (specialised/dune): the functor body with [M]
   bound to the backend, so hot paths call [Real_mem]/[Reclaim_mem]
   statically rather than through a functor argument.  The functors stay
   the only source, and the instrumented twins below apply them.  The
   three lock-based lists come from one instance of their shared source
   per backend. *)

module Sequential = Real_seq_list
module Coarse = Real_coarse_list
module Hand_over_hand = Real_hoh_list
module Optimistic = Real_optimistic_list
module Lazy = Real_lock_list.Lazy
module Harris_michael_amr = Real_harris_michael
module Harris_michael_rtti = Real_harris_michael_tagged
module Fomitchev_ruppert_list = Real_fomitchev_ruppert
module Vbl = Real_lock_list.Vbl
module Vbl_postlock_ablation = Real_lock_list.Postlock
module Vbl_versioned_variant = Real_vbl_versioned

(* Reclaiming variants: the same algorithm sources on the epoch-based
   reclamation backend.  Node unlinks feed per-domain limbo bags and the
   insert hot path recycles aged-out nodes instead of allocating.  Each
   takes its [-reclaim] name from [M.reclaiming]. *)
module Lazy_reclaim = Reclaim_lock_list.Lazy
module Harris_michael_reclaim = Reclaim_harris_michael
module Vbl_reclaim = Reclaim_lock_list.Vbl

module Instr = Vbl_memops.Instr_mem
module Lock_i = Lock_list.Make (Instr)

module Seq_i = Seq_list.Make (Instr)
module Coarse_i = Coarse_list.Make (Instr)
module Hoh_i = Hoh_list.Make (Instr)
module Optimistic_i = Optimistic_list.Make (Instr)
module Lazy_i = Lock_i.Lazy
module Hm_i = Harris_michael.Make (Instr)
module Hm_tagged_i = Harris_michael_tagged.Make (Instr)
module Fr_i = Fomitchev_ruppert.Make (Instr)
module Vbl_i = Lock_i.Vbl
module Vbl_postlock_i = Lock_i.Postlock
module Vbl_versioned_i = Vbl_versioned.Make (Instr)

(* The reclaiming twins run on the grace-respecting instrumented backend:
   the epoch counter is an instrumented cell, so DPOR interleaves epoch
   announcements, retires and recycles against traversals.  The seeded
   use-after-reclaim [Eager] backend is reserved for the analysis
   mutants. *)
module Instr_safe = Vbl_memops.Instr_reclaim.Safe
module Lock_reclaim_i = Lock_list.Make (Instr_safe)
module Lazy_reclaim_i = Lock_reclaim_i.Lazy
module Hm_reclaim_i = Harris_michael.Make (Instr_safe)
module Vbl_reclaim_i = Lock_reclaim_i.Vbl

type impl = (module Set_intf.S)

(* Concurrency-safe implementations, in roughly increasing concurrency
   order.  The sequential list is deliberately excluded: it is only correct
   single-threaded (it exists to define schedules, §2.2). *)
let concurrent : impl list =
  [
    (module Coarse);
    (module Hand_over_hand);
    (module Optimistic);
    (module Lazy);
    (module Harris_michael_amr);
    (module Harris_michael_rtti);
    (module Fomitchev_ruppert_list);
    (module Vbl_postlock_ablation);
    (module Vbl_versioned_variant);
    (module Vbl);
    (module Lazy_reclaim);
    (module Harris_michael_reclaim);
    (module Vbl_reclaim);
  ]

let all : impl list = (module Sequential : Set_intf.S) :: concurrent

(* The twins of [all], in the same order. *)
let instrumented : impl list =
  [
    (module Seq_i);
    (module Coarse_i);
    (module Hoh_i);
    (module Optimistic_i);
    (module Lazy_i);
    (module Hm_i);
    (module Hm_tagged_i);
    (module Fr_i);
    (module Vbl_postlock_i);
    (module Vbl_versioned_i);
    (module Vbl_i);
    (module Lazy_reclaim_i);
    (module Hm_reclaim_i);
    (module Vbl_reclaim_i);
  ]
