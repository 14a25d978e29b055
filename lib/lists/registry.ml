(** First-class-module registry of every algorithm instantiated on the real
    (Atomic) backend.  This is what the CLI, the examples and the benchmark
    harness select implementations from. *)

(* Every entry is a direct instance generated at build time from its
   algorithm's one source (specialised/dune): the functor body with [M]
   bound to the backend, so hot paths call [Real_mem]/[Reclaim_mem]
   statically rather than through a functor argument.  The functors stay
   the only source, and the instrumented backends still apply them. *)

module Sequential = Real_seq_list
module Coarse = Real_coarse_list
module Hand_over_hand = Real_hoh_list
module Optimistic = Real_optimistic_list
module Lazy = Real_lazy_list
module Harris_michael_amr = Real_harris_michael
module Harris_michael_rtti = Real_harris_michael_tagged
module Fomitchev_ruppert_list = Real_fomitchev_ruppert
module Vbl = Real_vbl_list
module Vbl_postlock_ablation = Real_vbl_postlock
module Vbl_versioned_variant = Real_vbl_versioned

(* Reclaiming variants: the same algorithm sources on the epoch-based
   reclamation backend.  Node unlinks feed per-domain limbo bags and the
   insert hot path recycles aged-out nodes instead of allocating. *)
module Lazy_reclaim = struct
  include Reclaim_lazy_list

  let name = "lazy-reclaim"
end

module Harris_michael_reclaim = struct
  include Reclaim_harris_michael

  let name = "harris-michael-reclaim"
end

module Vbl_reclaim = struct
  include Reclaim_vbl_list

  let name = "vbl-reclaim"
end

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

(* The three algorithms the paper's Figures 1 and 4 measure. *)
let measured : impl list =
  [ (module Lazy); (module Harris_michael_rtti); (module Vbl) ]

let name (impl : impl) =
  let module I = (val impl) in
  I.name

let find nm : impl option = List.find_opt (fun i -> name i = nm) all

let find_exn nm =
  match find nm with
  | Some i -> i
  | None ->
      invalid_arg
        (Printf.sprintf "unknown algorithm %S (known: %s)" nm
           (String.concat ", " (List.map name all)))
