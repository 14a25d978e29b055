(** Sharded-set registry, mirroring {!Vbl_lists.Registry}: VBL-backed
    sharded frontends at the shard counts the benchmarks sweep, each on
    the real backend beside its instrumented twin.  The full
    {!Sharded_set.S} (batch API, per-shard sizes) is reachable through
    {!batched}; the plain registry views erase to
    {!Vbl_lists.Set_intf.S} like every other implementation. *)

module I = Vbl_memops.Instr_mem

(* The real and reclaiming frontends route to the registry's direct
   instances through a constant maker, so every shard runs the same
   build-time specialised code as [vbl] / [vbl-reclaim]; the backend
   argument still builds the frontend's own stripes. *)
module Vbl_real (_ : Vbl_memops.Mem_intf.S) = Vbl_lists.Registry.Vbl
module Vbl_reclaim (_ : Vbl_memops.Mem_intf.S) = Vbl_lists.Registry.Vbl_reclaim

module Vbl_sharded_2 =
  Sharded_set.Make (struct let shard_bits = 1 end) (Vbl_real) (Vbl_memops.Real_mem)

module Vbl_sharded_4 =
  Sharded_set.Make (struct let shard_bits = 2 end) (Vbl_real) (Vbl_memops.Real_mem)

module Vbl_sharded_8 =
  Sharded_set.Make (struct let shard_bits = 3 end) (Vbl_real) (Vbl_memops.Real_mem)

module Vbl_sharded_16 =
  Sharded_set.Make (struct let shard_bits = 4 end) (Vbl_real) (Vbl_memops.Real_mem)

(* Reclaiming frontend at the headline shard count: each shard gets its
   own pool, all sharing the global epoch. *)
module Vbl_sharded_8_reclaim = struct
  include
    Sharded_set.Make (struct let shard_bits = 3 end) (Vbl_reclaim) (Vbl_memops.Reclaim_mem)

  let name = "vbl-sharded-8-reclaim"
end

module Vbl_sharded_2_i =
  Sharded_set.Make (struct let shard_bits = 1 end) (Vbl_lists.Vbl_list.Make) (I)

module Vbl_sharded_4_i =
  Sharded_set.Make (struct let shard_bits = 2 end) (Vbl_lists.Vbl_list.Make) (I)

module Vbl_sharded_8_i =
  Sharded_set.Make (struct let shard_bits = 3 end) (Vbl_lists.Vbl_list.Make) (I)

module Vbl_sharded_16_i =
  Sharded_set.Make (struct let shard_bits = 4 end) (Vbl_lists.Vbl_list.Make) (I)

type impl = (module Vbl_lists.Set_intf.S)

(* The full signature is listed once; the plain registry view erases it. *)
let batched : (module Sharded_set.S) list =
  [
    (module Vbl_sharded_2);
    (module Vbl_sharded_4);
    (module Vbl_sharded_8);
    (module Vbl_sharded_16);
    (module Vbl_sharded_8_reclaim);
  ]

let all : impl list =
  List.map (fun (module S : Sharded_set.S) -> (module S : Vbl_lists.Set_intf.S)) batched

let instrumented : impl list =
  [
    (module Vbl_sharded_2_i);
    (module Vbl_sharded_4_i);
    (module Vbl_sharded_8_i);
    (module Vbl_sharded_16_i);
  ]
