(** Skip-list registry, mirroring {!Vbl_lists.Registry}: real-backend
    instantiations for benchmarks/examples, instrumented ones for the
    schedule machinery. *)

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

let find_exn nm : impl =
  match
    List.find_opt
      (fun i ->
        let module S = (val i : Vbl_lists.Set_intf.S) in
        S.name = nm)
      all
  with
  | Some i -> i
  | None -> invalid_arg ("Vbl_skiplists.Registry.find_exn: unknown algorithm " ^ nm)
