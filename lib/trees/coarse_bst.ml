(** Coarse-grained locking BST: the sequential external tree behind one
    global lock — the zero-concurrency anchor for the tree family, like
    {!Vbl_lists.Coarse_list} for lists. *)

module Make (M : Vbl_memops.Mem_intf.S) : Vbl_lists.Set_intf.S = struct
  module Seq = Seq_bst.Make (M)

  let name = "coarse-bst"

  type t = { lock : M.lock; inner : Seq.t }

  let create () =
    let line = M.fresh_line () in
    { lock = M.make_lock ~name:"bst.lock" ~line (); inner = Seq.create () }

  (* [op inner x] under the global lock, released on the return and the
     exception path alike.  [op] is a top-level function, so an update
     or [contains] builds no closure. *)
  let critical t op x =
    M.lock t.lock;
    match op t.inner x with
    | r ->
        M.unlock t.lock;
        r
    | exception e ->
        M.unlock t.lock;
        raise e

  let insert t v = critical t Seq.insert v
  let remove t v = critical t Seq.remove v
  let contains t v = critical t Seq.contains v
  let to_list t = Seq.to_list t.inner
  let size t = Seq.size t.inner
  let check_invariants t = Seq.check_invariants t.inner
  (* Reads serialize with writers too: Seq_bst is not built for
     concurrent traversal (a walk racing a remove's splice can miss live
     keys), and coarse is the zero-concurrency anchor, so fold/iter and
     the derived approx_size take the global lock like everything else. *)
  let fold f init t = critical t (fun inner init -> Seq.fold f init inner) init
  let iter f t = critical t (fun inner f -> Seq.iter f inner) f

  (* A single collection under the global lock is a true snapshot, so
     this is the one tree family member whose range_query is genuinely
     linearizable (Set_intf.Derive's double-collect certifies nothing). *)
  let range_query t lo hi = critical t (fun inner lo -> Seq.range_query inner lo hi) lo
  let approx_size t = critical t (fun inner () -> Seq.approx_size inner) ()
end
