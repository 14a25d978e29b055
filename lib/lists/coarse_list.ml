(** Coarse-grained locking: the sequential list behind one global lock.

    Not measured in the paper, but it is the zero-concurrency anchor of the
    synchrobench family and gives the benchmark harness a lower bound:
    every algorithm in this library should beat it as soon as there is any
    parallelism to exploit. *)

module Make (M : Vbl_memops.Mem_intf.S) : Set_intf.S = struct
  module Seq = Seq_list.Make (M)

  let name = "coarse"

  type t = { lock : M.lock; inner : Seq.t }

  let create () =
    let line = M.fresh_line () in
    { lock = M.make_lock ~name:"global.lock" ~line (); inner = Seq.create () }

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
  (* Reads serialize with writers too: Seq_list is not built for
     concurrent traversal (a walk racing a remove's splice can observe
     mid-update states), and coarse is the zero-concurrency anchor, so
     the collections of fold/iter and the derived approx_size take the
     global lock like everything else.  [f] runs on the collected list
     after the lock is released, so it may call back into the set. *)
  let collect inner () = Seq.to_list inner
  let fold f init t = List.fold_left f init (critical t collect ())
  let iter f t = List.iter f (critical t collect ())

  (* A single collection under the global lock is a true snapshot, so
     this is the one list family member whose range_query is genuinely
     linearizable (Set_intf.Derive's double-collect certifies nothing). *)
  let range_query t lo hi = critical t (fun inner lo -> Seq.range_query inner lo hi) lo
  let approx_size t = critical t (fun inner () -> Seq.approx_size inner) ()
end
