(* Ablation baseline: the VBL algorithm hand-specialised to Atomic.t, with
   no memory-backend functor in the way.  Comparing this against
   Vbl_lists.Registry.Vbl in the microbenchmarks and in the scaling matrix
   quantifies the overhead of the functor-over-MEM architecture
   (DESIGN.md §5) — the indirection is uniform across algorithms, but it
   should also be small in absolute terms, and this measures it.

   The hot paths use the same closed top-level recursions as the
   functorised list (see lib/lists/vbl_list.ml): without flambda a
   tuple-returning traversal or a capturing closure allocates per
   operation, which would contaminate the ablation with allocator noise.

   The module satisfies {!Vbl_lists.Set_intf.S} so the real-thread runner
   and the scaling matrix can drive it directly alongside the registry
   algorithms. *)

type node =
  | Node of {
      value : int;
      next : node Atomic.t;
      deleted : bool Atomic.t;
      lock : Vbl_sync.Try_lock.t;
    }
  | Tail

type t = { head : node }

let name = "vbl-direct"

let node_value = function Node n -> n.value | Tail -> max_int
let node_deleted = function Node n -> Atomic.get n.deleted | Tail -> false
let node_lock = function Node n -> n.lock | Tail -> assert false
let next_atomic = function Node n -> n.next | Tail -> assert false

let create () =
  {
    head =
      Node
        {
          value = min_int;
          next = Atomic.make Tail;
          deleted = Atomic.make false;
          lock = Vbl_sync.Try_lock.create ();
        };
  }

let lock_next_at node at =
  Vbl_sync.Try_lock.lock (node_lock node);
  if (not (node_deleted node)) && Atomic.get (next_atomic node) == at then true
  else begin
    Vbl_sync.Try_lock.unlock (node_lock node);
    false
  end

let lock_next_at_value node v =
  Vbl_sync.Try_lock.lock (node_lock node);
  if (not (node_deleted node)) && node_value (Atomic.get (next_atomic node)) = v then true
  else begin
    Vbl_sync.Try_lock.unlock (node_lock node);
    false
  end

let rec insert_attempt t v prev =
  let prev = if node_deleted prev then t.head else prev in
  insert_walk t v prev (Atomic.get (next_atomic prev))

and insert_walk t v prev curr =
  if node_value curr < v then insert_walk t v curr (Atomic.get (next_atomic curr))
  else if node_value curr = v then false
  else begin
    let x =
      Node
        {
          value = v;
          next = Atomic.make curr;
          deleted = Atomic.make false;
          lock = Vbl_sync.Try_lock.create ();
        }
    in
    if lock_next_at prev curr then begin
      Atomic.set (next_atomic prev) x;
      Vbl_sync.Try_lock.unlock (node_lock prev);
      true
    end
    else insert_attempt t v prev
  end

let insert t v = insert_attempt t v t.head

let rec remove_attempt t v prev =
  let prev = if node_deleted prev then t.head else prev in
  remove_walk t v prev (Atomic.get (next_atomic prev))

and remove_walk t v prev curr =
  if node_value curr < v then remove_walk t v curr (Atomic.get (next_atomic curr))
  else if node_value curr <> v then false
  else begin
    let next = Atomic.get (next_atomic curr) in
    if not (lock_next_at_value prev v) then remove_attempt t v prev
    else begin
      let curr = Atomic.get (next_atomic prev) in
      if not (lock_next_at curr next) then begin
        Vbl_sync.Try_lock.unlock (node_lock prev);
        remove_attempt t v prev
      end
      else begin
        (match curr with Node n -> Atomic.set n.deleted true | Tail -> assert false);
        Atomic.set (next_atomic prev) (Atomic.get (next_atomic curr));
        Vbl_sync.Try_lock.unlock (node_lock curr);
        Vbl_sync.Try_lock.unlock (node_lock prev);
        true
      end
    end
  end

let remove t v = remove_attempt t v t.head

let rec contains_walk v curr =
  if node_value curr < v then contains_walk v (Atomic.get (next_atomic curr))
  else node_value curr = v

let contains t v = contains_walk v t.head

(* Diagnostics and range operations, mirroring the functorised list so
   the module satisfies Set_intf.S. *)
let fold_range lo hi f init t =
  let rec loop acc node =
    match node with
    | Tail -> acc
    | Node n ->
        if n.value > hi then acc
        else
          let keep = lo <= n.value && n.value <> min_int && not (Atomic.get n.deleted) in
          let acc = if keep then f acc n.value else acc in
          loop acc (Atomic.get n.next)
  in
  loop init t.head

include Vbl_lists.Set_intf.Derive (struct
  type nonrec t = t

  let fold_range = fold_range
end)

let check_invariants t =
  let rec loop last node steps =
    if steps > 10_000_000 then Error "traversal did not terminate (cycle?)"
    else
      match node with
      | Tail -> Ok ()
      | Node n ->
          if n.value <= last && steps > 0 then
            Error (Printf.sprintf "values not strictly increasing at %d" n.value)
          else if steps > 0 && Atomic.get n.deleted then
            Error (Printf.sprintf "deleted node %d still reachable" n.value)
          else if Vbl_sync.Try_lock.is_locked n.lock then
            Error (Printf.sprintf "node %d left locked" n.value)
          else loop n.value (Atomic.get n.next) (steps + 1)
  in
  match t.head with
  | Node n when n.value = min_int -> loop min_int t.head 0
  | _ -> Error "head sentinel does not store min_int"
