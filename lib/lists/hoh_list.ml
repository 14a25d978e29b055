(** Fine-grained (hand-over-hand, "lock coupling") list.

    Every node carries a lock; a traversal holds at most two locks at a
    time, acquiring the successor's before releasing the predecessor's, so
    traversals pipeline behind each other but never interleave unsafely.
    This is the classic fine-grained baseline from Herlihy & Shavit ch. 9;
    the paper's concurrency hierarchy places it strictly below the
    optimistic and lazy lists because every operation — including read-only
    ones — locks every node it passes. *)

module Make (M : Vbl_memops.Mem_intf.S) : Set_intf.S = struct
  let name = "hand-over-hand"

  type node =
    | Node of { value : int M.cell; next : node M.cell; lock : M.lock }
    | Tail of { value : int M.cell; lock : M.lock }

  type t = { head : node }

  let node_value = function Node n -> M.get n.value | Tail n -> M.get n.value
  let node_lock = function Node n -> n.lock | Tail n -> n.lock
  let next_cell_exn = function Node n -> n.next | Tail _ -> assert false

  (* Names are only built for instrumented backends ([M.named]). *)
  let make_node value next =
    let line = M.fresh_line () in
    if M.named then begin
      let nm = Naming.node value in
      M.new_node ~name:nm ~line;
      Node
        {
          value = M.make ~name:(Naming.value_cell nm) ~line value;
          next = M.make ~name:(Naming.next_cell nm) ~line next;
          lock = M.make_lock ~name:(Naming.lock_cell nm) ~line ();
        }
    end
    else
      Node
        {
          value = M.make ~line value;
          next = M.make ~line next;
          lock = M.make_lock ~line ();
        }

  let create () =
    let tl = M.fresh_line () in
    let tail =
      if M.named then
        Tail
          {
            value = M.make ~name:(Naming.value_cell Naming.tail) ~line:tl max_int;
            lock = M.make_lock ~name:(Naming.lock_cell Naming.tail) ~line:tl ();
          }
      else Tail { value = M.make ~line:tl max_int; lock = M.make_lock ~line:tl () }
    in
    let hl = M.fresh_line () in
    let head =
      if M.named then
        Node
          {
            value = M.make ~name:(Naming.value_cell Naming.head) ~line:hl min_int;
            next = M.make ~name:(Naming.next_cell Naming.head) ~line:hl tail;
            lock = M.make_lock ~name:(Naming.lock_cell Naming.head) ~line:hl ();
          }
      else
        Node
          {
            value = M.make ~line:hl min_int;
            next = M.make ~line:hl tail;
            lock = M.make_lock ~line:hl ();
          }
    in
    { head }

  let check_key v =
    if v = min_int || v = max_int then
      invalid_arg "list-based set: key must be strictly between min_int and max_int"

  (* Crab from the head until [curr] is the first node with value >= v.
     Returns with the locks on both [prev] and [curr] held — the caller
     releases them, so the static pairing rule (lint L3) is exempted. *)
  let[@acquires] locate_locked t v =
    let rec crab prev curr =
      let tval = node_value curr in
      if tval < v then begin
        let succ = M.get (next_cell_exn curr) in
        M.lock (node_lock succ);
        M.unlock (node_lock prev);
        crab curr succ
      end
      else (prev, curr, tval)
    in
    M.lock (node_lock t.head);
    let curr = M.get (next_cell_exn t.head) in
    M.lock (node_lock curr);
    crab t.head curr

  let unlock2 prev curr =
    M.unlock (node_lock curr);
    M.unlock (node_lock prev)

  let insert t v =
    check_key v;
    let prev, curr, tval = locate_locked t v in
    let result =
      if tval = v then false
      else begin
        M.set (next_cell_exn prev) (make_node v curr);
        true
      end
    in
    unlock2 prev curr;
    result

  let remove t v =
    check_key v;
    let prev, curr, tval = locate_locked t v in
    let result =
      if tval = v then begin
        M.set (next_cell_exn prev) (M.get (next_cell_exn curr));
        true
      end
      else false
    in
    unlock2 prev curr;
    result

  let contains t v =
    check_key v;
    let prev, curr, tval = locate_locked t v in
    unlock2 prev curr;
    tval = v

  let fold_range lo hi f init t =
    let rec loop acc node =
      match node with
      | Tail _ -> acc
      | Node n ->
          let v = M.get n.value in
          if v > hi then acc
          else
            let acc = if lo <= v && v <> min_int then f acc v else acc in
            loop acc (M.get n.next)
    in
    loop init t.head

  include Set_intf.Derive (struct
    type nonrec t = t

    let fold_range = fold_range
  end)

  let check_invariants t =
    let rec loop last node steps =
      if steps > 10_000_000 then Error "traversal did not terminate (cycle?)"
      else
        match node with
        | Tail n ->
            if M.get n.value = max_int then Ok ()
            else Error "tail sentinel does not store max_int"
        | Node n ->
            let v = M.get n.value in
            if v <= last && steps > 0 then
              Error (Printf.sprintf "values not strictly increasing at %d" v)
            else loop v (M.get n.next) (steps + 1)
    in
    match t.head with
    | Node n when M.get n.value = min_int -> loop min_int t.head 0
    | _ -> Error "head sentinel does not store min_int"
end
