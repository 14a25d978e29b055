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
    | Node of { next : node M.link; value : int M.key; lock : M.lock }
    | Tail of { value : int M.key; lock : M.lock }

  type t = { head : node }

  let node_value = function Node n -> M.get_key n.value | Tail n -> M.get_key n.value
  let node_lock = function Node n -> n.lock | Tail n -> n.lock
  (* The successor is each [Node]'s first field, an [M.link]; the tail
     has none, so every link access checks its node with [linked]. *)
  let next_of = function Node n -> n.next | Tail _ -> assert false
  let[@inline] linked = function Node _ as n -> n | Tail _ -> assert false

  (* A node's cells are made lock first and value last, the order the
     instrumented backends number their shadows in. *)
  let build nm ~line value next =
    let lock = M.field_lock nm ".lock" ~line () in
    let next = M.link nm ".next" ~line next in
    Node { next; value = M.key nm ".val" ~line value; lock }

  (* Names are only built for instrumented backends ([M.named]). *)
  let make_node value next =
    let line = M.fresh_line () in
    let nm = if M.named then Naming.node value else "" in
    if M.named then M.new_node ~name:nm ~line;
    build nm ~line value next

  let create () =
    let tl = M.fresh_line () in
    let tn = if M.named then Naming.tail else "" in
    let tail =
      Tail
        { value = M.key tn ".val" ~line:tl max_int; lock = M.field_lock tn ".lock" ~line:tl () }
    in
    let hl = M.fresh_line () in
    let hn = if M.named then Naming.head else "" in
    let head = build hn ~line:hl min_int tail in
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
        let succ = M.get_link (linked curr) next_of in
        M.lock (node_lock succ);
        M.unlock (node_lock prev);
        crab curr succ
      end
      else (prev, curr, tval)
    in
    M.lock (node_lock t.head);
    let curr = M.get_link (linked t.head) next_of in
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
        M.set_link (linked prev) next_of (make_node v curr);
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
        M.set_link (linked prev) next_of (M.get_link (linked curr) next_of);
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
          let v = M.get_key n.value in
          if v > hi then acc
          else
            let acc = if lo <= v && v <> min_int then f acc v else acc in
            loop acc (M.get_link node next_of)
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
            if M.get_key n.value = max_int then Ok ()
            else Error "tail sentinel does not store max_int"
        | Node n ->
            let v = M.get_key n.value in
            if v <= last && steps > 0 then
              Error (Printf.sprintf "values not strictly increasing at %d" v)
            else loop v (M.get_link node next_of) (steps + 1)
    in
    match t.head with
    | Node n when M.get_key n.value = min_int -> loop min_int t.head 0
    | _ -> Error "head sentinel does not store min_int"
end
