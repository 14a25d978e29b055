(** The two fine-grained lists of Herlihy & Shavit ch. 9, written once:
    [Hand_over_hand] and [Optimistic].  The node, its builders, the
    sentinels, the locked-window action, the collector and the
    invariants are shared; each set gives only the walk that finds and
    locks its window, a closed [@hot] recursion that counts its hops in
    a register and flushes them once. *)

module Make (M : Vbl_memops.Mem_intf.S) : sig
  module Hand_over_hand : Set_intf.S
  module Optimistic : Set_intf.S
end = struct
  module Probe = Vbl_obs.Probe
  module C = Vbl_obs.Metrics

  type node =
    | Node of { next : node M.link; value : int M.key; lock : M.lock }
    | Tail of { lock : M.lock; value : int M.key }

  type t = { head : node }

  (* The tail keeps its key at a node's field index, so reading it makes
     no tag test. *)
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

  let check_key v =
    if v = min_int || v = max_int then
      invalid_arg "list-based set: key must be strictly between min_int and max_int"

  type op = Insert | Remove | Contains

  (* The operation on a locked window: [prev] and [curr] are locked and
     adjacent, and [tval], [curr]'s value, is the first >= v.  Releases
     both locks. *)
  let[@hot] window op v prev curr tval =
    let result =
      match op with
      | Contains -> tval = v
      | Insert ->
          if tval = v then false
          else begin
            M.set_link (linked prev) next_of (make_node v curr);
            true
          end
      | Remove ->
          if tval <> v then false
          else begin
            M.set_link (linked prev) next_of (M.get_link (linked curr) next_of);
            Probe.count C.Physical_unlinks;
            true
          end
    in
    M.unlock (node_lock curr);
    M.unlock (node_lock prev);
    result

  (* {1 Hand_over_hand} Lock coupling: a walk holds at most two locks,
     acquiring the successor's before releasing the predecessor's, so
     walks pipeline behind each other but never overtake. *)

  (* The first window: the head and its successor, locked.  [@acquires]:
     the locks pass to the caller, whose walk releases them (lint L3). *)
  let[@hot] [@acquires] lock_first t =
    M.lock (node_lock t.head);
    let curr = M.get_link (linked t.head) next_of in
    M.lock (node_lock curr);
    curr

  (* [prev] and [curr] are locked; each hop takes one lock more. *)
  let[@hot] rec hoh_walk op v prev curr hops =
    let tval = node_value curr in
    if tval < v then begin
      let succ = M.get_link (linked curr) next_of in
      M.lock (node_lock succ);
      M.unlock (node_lock prev);
      hoh_walk op v curr succ (hops + 1)
    end
    else begin
      if !Probe.enabled then begin
        Probe.add C.Traversal_steps hops;
        Probe.add C.Lock_acquisitions (hops + 1)
      end;
      window op v prev curr tval
    end

  (* {1 Optimistic} The walk takes no locks.  It locks the window it
     found, then validates it by re-traversal from the head (Herlihy &
     Shavit fig. 9.12), and restarts from the head on a failure. *)

  (* [prev] is still reachable from [node] and still points at [curr]. *)
  let[@hot] rec reachable prev curr prev_value node =
    if node == prev then M.get_link (linked prev) next_of == curr
    else
      node_value node < prev_value
      && reachable prev curr prev_value (M.get_link (linked node) next_of)

  let[@hot] rec opt_walk op t v prev curr hops =
    if node_value curr < v then opt_walk op t v curr (M.get_link (linked curr) next_of) (hops + 1)
    else begin
      if !Probe.enabled then Probe.add C.Traversal_steps hops;
      M.lock (node_lock prev);
      M.lock (node_lock curr);
      if reachable prev curr (node_value prev) t.head then begin
        Probe.count C.Lock_acquisitions;
        Probe.count C.Lock_acquisitions;
        window op v prev curr (node_value curr)
      end
      else begin
        Probe.count C.Validation_failures;
        Probe.count C.Restarts;
        M.unlock (node_lock curr);
        M.unlock (node_lock prev);
        opt_walk op t v t.head (M.get_link (linked t.head) next_of) 1
      end
    end

  (* Everything but the operations, which the two sets export alike. *)
  module Common = struct
    type nonrec t = t

    let create () =
      let tl = M.fresh_line () in
      let tn = if M.named then Naming.tail else "" in
      let lock = M.field_lock tn ".lock" ~line:tl () in
      let tail = Tail { lock; value = M.key tn ".val" ~line:tl max_int } in
      let hl = M.fresh_line () in
      let hn = if M.named then Naming.head else "" in
      let head = build hn ~line:hl min_int tail in
      { head }

    (* The present keys of [lo, hi] consed onto [acc], descending: a
       closed walk, so a collection allocates only its cons cells. *)
    let rec collect_walk lo hi acc node =
      match node with
      | Tail _ -> acc
      | Node n ->
          let v = M.get_key n.value in
          if v > hi then acc
          else
            let acc = if lo <= v && v <> min_int then Set_intf.keep v acc else acc in
            collect_walk lo hi acc (M.get_link node next_of)

    include Set_intf.Derive (struct
      type nonrec t = t

      let collect_range lo hi acc t = collect_walk lo hi acc t.head
    end)

    let[@quiescent] check_invariants t =
      let rec loop last node steps =
        if steps > 10_000_000 then Error "traversal did not terminate (cycle?)"
        else
          match node with
          | Tail n ->
              if M.get_key n.value <> max_int then Error "tail sentinel does not store max_int"
              else if M.lock_held n.lock then Error "tail sentinel left locked"
              else Ok ()
          | Node n ->
              let v = M.get_key n.value in
              if v <= last && steps > 0 then
                Error (Printf.sprintf "values not strictly increasing at %d" v)
              else if M.lock_held n.lock then Error (Printf.sprintf "node %d left locked" v)
              else loop v (M.get_link node next_of) (steps + 1)
      in
      match t.head with
      | Node n when M.get_key n.value = min_int -> loop min_int t.head 0
      | _ -> Error "head sentinel does not store min_int"
  end

  let hand_over_hand op t v =
    check_key v;
    hoh_walk op v t.head (lock_first t) 1

  let optimistic op t v =
    check_key v;
    opt_walk op t v t.head (M.get_link (linked t.head) next_of) 1

  module Hand_over_hand = struct
    include Common

    let name = "hand-over-hand"
    let insert t v = hand_over_hand Insert t v
    let remove t v = hand_over_hand Remove t v
    let contains t v = hand_over_hand Contains t v
  end

  module Optimistic = struct
    include Common

    let name = "optimistic"
    let insert t v = optimistic Insert t v
    let remove t v = optimistic Remove t v
    let contains t v = optimistic Contains t v
  end
end
