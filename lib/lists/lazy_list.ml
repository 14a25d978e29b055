(** The Lazy Linked List of Heller et al. (OPODIS 2006) — the paper's main
    lock-based baseline.

    Removal is split into a logical step (setting the node's [marked] flag)
    and a physical unlink, which buys an O(1) validation — [prev] and
    [curr] unmarked and still adjacent — instead of the optimistic list's
    re-traversal, and a wait-free [contains].

    The concurrency-suboptimality the paper exploits (its Figure 2) is kept
    faithfully: {e both} update operations lock [prev] and [curr] {e before}
    checking whether the value is even present, so an [insert] of an
    already-present value and a [remove] of an absent value still contend on
    the locks.  The traversal restarts from the head on every validation
    failure, also as in the original algorithm. *)

module Make (M : Vbl_memops.Mem_intf.S) : Set_intf.S = struct
  let name = if M.reclaiming then "lazy-reclaim" else "lazy"

  module Probe = Vbl_obs.Probe
  module C = Vbl_obs.Metrics

  type node =
    | Node of {
        next : node M.link;
        value : int M.key;
        marked : bool M.cell;
        lock : M.lock;
      }
    | Tail of { lock : M.lock; value : int M.key; marked : bool M.cell }

  type t = { head : node; pool : node M.pool }

  (* The tail keeps its key and mark at a node's field indices, so
     reading either makes no tag test. *)
  let node_value = function Node n -> M.get_key n.value | Tail n -> M.get_key n.value
  let node_marked = function Node n -> M.get n.marked | Tail n -> M.get n.marked
  let node_lock = function Node n -> n.lock | Tail n -> n.lock
  (* The successor is each [Node]'s first field, an [M.link]; the tail
     has none, so every link access checks its node with [linked]. *)
  let next_of = function Node n -> n.next | Tail _ -> assert false
  let key_of = function Node n -> n.value | Tail _ -> assert false
  let[@inline] linked = function Node _ as n -> n | Tail _ -> assert false

  (* Names are only built for instrumented backends ([M.named]); on the
     real backend an insert allocates exactly the node and its cells,
     made lock first and value last (the order the instrumented backends
     number their shadows in). *)
  let make_node value next =
    let line = M.fresh_line () in
    let nm = if M.named then Naming.node value else "" in
    if M.named then M.new_node ~name:nm ~line;
    let lock = M.field_lock nm ".lock" ~line () in
    let marked = M.field nm ".del" ~line false in
    let next = M.link nm ".next" ~line next in
    Node { next; value = M.key nm ".val" ~line value; marked; lock }

  let make_sentinel value =
    let line = M.fresh_line () in
    let nm = if M.named then Naming.node value else "" in
    ( line,
      M.key nm ".val" ~line value,
      M.field nm ".del" ~line false,
      M.field_lock nm ".lock" ~line () )

  let create () =
    let _, tv, tm, tlk = make_sentinel max_int in
    let tail = Tail { lock = tlk; value = tv; marked = tm } in
    let hl, hv, hm, hlk = make_sentinel min_int in
    let hn = if M.named then Naming.head else "" in
    let next = M.link hn ".next" ~line:hl tail in
    let head = Node { next; value = hv; marked = hm; lock = hlk } in
    (* The head sentinel doubles as the pool's miss sentinel: it can never
       be retired. *)
    { head; pool = M.make_pool ~dummy:head }

  let check_key v =
    if v = min_int || v = max_int then
      invalid_arg "list-based set: key must be strictly between min_int and max_int"

  (* The wait-free traversal (ignores locks and marks) is inlined into
     each operation below as a closed tail-recursive walk with explicit
     parameters: without flambda, a (prev, curr)-returning locate — or the
     former continuation passed to with_locked_pair — allocates on every
     operation, whereas the walks keep everything in registers.  Hops
     flush in one probe call per traversal; the shared-memory access
     sequence is exactly that of the former locate/with_locked_pair pair,
     so instrumented schedules are unchanged. *)

  (* Reclaiming insert path: reinitialize an aged-out retired node in
     place (it is unreachable and its lock long released) instead of
     allocating; one physical miss-check against the head sentinel, no
     option under [@hot]. *)
  let[@hot] recycle_node t v next =
    let x = M.recycle t.pool in
    if x == t.head then make_node v next
    else begin
      (match x with
      | Node n ->
          M.set_key x key_of v;
          M.set_link x next_of next;
          M.set n.marked false
      | Tail _ -> assert false);
      x
    end

  (* O(1) validation under both locks (Heller et al. fig. 4). *)
  let[@hot] validate prev curr =
    (not (node_marked prev)) && (not (node_marked curr)) && M.get_link (linked prev) next_of == curr

  (* Post-locking discipline, kept faithful: locks are taken before the
     operation knows whether it will modify the list, and every validation
     failure restarts from the head. *)
  let[@hot] rec insert_walk t v prev curr hops =
    if node_value curr < v then insert_walk t v curr (M.get_link (linked curr) next_of) (hops + 1)
    else begin
      if !Probe.enabled then Probe.add C.Traversal_steps hops;
      M.lock (node_lock prev);
      M.lock (node_lock curr);
      if validate prev curr then begin
        Probe.count C.Lock_acquisitions;
        Probe.count C.Lock_acquisitions;
        let tval = node_value curr in
        let result =
          if tval = v then false
          else begin
            M.set_link (linked prev) next_of
              (if M.reclaiming then recycle_node t v curr else make_node v curr);
            true
          end
        in
        M.unlock (node_lock curr);
        M.unlock (node_lock prev);
        result
      end
      else begin
        Probe.count C.Validation_failures;
        Probe.count C.Restarts;
        M.unlock (node_lock curr);
        M.unlock (node_lock prev);
        insert_walk t v t.head (M.get_link (linked t.head) next_of) 1
      end
    end

  (* Epoch brackets on reclaiming backends; plain backends take the
     unchanged direct path (one immutable-flag branch, like [M.named]). *)
  let insert t v =
    check_key v;
    if M.reclaiming then begin
      let h = M.op_enter t.pool in
      let r = insert_walk t v t.head (M.get_link (linked t.head) next_of) 1 in
      M.op_exit t.pool h;
      r
    end
    else insert_walk t v t.head (M.get_link (linked t.head) next_of) 1

  let[@hot] rec remove_walk t v prev curr hops =
    if node_value curr < v then remove_walk t v curr (M.get_link (linked curr) next_of) (hops + 1)
    else begin
      if !Probe.enabled then Probe.add C.Traversal_steps hops;
      M.lock (node_lock prev);
      M.lock (node_lock curr);
      if validate prev curr then begin
        Probe.count C.Lock_acquisitions;
        Probe.count C.Lock_acquisitions;
        let tval = node_value curr in
        let result =
          if tval <> v then false
          else begin
            (match curr with Node n -> M.set n.marked true | Tail _ -> assert false);
            Probe.count C.Logical_deletes;
            M.set_link (linked prev) next_of (M.get_link (linked curr) next_of);
            Probe.count C.Physical_unlinks;
            true
          end
        in
        M.unlock (node_lock curr);
        M.unlock (node_lock prev);
        (* Unlinked exactly once (validated, under both locks), and
           retired only after its lock is handed back — L6 forbids
           touching [curr] past the retire.  Still inside the operation's
           bracket, so the grace period cannot pass before we return. *)
        if M.reclaiming && result then M.retire t.pool curr;
        result
      end
      else begin
        Probe.count C.Validation_failures;
        Probe.count C.Restarts;
        M.unlock (node_lock curr);
        M.unlock (node_lock prev);
        remove_walk t v t.head (M.get_link (linked t.head) next_of) 1
      end
    end

  let remove t v =
    check_key v;
    if M.reclaiming then begin
      let h = M.op_enter t.pool in
      let r = remove_walk t v t.head (M.get_link (linked t.head) next_of) 1 in
      M.op_exit t.pool h;
      r
    end
    else remove_walk t v t.head (M.get_link (linked t.head) next_of) 1

  let[@hot] rec contains_walk v curr hops =
    if node_value curr < v then contains_walk v (M.get_link (linked curr) next_of) (hops + 1)
    else begin
      if !Probe.enabled then Probe.add C.Traversal_steps hops;
      node_value curr = v && not (node_marked curr)
    end

  let contains t v =
    check_key v;
    if M.reclaiming then begin
      let h = M.op_enter t.pool in
      let r = contains_walk v (M.get_link (linked t.head) next_of) 1 in
      M.op_exit t.pool h;
      r
    end
    else contains_walk v (M.get_link (linked t.head) next_of) 1

  let fold_walk lo hi f init t =
    let rec loop acc node =
      match node with
      | Tail _ -> acc
      | Node n ->
          let v = M.get_key n.value in
          if v > hi then acc
          else
            let keep = lo <= v && v <> min_int && not (M.get n.marked) in
            let acc = if keep then f acc v else acc in
            loop acc (M.get_link node next_of)
    in
    loop init t.head

  (* The walk may be parked on a node a concurrent remove retires, so on
     a reclaiming backend it runs inside one epoch bracket, closed even
     when [f] raises. *)
  let fold_range lo hi f init t =
    if M.reclaiming then begin
      let h = M.op_enter t.pool in
      Fun.protect
        ~finally:(fun () -> M.op_exit t.pool h)
        (fun () -> fold_walk lo hi f init t)
    end
    else fold_walk lo hi f init t

  include Set_intf.Derive (struct
    type nonrec t = t

    let fold_range = fold_range
  end)

  let[@quiescent] check_invariants t =
    let rec loop last node steps =
      if steps > 10_000_000 then Error "traversal did not terminate (cycle?)"
      else
        match node with
        | Tail n ->
            if M.get_key n.value <> max_int then Error "tail sentinel does not store max_int"
            else if M.get n.marked then Error "tail sentinel is marked"
            else Ok ()
        | Node n ->
            let v = M.get_key n.value in
            if v <= last && steps > 0 then
              Error (Printf.sprintf "values not strictly increasing at %d" v)
            else if steps > 0 && M.get n.marked then
              (* At quiescence every marked node has also been unlinked. *)
              Error (Printf.sprintf "marked node %d still reachable" v)
            else loop v (M.get_link node next_of) (steps + 1)
    in
    match t.head with
    | Node n when M.get_key n.value = min_int -> loop min_int t.head 0
    | _ -> Error "head sentinel does not store min_int"
end
