(** The three lock-based lists with a deletion flag, written once: the
    Lazy Linked List ([Lazy]), the paper's Value-Based List ([Vbl]) and
    the post-lock ablation ([Postlock]).

    Per node: a successor link, a key, a [deleted] flag and a lock.
    Traversals are wait-free and ignore locks and flags; a remove marks
    its victim, then unlinks it under the locks of the victim and its
    predecessor.  The node, its builders, the sentinels, the try-locks,
    the recycle path, the fold and the invariants are shared; each set
    gives only its updates and its [contains], as closed [@hot] walks. *)

module Make (M : Vbl_memops.Mem_intf.S) : sig
  module Lazy : Set_intf.S
  module Vbl : Set_intf.S
  module Postlock : Set_intf.S
end = struct
  module Probe = Vbl_obs.Probe
  module C = Vbl_obs.Metrics
  module Prof = Vbl_obs.Contention

  type node =
    | Node of {
        next : node M.link;
        value : int M.key;
        deleted : bool M.cell;
        lock : M.lock;
      }
    | Tail of { lock : M.lock; value : int M.key; deleted : bool M.cell }

  type t = { head : node; pool : node M.pool }

  (* The tail keeps its key and flag at a node's field indices, so
     reading either makes no tag test. *)
  let node_value = function Node n -> M.get_key n.value | Tail n -> M.get_key n.value
  let node_deleted = function Node n -> M.get n.deleted | Tail n -> M.get n.deleted
  let node_lock = function Node n -> n.lock | Tail n -> n.lock
  (* The successor is each [Node]'s first field, an [M.link]; the tail
     has none, so every link access checks its node with [linked].  The
     key is the field after it, rewritten only on a recycled node. *)
  let next_of = function Node n -> n.next | Tail _ -> assert false
  let key_of = function Node n -> n.value | Tail _ -> assert false
  let[@inline] linked = function Node _ as n -> n | Tail _ -> assert false

  (* A node's cells are made lock first and value last, the order the
     instrumented backends number their shadows in. *)
  let build nm ~line value next =
    let lock = M.field_lock nm ".lock" ~line () in
    let deleted = M.field nm ".del" ~line false in
    let next = M.link nm ".next" ~line next in
    Node { next; value = M.key nm ".val" ~line value; deleted; lock }

  (* Names are only built for instrumented backends ([M.named]); on the
     real backend an insert allocates exactly the node and its cells. *)
  let make_node value next =
    let line = M.fresh_line () in
    let nm = if M.named then Naming.node value else "" in
    if M.named then M.new_node ~name:nm ~line;
    build nm ~line value next

  let check_key v =
    if v = min_int || v = max_int then
      invalid_arg "list-based set: key must be strictly between min_int and max_int"

  (* The traversal is inlined into each update below as a closed
     tail-recursive walk with explicit parameters.  Without flambda, a
     traversal that returns a (prev, curr) tuple — or a local loop
     closing over [v] — allocates on every operation; the walks keep
     everything in registers so the real-engine hot path allocates
     nothing but the inserted node.  Hops accumulate in [hops] (a
     register) and flush in one probe call per traversal. *)

  (* §3.1 (1): lock [node], then require it undeleted and still pointing at
     [at]; release and fail otherwise.  [@acquires]: on success the lock is
     handed to the caller, so the static pairing rule (lint L3) does not
     apply to this body. *)
  (* Wait-time attribution (disabled: one branch; the timing never touches
     M-managed memory, so instrumented schedules are unchanged). *)
  let[@hot] [@acquires] timed_lock l site =
    let t0 = Prof.now_ns () in
    M.lock l;
    Prof.record_wait site (Prof.now_ns () - t0)

  let[@hot] [@acquires] lock_next_at node at =
    if !Prof.profiling then timed_lock (node_lock node) Prof.Lock_next_at
    else M.lock (node_lock node);
    if (not (node_deleted node)) && M.get_link (linked node) next_of == at then begin
      Probe.count C.Lock_acquisitions;
      true
    end
    else begin
      Probe.count C.Lock_next_at_failures;
      M.unlock (node_lock node);
      false
    end

  (* §3.1 (2): lock [node], then require it undeleted and the {e value} of
     its successor to still be [v]; release and fail otherwise. *)
  let[@hot] [@acquires] lock_next_at_value node v =
    if !Prof.profiling then timed_lock (node_lock node) Prof.Lock_next_at_value
    else M.lock (node_lock node);
    if (not (node_deleted node)) && node_value (M.get_link (linked node) next_of) = v then begin
      Probe.count C.Lock_acquisitions;
      true
    end
    else begin
      Probe.count C.Lock_next_at_value_failures;
      M.unlock (node_lock node);
      false
    end

  (* Reclaiming insert path: serve the node from the free-list when some
     retired node's grace period has passed, reinitializing its key, link
     and flag in place (it is unreachable, so the order of the three
     stores is irrelevant and its lock is long released); allocate fresh
     on a miss.
     The miss check is one physical comparison against the head sentinel
     — never an option, which would allocate under [@hot]. *)
  let[@hot] recycle_node t v next =
    let x = M.recycle t.pool in
    if x == t.head then make_node v next
    else begin
      (match x with
      | Node n ->
          M.set_key x key_of v;
          M.set_link x next_of next;
          M.set n.deleted false
      | Tail _ -> assert false);
      x
    end

  (* {1 Vbl} Lines 14-21 (waitfreeTraversal) are inlined into each
     update; restarts resume from [prev] rather than the head, and fall
     back to the head only if [prev] itself got deleted. *)

  (* Lines 22-32; restarts resume from [prev] (line 24). *)
  let[@hot] rec vbl_insert_attempt t v prev =
    let prev = if node_deleted prev then t.head else prev in
    vbl_insert_walk t v prev (M.get_link (linked prev) next_of) 1

  and[@hot] vbl_insert_walk t v prev curr hops =
    if node_value curr < v then
      vbl_insert_walk t v curr (M.get_link (linked curr) next_of) (hops + 1)
    else begin
      if !Probe.enabled then Probe.add C.Traversal_steps hops;
      if node_value curr = v then false
      else begin
        let x = if M.reclaiming then recycle_node t v curr else make_node v curr in
        if lock_next_at prev curr then begin
          let t_acq = if !Prof.profiling then Prof.now_ns () else 0 in
          M.set_link (linked prev) next_of x;
          M.unlock (node_lock prev);
          if !Prof.profiling then
            Prof.record_hold Prof.Lock_next_at (Prof.now_ns () - t_acq);
          true
        end
        else begin
          Probe.count C.Restarts;
          (* [x] was never published; route it back through the pool so a
             restart storm cannot leak recycled nodes. *)
          if M.reclaiming then M.retire t.pool x;
          vbl_insert_attempt t v prev (* goto line 24 *)
        end
      end
    end

  (* Lines 33-48; restarts resume from [prev] (line 35). *)
  let[@hot] rec vbl_remove_attempt t v prev =
    let prev = if node_deleted prev then t.head else prev in
    vbl_remove_walk t v prev (M.get_link (linked prev) next_of) 1

  and[@hot] vbl_remove_walk t v prev curr hops =
    if node_value curr < v then
      vbl_remove_walk t v curr (M.get_link (linked curr) next_of) (hops + 1)
    else begin
      if !Probe.enabled then Probe.add C.Traversal_steps hops;
      if node_value curr <> v then false
      else begin
        let next = M.get_link (linked curr) next_of in
        if not (lock_next_at_value prev v) then begin
          Probe.count C.Restarts;
          vbl_remove_attempt t v prev (* goto line 35 *)
        end
        else begin
          let t_prev = if !Prof.profiling then Prof.now_ns () else 0 in
          (* Line 40: re-read the successor under the lock; a concurrent
             remove+insert of [v] may have replaced the node. *)
          let curr = M.get_link (linked prev) next_of in
          if not (lock_next_at curr next) then begin
            Probe.count C.Restarts;
            M.unlock (node_lock prev);
            if !Prof.profiling then
              Prof.record_hold Prof.Lock_next_at_value (Prof.now_ns () - t_prev);
            vbl_remove_attempt t v prev (* goto line 35 *)
          end
          else begin
            let t_curr = if !Prof.profiling then Prof.now_ns () else 0 in
            (match curr with
            | Node n -> M.set n.deleted true
            | Tail _ -> assert false);
            Probe.count C.Logical_deletes;
            M.set_link (linked prev) next_of (M.get_link (linked curr) next_of);
            Probe.count C.Physical_unlinks;
            M.unlock (node_lock curr);
            M.unlock (node_lock prev);
            if !Prof.profiling then begin
              let stop = Prof.now_ns () in
              Prof.record_hold Prof.Lock_next_at (stop - t_curr);
              Prof.record_hold Prof.Lock_next_at_value (stop - t_prev)
            end;
            (* [curr] is unlinked (exactly once, under both locks) and its
               lock released above: quarantine it until the grace period
               passes. *)
            if M.reclaiming then M.retire t.pool curr;
            true
          end
        end
      end
    end

  (* Lines 9-13: value-only wait-free membership test. *)
  let[@hot] rec vbl_contains_walk v curr hops =
    if node_value curr < v then
      vbl_contains_walk v (M.get_link (linked curr) next_of) (hops + 1)
    else begin
      if !Probe.enabled then Probe.add C.Traversal_steps hops;
      node_value curr = v
    end

  (* {1 Postlock} VBL's walks with the lazy list's discipline: lock
     [prev] by identity ([lock_next_at]) before deciding, so a failed
     update takes a lock it never uses, and restart from [prev] when the
     lock fails. *)

  let[@hot] rec postlock_insert_attempt t v prev =
    let prev = if node_deleted prev then t.head else prev in
    postlock_insert_walk t v prev (M.get_link (linked prev) next_of) 1

  and[@hot] postlock_insert_walk t v prev curr hops =
    if node_value curr < v then
      postlock_insert_walk t v curr (M.get_link (linked curr) next_of) (hops + 1)
    else begin
      if !Probe.enabled then Probe.add C.Traversal_steps hops;
      if not (lock_next_at prev curr) then begin
        Probe.count C.Restarts;
        postlock_insert_attempt t v prev
      end
      else if node_value curr = v then begin
        M.unlock (node_lock prev);
        false
      end
      else begin
        M.set_link (linked prev) next_of
          (if M.reclaiming then recycle_node t v curr else make_node v curr);
        M.unlock (node_lock prev);
        true
      end
    end

  let[@hot] rec postlock_remove_attempt t v prev =
    let prev = if node_deleted prev then t.head else prev in
    postlock_remove_walk t v prev (M.get_link (linked prev) next_of) 1

  and[@hot] postlock_remove_walk t v prev curr hops =
    if node_value curr < v then
      postlock_remove_walk t v curr (M.get_link (linked curr) next_of) (hops + 1)
    else begin
      if !Probe.enabled then Probe.add C.Traversal_steps hops;
      if not (lock_next_at prev curr) then begin
        Probe.count C.Restarts;
        postlock_remove_attempt t v prev
      end
      else if node_value curr <> v then begin
        M.unlock (node_lock prev);
        false
      end
      else begin
        (* [prev] is locked and links to [curr], so [curr] is not
           deleted; its lock is taken without validation, and its
           successor is stable under it. *)
        M.lock (node_lock curr);
        Probe.count C.Lock_acquisitions;
        (match curr with
        | Node n -> M.set n.deleted true
        | Tail _ -> assert false);
        Probe.count C.Logical_deletes;
        M.set_link (linked prev) next_of (M.get_link (linked curr) next_of);
        Probe.count C.Physical_unlinks;
        M.unlock (node_lock curr);
        M.unlock (node_lock prev);
        if M.reclaiming then M.retire t.pool curr;
        true
      end
    end

  (* {1 Lazy} Locks are taken before the operation knows whether it will
     modify the list, and every validation failure restarts from the
     head, as in the original algorithm. *)

  (* O(1) validation under both locks (Heller et al. fig. 4). *)
  let[@hot] validate prev curr =
    (not (node_deleted prev)) && (not (node_deleted curr)) && M.get_link (linked prev) next_of == curr

  let[@hot] rec lazy_insert_walk t v prev curr hops =
    if node_value curr < v then
      lazy_insert_walk t v curr (M.get_link (linked curr) next_of) (hops + 1)
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
        lazy_insert_walk t v t.head (M.get_link (linked t.head) next_of) 1
      end
    end

  let[@hot] rec lazy_remove_walk t v prev curr hops =
    if node_value curr < v then
      lazy_remove_walk t v curr (M.get_link (linked curr) next_of) (hops + 1)
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
            (match curr with Node n -> M.set n.deleted true | Tail _ -> assert false);
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
        lazy_remove_walk t v t.head (M.get_link (linked t.head) next_of) 1
      end
    end

  (* Unlike VBL's, the lazy list's membership test skips a marked node. *)
  let[@hot] rec lazy_contains_walk v curr hops =
    if node_value curr < v then
      lazy_contains_walk v (M.get_link (linked curr) next_of) (hops + 1)
    else begin
      if !Probe.enabled then Probe.add C.Traversal_steps hops;
      node_value curr = v && not (node_deleted curr)
    end

  (* Everything but the updates and [contains], which the three sets
     export unchanged. *)
  module Common = struct
    type nonrec t = t

    let create () =
      let tl = M.fresh_line () in
      let tn = if M.named then Naming.tail else "" in
      let lock = M.field_lock tn ".lock" ~line:tl () in
      let deleted = M.field tn ".del" ~line:tl false in
      let tail = Tail { lock; value = M.key tn ".val" ~line:tl max_int; deleted } in
      let hl = M.fresh_line () in
      let hn = if M.named then Naming.head else "" in
      let head = build hn ~line:hl min_int tail in
      (* The head sentinel doubles as the pool's miss sentinel: it can
         never be retired, so [x == t.head] is an unambiguous "free-list
         empty". *)
      { head; pool = M.make_pool ~dummy:head }

    (* The present keys of [lo, hi] consed onto [acc], descending: a
       closed walk, so a collection allocates only its cons cells. *)
    let rec collect_walk lo hi acc node =
      match node with
      | Tail _ -> acc
      | Node n ->
          let v = M.get_key n.value in
          if v > hi then acc
          else
            let acc =
              if lo <= v && v <> min_int && not (M.get n.deleted) then Set_intf.keep v acc
              else acc
            in
            collect_walk lo hi acc (M.get_link node next_of)

    (* The walk may stand on a node a concurrent remove retires, so on a
       reclaiming backend it runs inside one epoch bracket, as the point
       operations do. *)
    let collect_range lo hi acc t =
      if M.reclaiming then begin
        let h = M.op_enter t.pool in
        let r = collect_walk lo hi acc t.head in
        M.op_exit t.pool h;
        r
      end
      else collect_walk lo hi acc t.head

    include Set_intf.Derive (struct
      type nonrec t = t

      let collect_range = collect_range
    end)

    let[@quiescent] check_invariants t =
      let rec loop last node steps =
        if steps > 10_000_000 then Error "traversal did not terminate (cycle?)"
        else
          match node with
          | Tail n ->
              if M.get_key n.value <> max_int then Error "tail sentinel does not store max_int"
              else if M.get n.deleted then Error "tail sentinel is marked deleted"
              else Ok ()
          | Node n ->
              let v = M.get_key n.value in
              if v <= last && steps > 0 then
                Error (Printf.sprintf "values not strictly increasing at %d" v)
              else if steps > 0 && M.get n.deleted then
                (* Every remove unlinks under the lock pair that marks,
                   so at quiescence no deleted node is reachable. *)
                Error (Printf.sprintf "deleted node %d still reachable" v)
              else if M.lock_held (node_lock node) then
                Error (Printf.sprintf "node %d left locked" v)
              else loop v (M.get_link node next_of) (steps + 1)
      in
      match t.head with
      | Node n when M.get_key n.value = min_int -> loop min_int t.head 0
      | _ -> Error "head sentinel does not store min_int"
  end

  (* Each entry point opens its own epoch bracket on a reclaiming
     backend: while it is open, nothing the operation can reach may be
     recycled.  The [M.reclaiming] guard keeps the plain backends' code
     paths byte-for-byte unchanged (one immutable-flag branch, like
     [M.named]). *)
  module Vbl = struct
    include Common

    let name = if M.reclaiming then "vbl-reclaim" else "vbl"

    let insert t v =
      check_key v;
      if M.reclaiming then begin
        let h = M.op_enter t.pool in
        let r = vbl_insert_attempt t v t.head in
        M.op_exit t.pool h;
        r
      end
      else vbl_insert_attempt t v t.head

    let remove t v =
      check_key v;
      if M.reclaiming then begin
        let h = M.op_enter t.pool in
        let r = vbl_remove_attempt t v t.head in
        M.op_exit t.pool h;
        r
      end
      else vbl_remove_attempt t v t.head

    let contains t v =
      check_key v;
      if M.reclaiming then begin
        let h = M.op_enter t.pool in
        let r = vbl_contains_walk v t.head 0 in
        M.op_exit t.pool h;
        r
      end
      else vbl_contains_walk v t.head 0
  end

  module Postlock = struct
    include Common

    let name = if M.reclaiming then "vbl-postlock-reclaim" else "vbl-postlock"

    let insert t v =
      check_key v;
      if M.reclaiming then begin
        let h = M.op_enter t.pool in
        let r = postlock_insert_attempt t v t.head in
        M.op_exit t.pool h;
        r
      end
      else postlock_insert_attempt t v t.head

    let remove t v =
      check_key v;
      if M.reclaiming then begin
        let h = M.op_enter t.pool in
        let r = postlock_remove_attempt t v t.head in
        M.op_exit t.pool h;
        r
      end
      else postlock_remove_attempt t v t.head

    let contains = Vbl.contains
  end

  module Lazy = struct
    include Common

    let name = if M.reclaiming then "lazy-reclaim" else "lazy"

    let insert t v =
      check_key v;
      if M.reclaiming then begin
        let h = M.op_enter t.pool in
        let r = lazy_insert_walk t v t.head (M.get_link (linked t.head) next_of) 1 in
        M.op_exit t.pool h;
        r
      end
      else lazy_insert_walk t v t.head (M.get_link (linked t.head) next_of) 1

    let remove t v =
      check_key v;
      if M.reclaiming then begin
        let h = M.op_enter t.pool in
        let r = lazy_remove_walk t v t.head (M.get_link (linked t.head) next_of) 1 in
        M.op_exit t.pool h;
        r
      end
      else lazy_remove_walk t v t.head (M.get_link (linked t.head) next_of) 1

    let contains t v =
      check_key v;
      if M.reclaiming then begin
        let h = M.op_enter t.pool in
        let r = lazy_contains_walk v (M.get_link (linked t.head) next_of) 1 in
        M.op_exit t.pool h;
        r
      end
      else lazy_contains_walk v (M.get_link (linked t.head) next_of) 1
  end
end
