(** The Value-Based List (VBL) — the paper's contribution (§3, Algorithm 2).

    Ingredients, each kept faithful to the pseudo-code:

    - {b wait-free traversal} ([waitfreeTraversal]) that ignores locks and
      marks, restarts from its own [prev] rather than the head, and falls
      back to the head only if [prev] itself got deleted (lines 14-21);
    - {b value checks before any locking}: an [insert] of a present value
      and a [remove] of an absent value return without touching a lock
      (lines 25 and 36) — the property that makes the algorithm accept the
      schedules the lazy list rejects;
    - the {b value-aware try-lock} of §3.1: [lock_next_at] validates
      adjacency by {e identity} and [lock_next_at_value] by {e value}, both
      after acquiring the node's lock and both releasing it on failure;
    - {b logical deletion} ([deleted] flag, separate from the [next]
      pointer as the paper advocates) followed by immediate physical unlink
      under both locks (lines 44-45).

    Progress: deadlock-free (locks are acquired in list order; an update
    that keeps restarting implies other updates completed).  [contains] is
    wait-free and, per the paper's pseudo-code (lines 9-13), does {e not}
    consult the [deleted] flag: a logically deleted node still being
    unlinked counts as present, which linearizes the [contains] before the
    concurrent [remove]. *)

module Make (M : Vbl_memops.Mem_intf.S) : Set_intf.S = struct
  let name = if M.reclaiming then "vbl-reclaim" else "vbl"

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

  let create () =
    let tl = M.fresh_line () in
    let tn = if M.named then Naming.tail else "" in
    let lock = M.field_lock tn ".lock" ~line:tl () in
    let deleted = M.field tn ".del" ~line:tl false in
    let tail = Tail { lock; value = M.key tn ".val" ~line:tl max_int; deleted } in
    let hl = M.fresh_line () in
    let hn = if M.named then Naming.head else "" in
    let head = build hn ~line:hl min_int tail in
    (* The head sentinel doubles as the pool's miss sentinel: it can never
       be retired, so [x == t.head] is an unambiguous "free-list empty". *)
    { head; pool = M.make_pool ~dummy:head }

  let check_key v =
    if v = min_int || v = max_int then
      invalid_arg "list-based set: key must be strictly between min_int and max_int"

  (* Lines 14-21 (waitfreeTraversal) are inlined into each update below as
     closed tail-recursive walks with explicit parameters.  Without
     flambda, a traversal that returns a (prev, curr) tuple — or a local
     loop closing over [v] — allocates on every operation; the walks keep
     everything in registers so the real-engine hot path allocates nothing
     but the inserted node.  Hops accumulate in [hops] (a register) and
     flush in one probe call per traversal; the shared-memory access
     sequence is exactly that of the former waitfree_traversal helper, so
     instrumented schedules are unchanged. *)

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

  (* Lines 22-32; restarts resume from [prev] (line 24). *)
  let[@hot] rec insert_attempt t v prev =
    let prev = if node_deleted prev then t.head else prev in
    insert_walk t v prev (M.get_link (linked prev) next_of) 1

  and[@hot] insert_walk t v prev curr hops =
    if node_value curr < v then
      insert_walk t v curr (M.get_link (linked curr) next_of) (hops + 1)
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
          insert_attempt t v prev (* goto line 24 *)
        end
      end
    end

  (* On reclaiming backends every operation runs inside an epoch bracket:
     while it is open, nothing the operation can reach may be recycled.
     The [M.reclaiming] guard keeps the plain backends' code paths
     byte-for-byte unchanged (one immutable-flag branch, like
     [M.named]). *)
  let insert t v =
    check_key v;
    if M.reclaiming then begin
      let h = M.op_enter t.pool in
      let r = insert_attempt t v t.head in
      M.op_exit t.pool h;
      r
    end
    else insert_attempt t v t.head

  (* Lines 33-48; restarts resume from [prev] (line 35). *)
  let[@hot] rec remove_attempt t v prev =
    let prev = if node_deleted prev then t.head else prev in
    remove_walk t v prev (M.get_link (linked prev) next_of) 1

  and[@hot] remove_walk t v prev curr hops =
    if node_value curr < v then
      remove_walk t v curr (M.get_link (linked curr) next_of) (hops + 1)
    else begin
      if !Probe.enabled then Probe.add C.Traversal_steps hops;
      if node_value curr <> v then false
      else begin
        let next = M.get_link (linked curr) next_of in
        if not (lock_next_at_value prev v) then begin
          Probe.count C.Restarts;
          remove_attempt t v prev (* goto line 35 *)
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
            remove_attempt t v prev (* goto line 35 *)
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

  let remove t v =
    check_key v;
    if M.reclaiming then begin
      let h = M.op_enter t.pool in
      let r = remove_attempt t v t.head in
      M.op_exit t.pool h;
      r
    end
    else remove_attempt t v t.head

  (* Lines 9-13: value-only wait-free membership test. *)
  let[@hot] rec contains_walk v curr hops =
    if node_value curr < v then contains_walk v (M.get_link (linked curr) next_of) (hops + 1)
    else begin
      if !Probe.enabled then Probe.add C.Traversal_steps hops;
      node_value curr = v
    end

  let contains t v =
    check_key v;
    if M.reclaiming then begin
      let h = M.op_enter t.pool in
      let r = contains_walk v t.head 0 in
      M.op_exit t.pool h;
      r
    end
    else contains_walk v t.head 0

  let fold_walk lo hi f init t =
    let rec loop acc node =
      match node with
      | Tail _ -> acc
      | Node n ->
          let v = M.get_key n.value in
          if v > hi then acc
          else
            let keep = lo <= v && v <> min_int && not (M.get n.deleted) in
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
            else if M.get n.deleted then Error "tail sentinel is marked deleted"
            else Ok ()
        | Node n ->
            let v = M.get_key n.value in
            if v <= last && steps > 0 then
              Error (Printf.sprintf "values not strictly increasing at %d" v)
            else if steps > 0 && M.get n.deleted then
              (* VBL unlinks under the same lock pair that marks, so at
                 quiescence no deleted node is reachable. *)
              Error (Printf.sprintf "deleted node %d still reachable" v)
            else if M.lock_held (node_lock node) then
              Error (Printf.sprintf "node %d left locked" v)
            else loop v (M.get_link node next_of) (steps + 1)
    in
    match t.head with
    | Node n when M.get_key n.value = min_int -> loop min_int t.head 0
    | _ -> Error "head sentinel does not store min_int"
end
