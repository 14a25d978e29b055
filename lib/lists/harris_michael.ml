(** Harris-Michael lock-free list, AtomicMarkableReference variant.

    This mirrors the Java implementation from Herlihy & Shavit ch. 9 that
    the paper measures: each node's successor pointer and its logical
    deletion mark live together in a separate immutable pair object (Java's
    [AtomicMarkableReference]), swapped wholesale by CAS.  Reading the
    successor therefore costs {e two} dependent loads — the pair, then the
    successor it holds — where a VBL hop costs one, which is exactly the
    traversal overhead the paper blames for Harris-Michael losing
    read-only workloads by up to 1.6x (§4, "Comparison against
    Harris-Michael").  The instrumented backend charges the second load
    via [M.touch] on the pair's own line.

    Progress: lock-free updates, wait-free [contains].  A failed physical
    unlink during [remove] is abandoned (the node stays logically deleted
    and is reclaimed by a later traversal's helping), which is the behaviour
    the paper's Figure 3 schedule exposes as concurrency-suboptimal. *)

module Make (M : Vbl_memops.Mem_intf.S) : Set_intf.S = struct
  let name = if M.reclaiming then "harris-michael-reclaim" else "harris-michael"

  module Probe = Vbl_obs.Probe
  module C = Vbl_obs.Metrics

  type node =
    | Node of { amr : pair M.link; value : int M.key }
    | Tail of { value : int M.key }

  (* The AtomicMarkableReference payload: immutable, one allocation per
     link-state change, on its own coherence line.  On the real backend
     [M.cas_link] compiles down to [Atomic.compare_and_set] on the node's
     first field — the
     algorithm itself never touches [Atomic.] or [Mutex.] directly, and
     the AST lint (unlike its grep predecessor) knows this comment is not
     code. *)
  and pair = { p_next : node; p_marked : bool; p_line : int }

  type t = { head : node; pool : node M.pool }

  (* The AMR cell is each [Node]'s first field, an [M.link]; the tail has
     none, so every link access checks its node with [linked]. *)
  let amr_of = function Node n -> n.amr | Tail _ -> assert false
  let key_of = function Node n -> n.value | Tail _ -> assert false
  let[@inline] linked = function Node _ as n -> n | Tail _ -> assert false

  let make_pair next marked = { p_next = next; p_marked = marked; p_line = M.fresh_line () }

  (* Names are only built for instrumented backends ([M.named]); on the
     real backend an insert allocates exactly the node (its key is a field
     of it) and the AMR pair the variant is defined by.  The link (and its
     pair's line) is made before the key, the order the instrumented
     backends number their lines and shadows in. *)
  let make_node value next =
    let line = M.fresh_line () in
    let nm = if M.named then Naming.node value else "" in
    if M.named then M.new_node ~name:nm ~line;
    let amr = M.link nm ".amr" ~line (make_pair next false) in
    Node { amr; value = M.key nm ".val" ~line value }

  let create () =
    let tl = M.fresh_line () in
    let tn = if M.named then Naming.tail else "" in
    let tail = Tail { value = M.key tn ".val" ~line:tl max_int } in
    let hl = M.fresh_line () in
    let hn = if M.named then Naming.head else "" in
    let amr = M.link hn ".amr" ~line:hl (make_pair tail false) in
    let head = Node { amr; value = M.key hn ".val" ~line:hl min_int } in
    (* The head sentinel doubles as the pool's miss sentinel: it can never
       be retired. *)
    { head; pool = M.make_pool ~dummy:head }

  let check_key v =
    if v = min_int || v = max_int then
      invalid_arg "list-based set: key must be strictly between min_int and max_int"

  (* Reclaiming insert path: reuse an aged-out node, rewriting its key in
     place; a recycled insert still allocates its AMR pair (the pair is
     immutable by design — it is what the CAS swaps), so recycling saves
     the node but not the pair.  Miss check is one physical
     comparison against the head sentinel. *)
  let recycle_node t v next =
    let x = M.recycle t.pool in
    if x == t.head then make_node v next
    else begin
      (match x with
      | Node _ ->
          M.set_key x key_of v;
          M.set_link x amr_of (make_pair next false)
      | Tail _ -> assert false);
      x
    end

  (* Michael's find: locate the first unmarked node with value >= v,
     physically unlinking every marked node encountered on the way; a failed
     helping CAS restarts from the head.  Returns
     (prev, prev_pair-as-read, curr, curr value).  [advance] is a closed
     top-level loop (not a closure over [t]/[v]) so the traversal itself
     allocates nothing; the result tuple is one small allocation per
     update, inherent to returning four values.  The [touch] charging the
     pair's dependent load only concerns instrumented backends, so the real
     engine skips the indirect no-op call ([M.named]).  Hops flush in one
     probe call per traversal (see vbl_list). *)
  let rec find t v =
    let head_pair = M.get_link (linked t.head) amr_of in
    if M.named then M.touch ~line:head_pair.p_line ~name:"pair";
    advance t v t.head head_pair head_pair.p_next 0

  and advance t v prev prev_pair curr hops =
    match curr with
    | Tail _ ->
        if !Probe.enabled then Probe.add C.Traversal_steps hops;
        (prev, prev_pair, curr, max_int)
    | Node n ->
        let curr_pair = M.get_link curr amr_of in
        if M.named then M.touch ~line:curr_pair.p_line ~name:"pair";
        if curr_pair.p_marked then begin
          (* Help unlink the logically deleted [curr]. *)
          let replacement = make_pair curr_pair.p_next false in
          Probe.count C.Cas_attempts;
          if M.cas_link (linked prev) amr_of prev_pair replacement then begin
            Probe.count C.Physical_unlinks;
            (* Exactly one unlinking CAS can succeed for [curr] (pairs are
               compared by identity and never reused), so this is the
               single retire point for a helped node. *)
            if M.reclaiming then M.retire t.pool curr;
            advance t v prev replacement curr_pair.p_next (hops + 1)
          end
          else begin
            if !Probe.enabled then Probe.add C.Traversal_steps (hops + 1);
            Probe.count C.Cas_failures;
            Probe.count C.Restarts;
            find t v
          end
        end
        else begin
          let cv = M.get_key n.value in
          if cv >= v then begin
            if !Probe.enabled then Probe.add C.Traversal_steps (hops + 1);
            (prev, prev_pair, curr, cv)
          end
          else advance t v curr curr_pair curr_pair.p_next (hops + 1)
        end

  let rec insert_loop t v =
    let prev, prev_pair, curr, cv = find t v in
    if cv = v then false
    else begin
      let x = if M.reclaiming then recycle_node t v curr else make_node v curr in
      let fresh = make_pair x false in
      Probe.count C.Cas_attempts;
      if M.cas_link (linked prev) amr_of prev_pair fresh then true
      else begin
        Probe.count C.Cas_failures;
        Probe.count C.Restarts;
        (* [x] was never published; route it back through the pool. *)
        if M.reclaiming then M.retire t.pool x;
        insert_loop t v
      end
    end

  let insert t v =
    check_key v;
    if M.reclaiming then begin
      let h = M.op_enter t.pool in
      let r = insert_loop t v in
      M.op_exit t.pool h;
      r
    end
    else insert_loop t v

  let rec remove_loop t v =
    let prev, prev_pair, curr, cv = find t v in
    if cv <> v then false
    else begin
      let curr_pair = M.get_link (linked curr) amr_of in
      if M.named then M.touch ~line:curr_pair.p_line ~name:"pair";
      if curr_pair.p_marked then begin
        Probe.count C.Restarts;
        remove_loop t v
      end
      else begin
        let marked = make_pair curr_pair.p_next true in
        Probe.count C.Cas_attempts;
        if not (M.cas_link (linked curr) amr_of curr_pair marked) then begin
          (* Logical deletion failed (concurrent insert after curr or a
             concurrent remove of curr): restart the operation. *)
          Probe.count C.Cas_failures;
          Probe.count C.Restarts;
          remove_loop t v
        end
        else begin
          Probe.count C.Logical_deletes;
          (* Physical unlink is best-effort; on failure the node is left for
             a future traversal's helping step (which then retires it). *)
          let unlinked = make_pair curr_pair.p_next false in
          Probe.count C.Cas_attempts;
          if M.cas_link (linked prev) amr_of prev_pair unlinked then begin
            Probe.count C.Physical_unlinks;
            if M.reclaiming then M.retire t.pool curr
          end
          else Probe.count C.Cas_failures;
          true
        end
      end
    end

  let remove t v =
    check_key v;
    if M.reclaiming then begin
      let h = M.op_enter t.pool in
      let r = remove_loop t v in
      M.op_exit t.pool h;
      r
    end
    else remove_loop t v

  (* Wait-free contains: traverse without helping, check the final mark.
     Closed top-level walk: zero allocation per call on the real backend. *)
  let[@hot] rec contains_walk v curr hops =
    match curr with
    | Tail _ ->
        if !Probe.enabled then Probe.add C.Traversal_steps hops;
        false
    | Node n ->
        let pair = M.get_link curr amr_of in
        if M.named then M.touch ~line:pair.p_line ~name:"pair";
        let cv = M.get_key n.value in
        if cv < v then contains_walk v pair.p_next (hops + 1)
        else begin
          if !Probe.enabled then Probe.add C.Traversal_steps (hops + 1);
          cv = v && not pair.p_marked
        end

  let contains_start t v =
    match t.head with
    | Node _ ->
        let head_pair = M.get_link t.head amr_of in
        if M.named then M.touch ~line:head_pair.p_line ~name:"pair";
        contains_walk v head_pair.p_next 0
    | Tail _ -> assert false

  let contains t v =
    check_key v;
    if M.reclaiming then begin
      let h = M.op_enter t.pool in
      let r = contains_start t v in
      M.op_exit t.pool h;
      r
    end
    else contains_start t v

  (* The present keys of [lo, hi] consed onto [acc], descending: a
     closed walk, so a collection allocates only its cons cells. *)
  let rec collect_walk lo hi acc node =
    match node with
    | Tail _ -> acc
    | Node n ->
        let pair = M.get_link node amr_of in
        let v = M.get_key n.value in
        if v > hi then acc
        else
          let acc =
            if lo <= v && v <> min_int && not pair.p_marked then Set_intf.keep v acc else acc
          in
          collect_walk lo hi acc pair.p_next

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
            if M.get_key n.value = max_int then Ok ()
            else Error "tail sentinel does not store max_int"
        | Node n ->
            let v = M.get_key n.value in
            let pair = M.get_link node amr_of in
            (* Marked nodes may legitimately remain linked (deferred
               unlinking), but sortedness must hold across them. *)
            if v <= last && steps > 0 then
              Error (Printf.sprintf "values not strictly increasing at %d" v)
            else loop v pair.p_next (steps + 1)
    in
    match t.head with
    | Node n when M.get_key n.value = min_int -> loop min_int t.head 0
    | _ -> Error "head sentinel does not store min_int"
end
