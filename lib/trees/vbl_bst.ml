(** The concurrency-optimal partially-external BST of Aksenov, Gramoli,
    Kuznetsov, Malova and Ravi ("A Concurrency-Optimal Binary Search
    Tree"), built from the same ingredients the paper distils from the
    VBL list:

    - {b wait-free descents}: [contains] reads only child pointers and
      one [deleted] flag — no locks, no versions;
    - {b value checks before any locking}: inserting a present value or
      removing an absent one returns with zero synchronisation, and a
      remove of a logically deleted node likewise refuses without locks;
    - {b two locks per node}: a {e state} lock protecting the [deleted]
      flag and a {e tree} lock protecting the child pointers, so an
      insert reviving a routing node and an insert linking a fresh leaf
      under the same node never contend;
    - {b versioned windows}: a descent that falls off the tree at node
      [p] records [p.ver], and the subsequent link validates {e by
      version only} ([not p.unlinked && p.ver = s]) under [p]'s tree
      lock — the window re-validation that makes the schedule in which
      two inserts race for one empty slot rejectable without
      re-descending blindly;
    - {b deletion by state flag}: [remove] linearizes at a single
      [deleted := true] under the state lock.  The remove that deleted a
      node then makes one opportunistic attempt to splice it out, under
      parent-then-victim tree locks in ancestor order, and only if it
      has at most one child (the {e partially-external} compromise).
      Only that remove ever tries: a deleted node with two children, or
      one whose splice failed validation, stays as a routing node until
      an insert of its key revives it.

    Child slots hold the child itself or the immediate [Nil], not a
    [node option], as the VBL list's [next] holds its successor: a
    descent level is two dependent loads (the slot's cell, then the
    child in it) with no [Some] block between, and a link or splice
    writes the node (or [Nil]) straight into the slot.

    Range operations come from {!Vbl_lists.Set_intf.Derive} over a
    window collector bounded to [[lo, hi]]: like [contains], it is a
    wait-free descent reading only immutable keys, child pointers and
    the [deleted] flags of in-window nodes, and it enters only subtrees
    whose key range meets the window, so a collection costs
    O(depth + k) rather than a whole-tree walk.  It is a closed
    recursion that conses each kept key onto a descending list, 3 words
    a key and nothing else.  Splices move subtrees up intact, so pruning
    never skips a key that is in the window; a key re-inserted behind a
    walk that has just kept it is skipped by the collector's guard
    ([Set_intf.keep]), so one collection never holds a key twice.
    The double-collect carries the family-wide best-effort contract:
    presence here flips with a single [deleted]-flag write or a single
    child-pointer link, so each collected value was present at the
    moment its node was read, but two agreeing collections do not
    certify a snapshot — an ABA toggle (remove + re-insert between the
    collections) restores agreement — so [range_query] is not
    linearizable under concurrent updates. *)

module Make (M : Vbl_memops.Mem_intf.S) : Vbl_lists.Set_intf.S = struct
  let name = "vbl-bst"

  module Probe = Vbl_obs.Probe
  module C = Vbl_obs.Metrics

  type node =
    | Nil
    | Node of {
        key : int;  (** immutable: routing never re-keys a node *)
        deleted : bool M.cell;  (** state flag — guarded by [slock] *)
        unlinked : bool M.cell;  (** spliced out — guarded by [tlock] *)
        left : node M.cell;
        right : node M.cell;
        ver : int M.cell;  (** bumped by every child write, under [tlock] *)
        slock : M.lock;
        tlock : M.lock;
      }

  type t = { root : node }
  (** The root is a sentinel node with key [max_int]; every real key
      routes left of it, so the empty tree is [root.left = Nil] and the
      sentinel itself is never deleted or unlinked. *)

  (* Names are only built for instrumented backends ([M.named]). *)
  let make_node k =
    let line = M.fresh_line () in
    let nm = if M.named then Vbl_lists.Naming.tree_node k else "" in
    if M.named then M.new_node ~name:nm ~line;
    Node
      {
        key = k;
        deleted = M.field nm ".del" ~line false;
        unlinked = M.field nm ".ulk" ~line false;
        left = M.field nm ".left" ~line Nil;
        right = M.field nm ".right" ~line Nil;
        ver = M.field nm ".ver" ~line 0;
        slock = M.field_lock nm ".slock" ~line ();
        tlock = M.field_lock nm ".lock" ~line ();
      }

  let create () = { root = make_node max_int }

  let check_key v =
    if v = min_int || v = max_int then
      invalid_arg "bst: key must be strictly between min_int and max_int"

  (* Every descent below counts one hop per child slot it reads (a slot
     re-read for a window counts once) in a register and flushes the sum
     in one probe call, as the list traversals do. *)

  (* Membership: wait-free, allocation-free descent. *)
  let[@hot] rec contains_walk n v hops =
    match n with
    | Node r ->
        if v = r.key then begin
          if !Probe.enabled then Probe.add C.Traversal_steps hops;
          not (M.get r.deleted)
        end
        else contains_walk (M.get (if v < r.key then r.left else r.right)) v (hops + 1)
    | Nil ->
        if !Probe.enabled then Probe.add C.Traversal_steps hops;
        false

  let contains t v =
    check_key v;
    contains_walk t.root v 0

  (* Update descents: closed top-level recursions with explicit
     parameters that end in the update itself, as the lists' walks do,
     so an update allocates nothing but the node it links.  Every restart
     re-enters its walk at [t.root].  Falling off at [n] records a
     seqlock-style window: read [n.ver], then re-check the slot is still
     empty — a later [n.ver = s] comparison under [n]'s tree lock then
     certifies the slot stayed empty from the re-check to the lock
     acquisition.  The walks are only ever handed nodes, never [Nil]. *)
  let[@hot] rec insert_walk t v n hops =
    match n with
    | Nil -> assert false
    | Node r -> (
        if v = r.key then begin
          if !Probe.enabled then Probe.add C.Traversal_steps hops;
          revive t v n
        end
        else
          let c = if v < r.key then r.left else r.right in
          match M.get c with
          | Node _ as m -> insert_walk t v m (hops + 1)
          | Nil -> (
              let s = M.get r.ver in
              match M.get c with
              | Node _ as m -> insert_walk t v m (hops + 1)
              | Nil ->
                  if !Probe.enabled then Probe.add C.Traversal_steps (hops + 1);
                  link t v n s))

  (* [node] holds the key: a live one refuses without a lock; a deleted
     routing node is revived under its state lock — deletion by state
     flag makes this a one-flag write. *)
  and[@hot] revive t v node =
    match node with
    | Nil -> assert false
    | Node n ->
        if not (M.get n.deleted) then false (* present: no lock ever taken *)
        else begin
          M.lock n.slock;
          if M.get n.unlinked then begin
            M.unlock n.slock;
            Probe.count C.Restarts;
            insert_walk t v t.root 0
          end
          else begin
            Probe.count C.Lock_acquisitions;
            if M.get n.deleted then begin
              M.set n.deleted false;
              M.unlock n.slock;
              true
            end
            else begin
              M.unlock n.slock;
              false
            end
          end
        end

  (* The descent fell off [parent] after reading its version [s]. *)
  and[@hot] link t v parent s =
    match parent with
    | Nil -> assert false
    | Node p ->
        let x = make_node v in
        M.lock p.tlock;
        (* Version-only window validation: no pointer identity check is
           needed (or taken) — [ver] unchanged means no link or splice
           touched [p]'s children since the descent's empty re-check. *)
        if (not (M.get p.unlinked)) && M.get p.ver = s then begin
          Probe.count C.Lock_acquisitions;
          M.set (if v < p.key then p.left else p.right) x;
          M.set p.ver (s + 1);
          M.unlock p.tlock;
          true
        end
        else begin
          M.unlock p.tlock;
          Probe.count C.Restarts;
          insert_walk t v t.root 0
        end

  let insert t v =
    check_key v;
    insert_walk t v t.root 0

  (* One opportunistic physical-unlink attempt after a logical remove.
     Lock order: victim state lock, then parent tree lock, then victim
     tree lock.  Tree locks are always taken in ancestor order (the
     ancestor relation between two live nodes never flips: splices only
     remove intermediate nodes and links only add leaves), and the one
     state lock is never waited for while a tree lock is held, so the
     order is global and deadlock-free.  The state lock serialises the
     splice against a concurrent revive-insert: without it, an insert
     could resurrect [n] between our deleted-check and the splice, and
     we would unlink a live key. *)
  let cleanup parent victim =
    match (parent, victim) with
    | Node p, Node n ->
        M.lock n.slock;
        if M.get n.deleted && not (M.get n.unlinked) then begin
          Probe.count C.Lock_acquisitions;
          M.lock p.tlock;
          M.lock n.tlock;
          let pc = if n.key < p.key then p.left else p.right in
          if M.get pc == victim && not (M.get p.unlinked) then begin
            Probe.add C.Lock_acquisitions 2;
            match (M.get n.left, M.get n.right) with
            | Node _, Node _ -> () (* two children: stays as a routing node *)
            | (Node _ as only), Nil | Nil, only ->
                M.set n.unlinked true;
                M.set pc only;
                M.set p.ver (M.get p.ver + 1)
          end;
          M.unlock n.tlock;
          M.unlock p.tlock
        end;
        M.unlock n.slock
    | _ -> assert false

  (* A remove reads the window where it falls off exactly as an insert
     does, so both descents make the same accesses; it has no use for
     the version and returns absent without a lock. *)
  let[@hot] rec remove_walk t v parent n hops =
    match n with
    | Nil -> assert false
    | Node r -> (
        if v = r.key then begin
          if !Probe.enabled then Probe.add C.Traversal_steps hops;
          delete t v parent n
        end
        else
          let c = if v < r.key then r.left else r.right in
          match M.get c with
          | Node _ as m -> remove_walk t v n m (hops + 1)
          | Nil -> (
              ignore (M.get r.ver : int);
              match M.get c with
              | Node _ as m -> remove_walk t v n m (hops + 1)
              | Nil ->
                  if !Probe.enabled then Probe.add C.Traversal_steps (hops + 1);
                  false))

  (* [victim] holds the key under [parent]. *)
  and[@hot] delete t v parent victim =
    match victim with
    | Nil -> assert false
    | Node n ->
        if M.get n.deleted then false (* already absent: still lock-free *)
        else begin
          M.lock n.slock;
          if M.get n.unlinked then begin
            M.unlock n.slock;
            Probe.count C.Restarts;
            remove_walk t v t.root t.root 0
          end
          else begin
            Probe.count C.Lock_acquisitions;
            if M.get n.deleted then begin
              M.unlock n.slock;
              false
            end
            else begin
              M.set n.deleted true;
              (* linearization point *)
              M.unlock n.slock;
              cleanup parent victim;
              true
            end
          end
        end

  let remove t v =
    check_key v;
    remove_walk t v t.root t.root 0

  (* In-order over the live keys of [lo, hi], consed onto [acc]
     descending: a subtree is entered only if its key range can meet the
     window (keys left of [n] are below [n.key], keys right of it
     above), so a window costs O(depth + k).  Deleted routing nodes are
     skipped, the sentinel contributes nothing.  A closed walk: a
     collection allocates only its cons cells. *)
  let rec collect_walk lo hi acc = function
    | Nil -> acc
    | Node n ->
        let k = n.key in
        let acc = if lo < k then collect_walk lo hi acc (M.get n.left) else acc in
        let acc =
          if lo <= k && k <= hi && k <> max_int && not (M.get n.deleted) then
            Vbl_lists.Set_intf.keep k acc
          else acc
        in
        if k < hi then collect_walk lo hi acc (M.get n.right) else acc

  let collect_range lo hi acc t = collect_walk lo hi acc t.root

  include Vbl_lists.Set_intf.Derive (struct
    type nonrec t = t

    let collect_range = collect_range
  end)

  let check_invariants t =
    let exception Bad of string in
    let check_node = function
      | Nil -> ()
      | Node n ->
          if M.get n.unlinked then
            raise (Bad (Printf.sprintf "reachable unlinked node %d" n.key));
          if M.lock_held n.slock then
            raise (Bad (Printf.sprintf "node %d state lock left held" n.key));
          if M.lock_held n.tlock then
            raise (Bad (Printf.sprintf "node %d tree lock left held" n.key))
    in
    let rec go n lo hi depth =
      match n with
      | Nil -> ()
      | Node r ->
          if depth > 1_000_000 then raise (Bad "descent did not terminate (cycle?)");
          if not (lo < r.key && r.key < hi) then
            raise (Bad (Printf.sprintf "node %d outside (%d, %d)" r.key lo hi));
          check_node n;
          go (M.get r.left) lo r.key (depth + 1);
          go (M.get r.right) r.key hi (depth + 1)
    in
    match t.root with
    | Node r when r.key = max_int -> (
        try
          if M.get r.deleted then raise (Bad "root sentinel marked deleted");
          check_node t.root;
          (match M.get r.right with
          | Node _ -> raise (Bad "root sentinel has a right child")
          | Nil -> ());
          go (M.get r.left) min_int max_int 0;
          Ok ()
        with Bad msg -> Error msg)
    | Node _ | Nil -> Error "root is not the max_int sentinel"
end
