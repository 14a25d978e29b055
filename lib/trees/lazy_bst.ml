(** A lazy (Heller-style) external BST baseline: the same external tree
    shape as {!Seq_bst} made concurrent with lock-then-validate, plus
    logical deletion of spliced routers so a validation can tell a stale
    router from a live one without re-descending.

    The deliberate contrast with {!Vbl_bst} is {e when} locks are taken:
    here every update locks its window {e before} deciding the outcome —
    an insert of a present value and a remove of an absent one both
    acquire (and then release) the parent's lock, exactly like the lazy
    list locks [pred]/[curr] before discovering the operation must fail.
    The directed schedule suite leans on this: the paper's accepted
    "decide without locking" schedules complete on [vbl-bst] and are
    refused here with [Thread_blocked].

    [contains] is wait-free, as in the lazy list.  Structure, naming
    (["R<key>"] routers, ["L<value>"] leaves) and invariants match
    {!Seq_bst}; leaves are immutable so every validation is a single
    physical equality on a child pointer. *)

module Make (M : Vbl_memops.Mem_intf.S) : Vbl_lists.Set_intf.S = struct
  let name = "lazy-bst"

  module Probe = Vbl_obs.Probe
  module C = Vbl_obs.Metrics

  type node =
    | Leaf of { value : int M.key }
    | Router of {
        key : int M.key;
        left : node M.cell;
        right : node M.cell;
        deleted : bool M.cell;
        lock : M.lock;
      }

  type t = { root : node; inner : node }

  (* Names are only built for instrumented backends ([M.named]). *)
  let make_leaf value =
    let line = M.fresh_line () in
    let nm = if M.named then Vbl_lists.Naming.leaf value else "" in
    if M.named then M.new_node ~name:nm ~line;
    Leaf { value = M.key nm ".val" ~line value }

  let make_router key left right =
    let line = M.fresh_line () in
    let nm = if M.named then Vbl_lists.Naming.router key else "" in
    if M.named then M.new_node ~name:nm ~line;
    Router
      {
        key = M.key nm ".key" ~line key;
        left = M.field nm ".left" ~line left;
        right = M.field nm ".right" ~line right;
        deleted = M.field nm ".del" ~line false;
        lock = M.field_lock nm ".lock" ~line ();
      }

  let create () =
    let inner = make_router max_int (make_leaf min_int) (make_leaf max_int) in
    { root = make_router max_int inner (make_leaf max_int); inner }

  let check_key v =
    if v = min_int || v = max_int then
      invalid_arg "bst: key must be strictly between min_int and max_int"

  let child_cell node v =
    match node with
    | Router r -> if v < M.get_key r.key then r.left else r.right
    | Leaf _ -> assert false

  let router_lock = function Router r -> r.lock | Leaf _ -> assert false
  let router_deleted = function Router r -> M.get r.deleted | Leaf _ -> assert false
  let leaf_value = function Leaf l -> M.get_key l.value | Router _ -> assert false

  (* Lock [node] and check it is live and still the parent of [expected]
     for value [v]; a lock counts once it passes this validation, and a
     failed validation counts as one, as the lazy list's does (the caller
     restarts).  [@acquires]: on success the lock is handed to the caller
     (lint L3 exemption). *)
  let[@hot] [@acquires] lock_child_at node v expected =
    M.lock (router_lock node);
    if (not (router_deleted node)) && M.get (child_cell node v) == expected then begin
      Probe.count C.Lock_acquisitions;
      true
    end
    else begin
      Probe.count C.Validation_failures;
      M.unlock (router_lock node);
      false
    end

  (* Each operation descends wait-free to the leaf [l] for [v] in a
     closed top-level recursion that carries the leaf's parent [p] (and,
     for a remove, its grandparent [g]) as explicit parameters and ends
     in the update itself, as the lists' walks do, so a descent
     allocates nothing.  Every descent, restarts
     included, starts at the inner sentinel with the root as its parent,
     so [p] and [g] are always routers by the time a leaf is reached.  A
     descent counts one hop per child slot it reads in a register and
     flushes the sum in one probe call. *)
  let[@hot] rec insert_walk t v p l hops =
    match l with
    | Router _ -> insert_walk t v l (M.get (child_cell l v)) (hops + 1)
    | Leaf _ ->
        if !Probe.enabled then Probe.add C.Traversal_steps hops;
        (* Lazy discipline: lock and validate the window first, decide
           the outcome only under the lock. *)
        if not (lock_child_at p v l) then begin
          Probe.count C.Restarts;
          insert_walk t v t.root t.inner 0
        end
        else begin
          let lv = leaf_value l in
          if lv = v then begin
            M.unlock (router_lock p);
            false
          end
          else begin
            let nl = make_leaf v in
            M.set (child_cell p v)
              (if v < lv then make_router lv nl l else make_router v l nl);
            M.unlock (router_lock p);
            true
          end
        end

  let insert t v =
    check_key v;
    insert_walk t v t.root t.inner 0

  let[@hot] rec remove_walk t v g p l hops =
    match l with
    | Router _ -> remove_walk t v p l (M.get (child_cell l v)) (hops + 1)
    | Leaf _ ->
        if !Probe.enabled then Probe.add C.Traversal_steps hops;
        if p == t.inner then begin
          (* Under the never-spliced inner sentinel: replace the leaf with
             the empty-tree marker if it holds [v]. *)
          if not (lock_child_at p v l) then remove_restart t v
          else if leaf_value l <> v then begin
            M.unlock (router_lock p);
            false
          end
          else begin
            M.set (child_cell p v) (make_leaf min_int);
            M.unlock (router_lock p);
            true
          end
        end
        else if not (lock_child_at g v p) then remove_restart t v
        else if not (lock_child_at p v l) then begin
          M.unlock (router_lock g);
          remove_restart t v
        end
        else if leaf_value l <> v then begin
          (* Absent — discovered only after both windows were locked. *)
          M.unlock (router_lock p);
          M.unlock (router_lock g);
          false
        end
        else begin
          (* Both ancestors pinned: p cannot be spliced (needs g's lock)
             and p's children cannot change (needs p's lock). *)
          let sibling =
            match p with
            | Router r -> if v < M.get_key r.key then M.get r.right else M.get r.left
            | Leaf _ -> assert false
          in
          (match p with Router r -> M.set r.deleted true | Leaf _ -> assert false);
          M.set (child_cell g v) sibling;
          M.unlock (router_lock p);
          M.unlock (router_lock g);
          true
        end

  and[@hot] remove_restart t v =
    Probe.count C.Restarts;
    remove_walk t v t.root t.root t.inner 0

  let remove t v =
    check_key v;
    remove_walk t v t.root t.root t.inner 0

  let[@hot] rec contains_walk v l hops =
    match l with
    | Router _ -> contains_walk v (M.get (child_cell l v)) (hops + 1)
    | Leaf _ ->
        if !Probe.enabled then Probe.add C.Traversal_steps hops;
        leaf_value l = v

  let contains t v =
    check_key v;
    contains_walk v t.inner 0

  (* In-order over the leaves of [lo, hi]: values below a router's key
     route left and the rest right, so a subtree is entered only if it
     can hold a value of the window, and a window costs O(depth + k).
     Sentinel leaves contribute nothing. *)
  let fold_range lo hi f init t =
    let rec go acc node =
      match node with
      | Leaf l ->
          let v = M.get_key l.value in
          if lo <= v && v <= hi && v <> min_int && v <> max_int then f acc v else acc
      | Router r ->
          let k = M.get_key r.key in
          let acc = if lo < k then go acc (M.get r.left) else acc in
          if k <= hi then go acc (M.get r.right) else acc
    in
    go init t.root

  include Vbl_lists.Set_intf.Derive (struct
    type nonrec t = t

    let fold_range = fold_range
  end)

  let check_invariants t =
    let exception Bad of string in
    let rec go node lo hi depth =
      if depth > 1_000_000 then raise (Bad "descent did not terminate (cycle?)");
      match node with
      | Leaf l ->
          let v = M.get_key l.value in
          if not (lo <= v && v < hi) && not (v = max_int && hi = max_int) then
            raise (Bad (Printf.sprintf "leaf %d outside range [%d, %d)" v lo hi))
      | Router r ->
          if M.get r.deleted then raise (Bad "reachable deleted router");
          if M.lock_held r.lock then raise (Bad "router left locked");
          let k = M.get_key r.key in
          if k <= lo || k > hi then
            raise (Bad (Printf.sprintf "router key %d outside (%d, %d]" k lo hi));
          go (M.get r.left) lo k (depth + 1);
          go (M.get r.right) k hi (depth + 1)
    in
    match t.root with
    | Router r when M.get_key r.key = max_int -> (
        try
          go (M.get r.left) min_int max_int 0;
          Ok ()
        with Bad msg -> Error msg)
    | Router _ | Leaf _ -> Error "root is not the max_int sentinel router"
end
