(** The leaf-oriented (external) BSTs, written once: [Sequential],
    [Coarse] and [Lazy].  The node, its builders, the sentinels, the
    collector and the invariants are shared, and each set gives only
    its descents.  Every operation is a root-to-leaf descent followed by
    at most one or two pointer writes, the tree-shaped analogue of the
    paper's sequential list [LL].  A router carries a [deleted] flag and
    a lock, which only the lazy tree uses. *)

module Make (M : Vbl_memops.Mem_intf.S) : sig
  module Sequential : Vbl_lists.Set_intf.S
  module Coarse : Vbl_lists.Set_intf.S
  module Lazy : Vbl_lists.Set_intf.S
end = struct
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

  (* Two sentinel routers, both keyed [max_int], sit above the real tree
     so every real leaf has a proper parent and grandparent; sentinel
     leaves store [min_int]/[max_int] and are never removed. *)
  type t = {
    root : node;  (* sentinel router, key = max_int, never modified *)
    inner : node;  (* second sentinel under root.left, never spliced *)
  }

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

  let check_key v =
    if v = min_int || v = max_int then
      invalid_arg "bst: key must be strictly between min_int and max_int"

  (* Which child does value [v] route to?  At a router with key [k],
     values [< k] go left and values [>= k] go right. *)
  let child_cell node v =
    match node with
    | Router r -> if v < M.get_key r.key then r.left else r.right
    | Leaf _ -> assert false

  let router_lock = function Router r -> r.lock | Leaf _ -> assert false
  let router_deleted = function Router r -> M.get r.deleted | Leaf _ -> assert false
  let leaf_value = function Leaf l -> M.get_key l.value | Router _ -> assert false

  (* Each operation descends to the leaf [l] for [v] in a closed
     top-level recursion that carries the leaf's parent [p] (and, for a
     remove, its grandparent [g]) as explicit parameters and ends in the
     update itself, so a descent allocates nothing.  Every descent,
     restarts included, starts at the inner sentinel with the root as
     its parent, so [p] and [g] are always routers by the time a leaf is
     reached; the degenerate case is [p = inner]. *)

  (* {1 Sequential} *)

  let[@hot] rec seq_insert_walk v p l =
    match l with
    | Router _ -> seq_insert_walk v l (M.get (child_cell l v))
    | Leaf _ ->
        let lv = leaf_value l in
        if lv = v then false
        else begin
          (* Replace leaf [l] with a router over {l, new leaf}. *)
          let nl = make_leaf v in
          M.set (child_cell p v)
            (if v < lv then make_router lv nl l else make_router v l nl);
          true
        end

  let[@hot] rec seq_remove_walk t v g p l =
    match l with
    | Router _ -> seq_remove_walk t v p l (M.get (child_cell l v))
    | Leaf _ ->
        if leaf_value l <> v then false
        else if p == t.inner then begin
          (* The last real leaf sits directly under the inner sentinel,
             which must never be spliced: put back the empty-tree marker
             instead. *)
          M.set (child_cell p v) (make_leaf min_int);
          true
        end
        else begin
          (* Splice out parent [p]: its other child replaces it under [g]. *)
          let sibling =
            match p with
            | Router r -> if v < M.get_key r.key then M.get r.right else M.get r.left
            | Leaf _ -> assert false
          in
          (match p with Router r -> M.set r.deleted true | Leaf _ -> assert false);
          M.set (child_cell g v) sibling;
          true
        end

  let[@hot] rec seq_contains_walk v l =
    match l with
    | Router _ -> seq_contains_walk v (M.get (child_cell l v))
    | Leaf _ -> leaf_value l = v

  (* {1 Lazy} Spliced routers are marked, so a validation tells a stale
     router from a live one without re-descending; leaves are immutable,
     so every validation is one physical equality on a child pointer.  A
     descent counts one hop per child slot it reads in a register and
     flushes the sum in one probe call. *)

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

  let[@hot] rec lazy_insert_walk t v p l hops =
    match l with
    | Router _ -> lazy_insert_walk t v l (M.get (child_cell l v)) (hops + 1)
    | Leaf _ ->
        if !Probe.enabled then Probe.add C.Traversal_steps hops;
        (* Lazy discipline: lock and validate the window first, decide
           the outcome only under the lock. *)
        if not (lock_child_at p v l) then begin
          Probe.count C.Restarts;
          lazy_insert_walk t v t.root t.inner 0
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

  let[@hot] rec lazy_remove_walk t v g p l hops =
    match l with
    | Router _ -> lazy_remove_walk t v p l (M.get (child_cell l v)) (hops + 1)
    | Leaf _ ->
        if !Probe.enabled then Probe.add C.Traversal_steps hops;
        if p == t.inner then begin
          (* Under the never-spliced inner sentinel: replace the leaf with
             the empty-tree marker if it holds [v]. *)
          if not (lock_child_at p v l) then lazy_remove_restart t v
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
        else if not (lock_child_at g v p) then lazy_remove_restart t v
        else if not (lock_child_at p v l) then begin
          M.unlock (router_lock g);
          lazy_remove_restart t v
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

  and[@hot] lazy_remove_restart t v =
    Probe.count C.Restarts;
    lazy_remove_walk t v t.root t.root t.inner 0

  let[@hot] rec lazy_contains_walk v l hops =
    match l with
    | Router _ -> lazy_contains_walk v (M.get (child_cell l v)) (hops + 1)
    | Leaf _ ->
        if !Probe.enabled then Probe.add C.Traversal_steps hops;
        leaf_value l = v

  (* In-order over the leaves of [lo, hi], consed onto [acc]
     descending: values below a router's key route left and the rest
     right, so a subtree is entered only if it can hold a value of the
     window, and a window costs O(depth + k).  Sentinel leaves
     contribute nothing.  A closed walk: a collection allocates only
     its cons cells. *)
  let rec collect_walk lo hi acc node =
    match node with
    | Leaf l ->
        let v = M.get_key l.value in
        if lo <= v && v <= hi && v <> min_int && v <> max_int then
          Vbl_lists.Set_intf.keep v acc
        else acc
    | Router r ->
        let k = M.get_key r.key in
        let acc = if lo < k then collect_walk lo hi acc (M.get r.left) else acc in
        if k <= hi then collect_walk lo hi acc (M.get r.right) else acc

  (* The point operations of a set by an op tag: each checks the key,
     then runs its own descent from the inner sentinel. *)
  type op = Insert | Remove | Contains

  let seq_run op t v =
    check_key v;
    match op with
    | Insert -> seq_insert_walk v t.root t.inner
    | Remove -> seq_remove_walk t v t.root t.root t.inner
    | Contains -> seq_contains_walk v t.inner

  let lazy_run op t v =
    check_key v;
    match op with
    | Insert -> lazy_insert_walk t v t.root t.inner 0
    | Remove -> lazy_remove_walk t v t.root t.root t.inner 0
    | Contains -> lazy_contains_walk v t.inner 0

  (* Everything but the name and the point operations. *)
  module Common = struct
    type nonrec t = t

    let create () =
      let inner = make_router max_int (make_leaf min_int) (make_leaf max_int) in
      { root = make_router max_int inner (make_leaf max_int); inner }

    include Vbl_lists.Set_intf.Derive (struct
      type nonrec t = t

      let collect_range lo hi acc t = collect_walk lo hi acc t.root
    end)

    (* Structural invariants: external shape, key ranges respected, no
       reachable deleted router, no router left locked, leaves strictly
       ordered left-to-right. *)
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

  module Sequential = struct
    include Common

    let name = "sequential-bst"
    let insert t v = seq_run Insert t v
    let remove t v = seq_run Remove t v
    let contains t v = seq_run Contains t v
  end

  (* Every operation but the quiescent [to_list], [size] and
     [check_invariants] runs under the global lock, reads included: the
     sequential descents are not built for concurrent traversal (a walk
     racing a remove's splice can miss live keys).  A point operation
     releases the lock on its exception path too (a rejected key). *)
  module Coarse = struct
    let name = "coarse-bst"

    type t = { lock : M.lock; tree : Sequential.t }

    let create () =
      let line = M.fresh_line () in
      { lock = M.make_lock ~name:"bst.lock" ~line (); tree = Sequential.create () }

    let locked op t v =
      M.lock t.lock;
      match seq_run op t.tree v with
      | r ->
          M.unlock t.lock;
          r
      | exception e ->
          M.unlock t.lock;
          raise e

    let insert t v = locked Insert t v
    let remove t v = locked Remove t v
    let contains t v = locked Contains t v

    (* One collection under the global lock is a snapshot, so this is
       the one tree whose [range_query] is linearizable. *)
    let collect_locked lo hi t =
      M.lock t.lock;
      let keys = collect_walk lo hi [] t.tree.root in
      M.unlock t.lock;
      keys

    let range_query t lo hi = if lo > hi then [] else List.rev (collect_locked lo hi t)
    let approx_size t = List.length (collect_locked min_int max_int t)

    (* [f] runs on the collected list after the lock is released, so it
       may call back into the set. *)
    let fold f init t = List.fold_left f init (List.rev (collect_locked min_int max_int t))
    let iter f t = List.iter f (List.rev (collect_locked min_int max_int t))
    let to_list t = Sequential.to_list t.tree
    let size t = Sequential.size t.tree
    let check_invariants t = Sequential.check_invariants t.tree
  end

  module Lazy = struct
    include Common

    let name = "lazy-bst"
    let insert t v = lazy_run Insert t v
    let remove t v = lazy_run Remove t v
    let contains t v = lazy_run Contains t v
  end
end
