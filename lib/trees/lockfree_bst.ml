(** Lock-free external BST after Ellen, Fatourou, Ruppert and van Breugel
    ("Non-blocking Binary Search Trees", PODC 2010): the CAS baseline
    that completes the tree family the way Harris-Michael completes the
    list family.

    Each internal node carries an [update] descriptor cell besides its
    two child pointers.  An update first {e flags} the node whose child
    pointer it will change (CAS [update] from the clean stamp read during
    its search to a descriptor), then performs the child CAS, then unflags — and any operation that
    runs into a flagged node {e helps} the flagged operation to
    completion before retrying, which is what makes every operation
    lock-free:

    - {b insert} flags the parent ([Iflag]), swings the leaf to a fresh
      one-key subtree, unflags.  The same replace-leaf descriptor
      deletes the last element (the leaf is swung to the empty marker).
    - {b delete} flags the grandparent ([Dflag]), marks the parent
      ([Mark] — the parent is being spliced out and its children are
      frozen forever), swings the grandparent's child pointer to the
      sibling, unflags the grandparent.  If the mark CAS loses, the
      delete backtracks (unflags the grandparent) and retries.
    - {b contains} is a wait-free read-only descent.

    Descriptor identity does the work the original's packed state-bit
    words do: helpers match the descriptor record physically before
    clearing a flag, so no helper can clear another operation's flag.

    Structure, sentinels and naming follow {!Seq_bst} (["R<key>"]
    internal nodes; leaves are immutable and unnamed cells-wise).  Range
    operations derive from the shared double-collect over a window fold
    that, like [contains], reads only immutable keys and child pointers
    and enters only subtrees that can hold a value of [[lo, hi]], so a
    collection costs O(depth + k).  They carry the family-wide
    best-effort contract: agreement of two collections is a
    stabilisation heuristic, not a snapshot certificate, and under churn
    the budget may expire and return the last collection. *)

module Make (M : Vbl_memops.Mem_intf.S) : Vbl_lists.Set_intf.S = struct
  let name = "lockfree-bst"

  module Probe = Vbl_obs.Probe
  module C = Vbl_obs.Metrics

  type node = Leaf of { value : int } | Internal of internal

  and internal = {
    key : int;
    left : node M.cell;
    right : node M.cell;
    update : state M.cell;
  }

  (* The descriptor state of an internal node.  [Iflag]: its child
     pointer is about to swing to [inew].  [Dflag]: its grandchild
     window is being deleted.  [Mark]: the node itself is being spliced
     out and is frozen.  [Clean] carries a stamp allocated fresh by
     every unflag, so two clean states are never physically equal across
     a completed operation — the original's version-carrying update
     word.  Flagging CASes use the state {e read during the search} as
     the expected value; with a shared clean constant instead, a
     flag/swing/unflag by another operation between the search's read
     and the flag CAS would be invisible (ABA) and the child CAS would
     fail silently while the operation reports success. *)
  and state =
    | Clean of Vbl_util.Token.t
    | Iflag of iinfo
    | Dflag of dinfo
    | Mark of dinfo

  and iinfo = { ip : internal; il : node; inew : node }

  and dinfo = {
    dgp : internal;
    dp : internal;
    dp_node : node;  (** [Internal dp] as stored in the tree, for CAS *)
    dl : node;
    dpup : state;  (** [dp.update] as read at search time (a clean stamp) *)
  }

  let clean () = Clean (Vbl_util.Token.fresh ())

  type t = { root : internal; root_node : node; inner : internal }

  (* Leaves are immutable: no cells, only a creation event under
     instrumented backends. *)
  let make_leaf v =
    if M.named then begin
      let line = M.fresh_line () in
      M.new_node ~name:(Vbl_lists.Naming.leaf v) ~line
    end;
    Leaf { value = v }

  let make_internal key left right =
    let line = M.fresh_line () in
    let nm = if M.named then Vbl_lists.Naming.router key else "" in
    if M.named then M.new_node ~name:nm ~line;
    {
      key;
      left = M.field nm ".left" ~line left;
      right = M.field nm ".right" ~line right;
      update = M.field nm ".upd" ~line (clean ());
    }

  let create () =
    let inner =
      make_internal max_int (make_leaf min_int) (make_leaf max_int)
    in
    let root = make_internal max_int (Internal inner) (make_leaf max_int) in
    { root; root_node = Internal root; inner }

  let check_key v =
    if v = min_int || v = max_int then
      invalid_arg "bst: key must be strictly between min_int and max_int"

  let node_key = function Leaf l -> l.value | Internal i -> i.key

  (* Swing the child pointer of [p] that holds [old] to [nw].  The slot
     is recovered from the external-tree routing invariant: a node's key
     routes to its own position. *)
  let cas_child p old nw =
    let c = if node_key old < p.key then p.left else p.right in
    ignore (M.cas c old nw)

  (* Membership: wait-free, allocation-free descent.  Every descent
     below counts one hop per child slot it reads in a register and
     flushes the sum in one probe call, as the list traversals do. *)
  let[@hot] rec contains_walk n v hops =
    match n with
    | Leaf l ->
        if !Probe.enabled then Probe.add C.Traversal_steps hops;
        l.value = v
    | Internal i ->
        contains_walk (M.get (if v < i.key then i.left else i.right)) v (hops + 1)

  let contains t v =
    check_key v;
    contains_walk t.root_node v 0

  (* Helping.  Descriptor records are created once per attempt, so
     matching them physically before clearing a flag is precise: no
     helper can clear a flag on behalf of a different operation. *)
  let rec help = function
    | Clean _ -> ()
    | Iflag i -> help_replace i
    | Mark d -> help_marked d
    | Dflag d -> ignore (help_delete d)

  and help_replace (i : iinfo) =
    cas_child i.ip i.il i.inew;
    match M.get i.ip.update with
    | Iflag i' as cur when i' == i -> ignore (M.cas i.ip.update cur (clean ()))
    | _ -> ()

  and help_marked (d : dinfo) =
    (* The sibling read is safe: [dp] is marked, its children are frozen. *)
    let sibling_cell =
      if node_key d.dl < d.dp.key then d.dp.right else d.dp.left
    in
    cas_child d.dgp d.dp_node (M.get sibling_cell);
    match M.get d.dgp.update with
    | Dflag d' as cur when d' == d -> ignore (M.cas d.dgp.update cur (clean ()))
    | _ -> ()

  and help_delete (d : dinfo) =
    let m = Mark d in
    if M.cas d.dp.update d.dpup m then begin
      help_marked d;
      true
    end
    else
      match M.get d.dp.update with
      | Mark d' when d' == d ->
          (* Another helper installed the mark for this very delete. *)
          help_marked d;
          true
      | cur ->
          help cur;
          (* Backtrack: clear our own grandparent flag and retry. *)
          (match M.get d.dgp.update with
          | Dflag d' as c when d' == d -> ignore (M.cas d.dgp.update c (clean ()))
          | _ -> ());
          false

  (* Update descents: closed top-level recursions with explicit
     parameters, as the lists' walks do, so no descent allocates.  Each
     carries the parent [p] of the current node [n] and the [update] it
     read from [p] (a remove also the grandparent [gp], its update and
     [p] as the stored node [pn]), and reads a node's update before its
     child pointer, the order the flagging CASes rely on.  At the leaf it
     hands over to the update proper, which builds the new nodes and the
     descriptor; every restart re-enters the walk at the root. *)
  let[@hot] rec insert_walk t v p pup n hops =
    match n with
    | Internal i ->
        let up = M.get i.update in
        insert_walk t v i up (M.get (if v < i.key then i.left else i.right)) (hops + 1)
    | Leaf l ->
        if !Probe.enabled then Probe.add C.Traversal_steps hops;
        if l.value = v then false else replace_leaf t v p pup n

  (* Swing leaf [l] under [p] to a one-key subtree holding [v]. *)
  and replace_leaf t v p pup l =
    match pup with
    | Clean _ ->
        let lv = node_key l in
        let nl = make_leaf v in
        let ni = if v < lv then make_internal lv nl l else make_internal v l nl in
        let i = { ip = p; il = l; inew = Internal ni } in
        if M.cas p.update pup (Iflag i) then begin
          help_replace i;
          true
        end
        else begin
          help (M.get p.update);
          insert_restart t v
        end
    | st ->
        help st;
        insert_restart t v

  and insert_restart t v =
    Probe.count C.Restarts;
    insert_attempt t v

  and[@hot] insert_attempt t v =
    let rootup = M.get t.root.update in
    insert_walk t v t.root rootup (M.get t.root.left) 1

  let insert t v =
    check_key v;
    insert_attempt t v

  let[@hot] rec remove_walk t v gp gpup p pn pup n hops =
    match n with
    | Internal i ->
        let up = M.get i.update in
        remove_walk t v p pup i n up
          (M.get (if v < i.key then i.left else i.right))
          (hops + 1)
    | Leaf l ->
        if !Probe.enabled then Probe.add C.Traversal_steps hops;
        if l.value <> v then false
        else if p == t.inner then empty_inner t v p pup n
        else delete_leaf t v gp gpup p pn pup n

  (* Last element: swing the leaf back to the empty marker with a
     replace-leaf descriptor on the never-removed inner sentinel. *)
  and empty_inner t v p pup l =
    match pup with
    | Clean _ ->
        let i = { ip = p; il = l; inew = make_leaf min_int } in
        if M.cas p.update pup (Iflag i) then begin
          help_replace i;
          true
        end
        else begin
          help (M.get p.update);
          remove_restart t v
        end
    | st ->
        help st;
        remove_restart t v

  and delete_leaf t v gp gpup p pn pup l =
    match (gpup, pup) with
    | Clean _, Clean _ ->
        let d = { dgp = gp; dp = p; dp_node = pn; dl = l; dpup = pup } in
        if M.cas gp.update gpup (Dflag d) then begin
          if help_delete d then true else remove_restart t v
        end
        else begin
          help (M.get gp.update);
          remove_restart t v
        end
    | Clean _, st | st, _ ->
        help st;
        remove_restart t v

  and remove_restart t v =
    Probe.count C.Restarts;
    remove_attempt t v

  and[@hot] remove_attempt t v =
    let rootup = M.get t.root.update in
    remove_walk t v t.root rootup t.root t.root_node rootup (M.get t.root.left) 1

  let remove t v =
    check_key v;
    remove_attempt t v

  (* In-order over the leaves of [lo, hi]: values below an internal
     node's key route left and the rest right, so a subtree is entered
     only if it can hold a value of the window, and a window costs
     O(depth + k).  Sentinel leaves contribute nothing. *)
  let fold_range lo hi f init t =
    let rec go acc n =
      match n with
      | Leaf { value = v } ->
          if lo <= v && v <= hi && v <> min_int && v <> max_int then f acc v else acc
      | Internal i ->
          let acc = if lo < i.key then go acc (M.get i.left) else acc in
          if i.key <= hi then go acc (M.get i.right) else acc
    in
    go init t.root_node

  include Vbl_lists.Set_intf.Derive (struct
    type nonrec t = t

    let fold_range = fold_range
  end)

  let check_invariants t =
    let exception Bad of string in
    let rec go n lo hi depth =
      if depth > 1_000_000 then raise (Bad "descent did not terminate (cycle?)");
      match n with
      | Leaf l ->
          let v = l.value in
          if not (lo <= v && v < hi) && not (v = max_int && hi = max_int) then
            raise (Bad (Printf.sprintf "leaf %d outside range [%d, %d)" v lo hi))
      | Internal i ->
          (match M.get i.update with
          | Clean _ -> ()
          | Iflag _ | Dflag _ | Mark _ ->
              raise
                (Bad (Printf.sprintf "internal %d still flagged at quiescence" i.key)));
          let k = i.key in
          if k <= lo || k > hi then
            raise (Bad (Printf.sprintf "internal key %d outside (%d, %d]" k lo hi));
          go (M.get i.left) lo k (depth + 1);
          go (M.get i.right) k hi (depth + 1)
    in
    if t.root.key <> max_int then Error "root is not the max_int sentinel"
    else
      try
        (match M.get t.root.left with
        | Internal i when i == t.inner -> ()
        | _ -> raise (Bad "inner sentinel detached from the root"));
        go (M.get t.root.left) min_int max_int 0;
        Ok ()
      with Bad msg -> Error msg
end
