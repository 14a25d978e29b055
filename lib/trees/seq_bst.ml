(** Sequential external (leaf-oriented) binary search tree — the
    tree-shaped analogue of the paper's sequential list [LL]: routers
    carry keys and route, leaves carry the actual set elements, and every
    operation is a root-to-leaf descent followed by at most one or two
    pointer writes.

    Routing convention: at a router with key [k], values [< k] go left,
    values [>= k] go right.  Two sentinel routers (both keyed [max_int])
    sit above the real tree so every real leaf has a proper parent and
    grandparent; sentinel leaves store [min_int]/[max_int] and are never
    removed.

    Not safe for concurrent use — like {!Vbl_lists.Seq_list} it exists as
    the unsynchronised baseline and as the structure the concurrent
    variants refine. *)

module Make (M : Vbl_memops.Mem_intf.S) : Vbl_lists.Set_intf.S = struct
  let name = "sequential-bst"

  type node =
    | Leaf of { value : int M.cell }
    | Router of {
        key : int M.cell;
        left : node M.cell;
        right : node M.cell;
        deleted : bool M.cell;
        lock : M.lock;
      }

  type t = {
    root : node;  (* sentinel router, key = max_int, never modified *)
    inner : node;  (* second sentinel under root.left, never spliced *)
  }

  let leaf_name v =
    if v = min_int then "Lmin" else if v = max_int then "Lmax" else "L" ^ string_of_int v

  (* Names are only built for instrumented backends ([M.named]). *)
  let make_leaf value =
    let line = M.fresh_line () in
    if M.named then begin
      let nm = leaf_name value in
      M.new_node ~name:nm ~line;
      Leaf { value = M.make ~name:(nm ^ ".val") ~line value }
    end
    else Leaf { value = M.make ~line value }

  let router_name k = "R" ^ if k = max_int then "max" else string_of_int k

  let make_router key left right =
    let line = M.fresh_line () in
    if M.named then begin
      let nm = router_name key in
      M.new_node ~name:nm ~line;
      Router
        {
          key = M.make ~name:(nm ^ ".key") ~line key;
          left = M.make ~name:(nm ^ ".left") ~line left;
          right = M.make ~name:(nm ^ ".right") ~line right;
          deleted = M.make ~name:(nm ^ ".del") ~line false;
          lock = M.make_lock ~name:(nm ^ ".lock") ~line ();
        }
    end
    else
      Router
        {
          key = M.make ~line key;
          left = M.make ~line left;
          right = M.make ~line right;
          deleted = M.make ~line false;
          lock = M.make_lock ~line ();
        }

  let create () =
    let inner = make_router max_int (make_leaf min_int) (make_leaf max_int) in
    { root = make_router max_int inner (make_leaf max_int); inner }

  let check_key v =
    if v = min_int || v = max_int then
      invalid_arg "bst: key must be strictly between min_int and max_int"


  (* Which child does value [v] route to? *)
  let child_cell node v =
    match node with
    | Router r -> if v < M.get r.key then r.left else r.right
    | Leaf _ -> assert false

  (* Descend to the leaf for [v], returning (grandparent, parent, leaf).
     The sentinels guarantee a router parent and grandparent: root.left is
     always the inner sentinel, so the degenerate case is p = inner. *)
  let locate t v =
    let rec go g p l =
      match l with Leaf _ -> (g, p, l) | Router _ -> go p l (M.get (child_cell l v))
    in
    go t.root t.inner (M.get (child_cell t.inner v))

  let leaf_value = function Leaf l -> M.get l.value | Router _ -> assert false

  let insert t v =
    check_key v;
    let _, p, l = locate t v in
    let lv = leaf_value l in
    if lv = v then false
    else begin
      (* Replace leaf [l] with a router over {l, new leaf}. *)
      let nl = make_leaf v in
      let small, big, key = if v < lv then (nl, l, lv) else (l, nl, v) in
      M.set (child_cell p v) (make_router key small big);
      true
    end

  let remove t v =
    check_key v;
    let g, p, l = locate t v in
    if leaf_value l <> v then false
    else if p == t.inner then begin
      (* The last real leaf sits directly under the inner sentinel, which
         must never be spliced: put back the empty-tree marker instead. *)
      M.set (child_cell p v) (make_leaf min_int);
      true
    end
    else begin
      (* Splice out parent [p]: its other child replaces it under [g]. *)
      let sibling =
        match p with
        | Router r -> if v < M.get r.key then M.get r.right else M.get r.left
        | Leaf _ -> assert false
      in
      (match p with Router r -> M.set r.deleted true | Leaf _ -> assert false);
      M.set (child_cell g v) sibling;
      true
    end

  let contains t v =
    check_key v;
    let _, _, l = locate t v in
    leaf_value l = v

  (* In-order over the leaves of [lo, hi]: values below a router's key
     route left and the rest right, so a subtree is entered only if it
     can hold a value of the window, and a window costs O(depth + k).
     Sentinel leaves contribute nothing. *)
  let fold_range lo hi f init t =
    let rec go acc node =
      match node with
      | Leaf l ->
          let v = M.get l.value in
          if lo <= v && v <= hi && v <> min_int && v <> max_int then f acc v else acc
      | Router r ->
          let k = M.get r.key in
          let acc = if lo < k then go acc (M.get r.left) else acc in
          if k <= hi then go acc (M.get r.right) else acc
    in
    go init t.root

  include Vbl_lists.Set_intf.Derive (struct
    type nonrec t = t

    let fold_range = fold_range
  end)

  (* Structural invariants: external shape, key ranges respected, no
     reachable deleted router, leaves strictly ordered left-to-right. *)
  let check_invariants t =
    let exception Bad of string in
    let rec go node lo hi depth =
      if depth > 1_000_000 then raise (Bad "descent did not terminate (cycle?)");
      match node with
      | Leaf l ->
          let v = M.get l.value in
          if not (lo <= v && v < hi) && not (v = max_int && hi = max_int) then
            raise (Bad (Printf.sprintf "leaf %d outside range [%d, %d)" v lo hi))
      | Router r ->
          if M.get r.deleted then raise (Bad "reachable deleted router");
          let k = M.get r.key in
          if k <= lo || k > hi then
            raise (Bad (Printf.sprintf "router key %d outside (%d, %d]" k lo hi));
          go (M.get r.left) lo k (depth + 1);
          go (M.get r.right) k hi (depth + 1)
    in
    match t.root with
    | Router r when M.get r.key = max_int -> (
        try
          go (M.get r.left) min_int max_int 0;
          Ok ()
        with Bad msg -> Error msg)
    | Router _ | Leaf _ -> Error "root is not the max_int sentinel router"
end
