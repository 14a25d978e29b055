(** Variant: VBL with {e version-based} validation.

    The paper's §5 notes that its implementation "separates metadata
    (logical deletion and versions) from the structural data".  This
    variant makes the version mechanism concrete: every node carries a
    version counter bumped on each [next] write, updates snapshot the
    version during traversal, and the try-lock validates
    {e version-unchanged} instead of VBL's pointer-identity /
    successor-value checks.

    Compared to {!Vbl_list} this is a strictly more conservative
    validation — an ABA on the successor (remove value, re-insert it)
    changes the version and forces a retry where [lockNextAtValue] would
    have sailed through — so it accepts fewer schedules; and it costs one
    extra write per update.  It is benchmarked as the validation-strategy
    ablation. *)

module Make (M : Vbl_memops.Mem_intf.S) : Set_intf.S = struct
  let name = "vbl-versioned"

  type node =
    | Node of {
        value : int M.cell;
        next : node M.cell;
        version : int M.cell;  (** bumped on every [next] write *)
        deleted : bool M.cell;
        lock : M.lock;
      }
    | Tail of { value : int M.cell; deleted : bool M.cell; lock : M.lock }

  type t = { head : node }

  let node_value = function Node n -> M.get n.value | Tail n -> M.get n.value
  let node_deleted = function Node n -> M.get n.deleted | Tail n -> M.get n.deleted
  let node_lock = function Node n -> n.lock | Tail n -> n.lock
  let next_cell_exn = function Node n -> n.next | Tail _ -> assert false
  let version_exn = function Node n -> M.get n.version | Tail _ -> assert false

  (* The bump must FOLLOW the [next] write.  Traversals snapshot the
     version before reading [next], so a reader that observes the new
     version has also observed the new successor; bumping first opens a
     window where a reader pairs the bumped version with the old [next]
     and the try-lock then validates a stale successor — a lost insert
     (or, via stale pointers, a cycle). *)
  let set_next node target =
    match node with
    | Node n ->
        M.set n.next target;
        M.set n.version (M.get n.version + 1)
    | Tail _ -> assert false

  (* Names are only built for instrumented backends ([M.named]). *)
  let make_node value next =
    let line = M.fresh_line () in
    if M.named then begin
      let nm = Naming.node value in
      M.new_node ~name:nm ~line;
      Node
        {
          value = M.make ~name:(Naming.value_cell nm) ~line value;
          next = M.make ~name:(Naming.next_cell nm) ~line next;
          version = M.make ~name:(nm ^ ".ver") ~line 0;
          deleted = M.make ~name:(Naming.deleted_cell nm) ~line false;
          lock = M.make_lock ~name:(Naming.lock_cell nm) ~line ();
        }
    end
    else
      Node
        {
          value = M.make ~line value;
          next = M.make ~line next;
          version = M.make ~line 0;
          deleted = M.make ~line false;
          lock = M.make_lock ~line ();
        }

  let create () =
    let tl = M.fresh_line () in
    let tail =
      if M.named then
        Tail
          {
            value = M.make ~name:(Naming.value_cell Naming.tail) ~line:tl max_int;
            deleted = M.make ~name:(Naming.deleted_cell Naming.tail) ~line:tl false;
            lock = M.make_lock ~name:(Naming.lock_cell Naming.tail) ~line:tl ();
          }
      else
        Tail
          {
            value = M.make ~line:tl max_int;
            deleted = M.make ~line:tl false;
            lock = M.make_lock ~line:tl ();
          }
    in
    let hl = M.fresh_line () in
    let head =
      if M.named then
        Node
          {
            value = M.make ~name:(Naming.value_cell Naming.head) ~line:hl min_int;
            next = M.make ~name:(Naming.next_cell Naming.head) ~line:hl tail;
            version = M.make ~name:"h.ver" ~line:hl 0;
            deleted = M.make ~name:(Naming.deleted_cell Naming.head) ~line:hl false;
            lock = M.make_lock ~name:(Naming.lock_cell Naming.head) ~line:hl ();
          }
      else
        Node
          {
            value = M.make ~line:hl min_int;
            next = M.make ~line:hl tail;
            version = M.make ~line:hl 0;
            deleted = M.make ~line:hl false;
            lock = M.make_lock ~line:hl ();
          }
    in
    { head }

  let check_key v =
    if v = min_int || v = max_int then
      invalid_arg "list-based set: key must be strictly between min_int and max_int"

  (* Traversal additionally snapshots the version of [prev] at the moment
     it reads [prev.next] — the witness the try-lock revalidates. *)
  let waitfree_traversal t v prev =
    let prev = if node_deleted prev then t.head else prev in
    let rec loop prev pver curr =
      if node_value curr < v then begin
        let cver = version_exn curr in
        loop curr cver (M.get (next_cell_exn curr))
      end
      else (prev, pver, curr)
    in
    let pver = version_exn prev in
    loop prev pver (M.get (next_cell_exn prev))

  (* Version-based try-lock: lock, then require the node live and its
     version unchanged since the traversal's snapshot.  [@acquires]: on
     success the lock is handed to the caller (lint L3 exemption). *)
  let[@acquires] lock_at_version node ver =
    M.lock (node_lock node);
    if (not (node_deleted node)) && version_exn node = ver then true
    else begin
      M.unlock (node_lock node);
      false
    end

  let insert t v =
    check_key v;
    let rec attempt prev =
      let prev, pver, curr = waitfree_traversal t v prev in
      if node_value curr = v then false
      else begin
        let x = make_node v curr in
        if lock_at_version prev pver then begin
          set_next prev x;
          M.unlock (node_lock prev);
          true
        end
        else attempt prev
      end
    in
    attempt t.head

  let remove t v =
    check_key v;
    let rec attempt prev =
      let prev, pver, curr = waitfree_traversal t v prev in
      if node_value curr <> v then false
      else begin
        let cver = version_exn curr in
        if not (lock_at_version prev pver) then attempt prev
        else if not (lock_at_version curr cver) then begin
          M.unlock (node_lock prev);
          attempt prev
        end
        else begin
          (match curr with
          | Node n -> M.set n.deleted true
          | Tail _ -> assert false);
          set_next prev (M.get (next_cell_exn curr));
          M.unlock (node_lock curr);
          M.unlock (node_lock prev);
          true
        end
      end
    in
    attempt t.head

  let contains t v =
    check_key v;
    let rec loop curr =
      if node_value curr < v then loop (M.get (next_cell_exn curr)) else node_value curr = v
    in
    loop t.head

  let fold_range lo hi f init t =
    let rec loop acc node =
      match node with
      | Tail _ -> acc
      | Node n ->
          let v = M.get n.value in
          if v > hi then acc
          else
            let keep = lo <= v && v <> min_int && not (M.get n.deleted) in
            let acc = if keep then f acc v else acc in
            loop acc (M.get n.next)
    in
    loop init t.head

  include Set_intf.Derive (struct
    type nonrec t = t

    let fold_range = fold_range
  end)

  let check_invariants t =
    let rec loop last node steps =
      if steps > 10_000_000 then Error "traversal did not terminate (cycle?)"
      else
        match node with
        | Tail n ->
            if M.get n.value <> max_int then Error "tail sentinel does not store max_int"
            else if M.get n.deleted then Error "tail sentinel is marked deleted"
            else Ok ()
        | Node n ->
            let v = M.get n.value in
            if v <= last && steps > 0 then
              Error (Printf.sprintf "values not strictly increasing at %d" v)
            else if steps > 0 && M.get n.deleted then
              Error (Printf.sprintf "deleted node %d still reachable" v)
            else loop v (M.get n.next) (steps + 1)
    in
    match t.head with
    | Node n when M.get n.value = min_int -> loop min_int t.head 0
    | _ -> Error "head sentinel does not store min_int"
end
