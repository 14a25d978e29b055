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
        next : node M.link;
        value : int M.key;
        deleted : bool M.cell;
        version : int M.cell;  (** bumped on every [next] write *)
        lock : M.lock;
      }
    | Tail of { lock : M.lock; value : int M.key; deleted : bool M.cell }

  type t = { head : node }

  (* The tail keeps its key and flag at a node's field indices, so
     reading either makes no tag test. *)
  let node_value = function Node n -> M.get_key n.value | Tail n -> M.get_key n.value
  let node_deleted = function Node n -> M.get n.deleted | Tail n -> M.get n.deleted
  let node_lock = function Node n -> n.lock | Tail n -> n.lock
  (* The successor is each [Node]'s first field, an [M.link]; the tail
     has none, so every link access checks its node with [linked]. *)
  let next_of = function Node n -> n.next | Tail _ -> assert false
  let[@inline] linked = function Node _ as n -> n | Tail _ -> assert false
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
        M.set_link node next_of target;
        M.set n.version (M.get n.version + 1)
    | Tail _ -> assert false

  (* A node's cells are made lock first and value last, the order the
     instrumented backends number their shadows in. *)
  let build nm ~line value next =
    let lock = M.field_lock nm ".lock" ~line () in
    let deleted = M.field nm ".del" ~line false in
    let version = M.field nm ".ver" ~line 0 in
    let next = M.link nm ".next" ~line next in
    Node { next; value = M.key nm ".val" ~line value; deleted; version; lock }

  (* Names are only built for instrumented backends ([M.named]). *)
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
    { head }

  let check_key v =
    if v = min_int || v = max_int then
      invalid_arg "list-based set: key must be strictly between min_int and max_int"

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

  (* The updates are closed walks, as VBL's are: a traversal returning a
     (prev, pver, curr) tuple, or a retry loop closing over [v], would
     allocate on every operation.  A walk carries the version of [prev]
     it snapshot when it read [prev.next] -- the witness the try-lock
     revalidates -- and a restart resumes from [prev]. *)
  let[@hot] rec insert_attempt t v prev =
    let prev = if node_deleted prev then t.head else prev in
    let pver = version_exn prev in
    insert_walk t v prev pver (M.get_link (linked prev) next_of)

  and[@hot] insert_walk t v prev pver curr =
    if node_value curr < v then begin
      let cver = version_exn curr in
      insert_walk t v curr cver (M.get_link (linked curr) next_of)
    end
    else if node_value curr = v then false
    else begin
      let x = make_node v curr in
      if lock_at_version prev pver then begin
        set_next prev x;
        M.unlock (node_lock prev);
        true
      end
      else insert_attempt t v prev
    end

  let insert t v =
    check_key v;
    insert_attempt t v t.head

  let[@hot] rec remove_attempt t v prev =
    let prev = if node_deleted prev then t.head else prev in
    let pver = version_exn prev in
    remove_walk t v prev pver (M.get_link (linked prev) next_of)

  and[@hot] remove_walk t v prev pver curr =
    if node_value curr < v then begin
      let cver = version_exn curr in
      remove_walk t v curr cver (M.get_link (linked curr) next_of)
    end
    else if node_value curr <> v then false
    else begin
      let cver = version_exn curr in
      if not (lock_at_version prev pver) then remove_attempt t v prev
      else if not (lock_at_version curr cver) then begin
        M.unlock (node_lock prev);
        remove_attempt t v prev
      end
      else begin
        (match curr with
        | Node n -> M.set n.deleted true
        | Tail _ -> assert false);
        set_next prev (M.get_link (linked curr) next_of);
        M.unlock (node_lock curr);
        M.unlock (node_lock prev);
        true
      end
    end

  let remove t v =
    check_key v;
    remove_attempt t v t.head

  (* A closed walk: a local loop over [v] would be a closure allocated
     on every call. *)
  let[@hot] rec contains_walk v curr =
    if node_value curr < v then contains_walk v (M.get_link (linked curr) next_of)
    else node_value curr = v

  let contains t v =
    check_key v;
    contains_walk v t.head

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

  let collect_range lo hi acc t = collect_walk lo hi acc t.head

  include Set_intf.Derive (struct
    type nonrec t = t

    let collect_range = collect_range
  end)

  let check_invariants t =
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
              Error (Printf.sprintf "deleted node %d still reachable" v)
            else loop v (M.get_link node next_of) (steps + 1)
    in
    match t.head with
    | Node n when M.get_key n.value = min_int -> loop min_int t.head 0
    | _ -> Error "head sentinel does not store min_int"
end
