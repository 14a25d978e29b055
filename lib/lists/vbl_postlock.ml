(** Ablation: VBL with the lazy list's {e post-locking} validation.

    Identical to {!Vbl_list} — same node layout, same wait-free traversal
    restarting from [prev], same logical-delete-then-unlink removal — except
    that updates acquire the predecessor's lock {e before} checking whether
    the value is present, exactly like the lazy list's updates.  A failed
    insert (value already there) or failed remove (value absent) therefore
    contends on the lock it will never use.

    Benchmarked against {!Vbl_list} this isolates the contribution of §3.1
    ("validate before locking") from everything else the two algorithms
    share; the paper attributes the Figure 1 gap to precisely this. *)

module Make (M : Vbl_memops.Mem_intf.S) : Set_intf.S = struct
  let name = "vbl-postlock"

  type node =
    | Node of {
        value : int M.cell;
        next : node M.cell;
        deleted : bool M.cell;
        lock : M.lock;
      }
    | Tail of { value : int M.cell; deleted : bool M.cell; lock : M.lock }

  type t = { head : node }

  let node_value = function Node n -> M.get n.value | Tail n -> M.get n.value
  let node_deleted = function Node n -> M.get n.deleted | Tail n -> M.get n.deleted
  let node_lock = function Node n -> n.lock | Tail n -> n.lock
  let next_cell_exn = function Node n -> n.next | Tail _ -> assert false

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
          deleted = M.make ~name:(Naming.deleted_cell nm) ~line false;
          lock = M.make_lock ~name:(Naming.lock_cell nm) ~line ();
        }
    end
    else
      Node
        {
          value = M.make ~line value;
          next = M.make ~line next;
          deleted = M.make ~line false;
          lock = M.make_lock ~line ();
        }

  let make_sentinel value =
    let line = M.fresh_line () in
    if M.named then begin
      let nm = Naming.node value in
      ( line,
        M.make ~name:(Naming.value_cell nm) ~line value,
        M.make ~name:(Naming.deleted_cell nm) ~line false,
        M.make_lock ~name:(Naming.lock_cell nm) ~line () )
    end
    else (line, M.make ~line value, M.make ~line false, M.make_lock ~line ())

  let create () =
    let _, tv, td, tlk = make_sentinel max_int in
    let tail = Tail { value = tv; deleted = td; lock = tlk } in
    let hl, hv, hd, hlk = make_sentinel min_int in
    let next =
      if M.named then M.make ~name:(Naming.next_cell Naming.head) ~line:hl tail
      else M.make ~line:hl tail
    in
    let head = Node { value = hv; next; deleted = hd; lock = hlk } in
    { head }

  let check_key v =
    if v = min_int || v = max_int then
      invalid_arg "list-based set: key must be strictly between min_int and max_int"

  let waitfree_traversal t v prev =
    let prev = if node_deleted prev then t.head else prev in
    let rec loop prev curr =
      if node_value curr < v then loop curr (M.get (next_cell_exn curr)) else (prev, curr)
    in
    loop prev (M.get (next_cell_exn prev))

  (* The ablated discipline: take the lock first, then find out whether the
     operation was even needed. *)
  let insert t v =
    check_key v;
    let rec attempt prev =
      let prev, curr = waitfree_traversal t v prev in
      M.lock (node_lock prev);
      if node_deleted prev || not (M.get (next_cell_exn prev) == curr) then begin
        M.unlock (node_lock prev);
        attempt prev
      end
      else if node_value curr = v then begin
        M.unlock (node_lock prev);
        false
      end
      else begin
        let x = make_node v curr in
        M.set (next_cell_exn prev) x;
        M.unlock (node_lock prev);
        true
      end
    in
    attempt t.head

  let remove t v =
    check_key v;
    let rec attempt prev =
      let prev, curr = waitfree_traversal t v prev in
      M.lock (node_lock prev);
      if node_deleted prev || not (M.get (next_cell_exn prev) == curr) then begin
        M.unlock (node_lock prev);
        attempt prev
      end
      else if node_value curr <> v then begin
        M.unlock (node_lock prev);
        false
      end
      else begin
        M.lock (node_lock curr);
        (* curr is lock-protected and prev.next == curr, so curr is not
           deleted; its successor is stable under its lock. *)
        (match curr with
        | Node n -> M.set n.deleted true
        | Tail _ -> assert false);
        M.set (next_cell_exn prev) (M.get (next_cell_exn curr));
        M.unlock (node_lock curr);
        M.unlock (node_lock prev);
        true
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
