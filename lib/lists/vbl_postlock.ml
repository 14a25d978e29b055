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
        next : node M.link;
        value : int M.key;
        deleted : bool M.cell;
        lock : M.lock;
      }
    | Tail of { value : int M.key; deleted : bool M.cell; lock : M.lock }

  type t = { head : node }

  let node_value = function Node n -> M.get_key n.value | Tail n -> M.get_key n.value
  let node_deleted = function Node n -> M.get n.deleted | Tail n -> M.get n.deleted
  let node_lock = function Node n -> n.lock | Tail n -> n.lock
  (* The successor is each [Node]'s first field, an [M.link]; the tail
     has none, so every link access checks its node with [linked]. *)
  let next_of = function Node n -> n.next | Tail _ -> assert false
  let[@inline] linked = function Node _ as n -> n | Tail _ -> assert false

  (* Names are only built for instrumented backends ([M.named]).  Cells
     are made lock first and value last, the order the instrumented
     backends number their shadows in. *)
  let make_node value next =
    let line = M.fresh_line () in
    let nm = if M.named then Naming.node value else "" in
    if M.named then M.new_node ~name:nm ~line;
    let lock = M.field_lock nm ".lock" ~line () in
    let deleted = M.field nm ".del" ~line false in
    let next = M.link nm ".next" ~line next in
    Node { next; value = M.key nm ".val" ~line value; deleted; lock }

  let make_sentinel value =
    let line = M.fresh_line () in
    let nm = if M.named then Naming.node value else "" in
    ( line,
      M.key nm ".val" ~line value,
      M.field nm ".del" ~line false,
      M.field_lock nm ".lock" ~line () )

  let create () =
    let _, tv, td, tlk = make_sentinel max_int in
    let tail = Tail { value = tv; deleted = td; lock = tlk } in
    let hl, hv, hd, hlk = make_sentinel min_int in
    let hn = if M.named then Naming.head else "" in
    let next = M.link hn ".next" ~line:hl tail in
    let head = Node { next; value = hv; deleted = hd; lock = hlk } in
    { head }

  let check_key v =
    if v = min_int || v = max_int then
      invalid_arg "list-based set: key must be strictly between min_int and max_int"

  let waitfree_traversal t v prev =
    let prev = if node_deleted prev then t.head else prev in
    let rec loop prev curr =
      if node_value curr < v then loop curr (M.get_link (linked curr) next_of) else (prev, curr)
    in
    loop prev (M.get_link (linked prev) next_of)

  (* The ablated discipline: take the lock first, then find out whether the
     operation was even needed. *)
  let insert t v =
    check_key v;
    let rec attempt prev =
      let prev, curr = waitfree_traversal t v prev in
      M.lock (node_lock prev);
      if node_deleted prev || not (M.get_link (linked prev) next_of == curr) then begin
        M.unlock (node_lock prev);
        attempt prev
      end
      else if node_value curr = v then begin
        M.unlock (node_lock prev);
        false
      end
      else begin
        let x = make_node v curr in
        M.set_link (linked prev) next_of x;
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
      if node_deleted prev || not (M.get_link (linked prev) next_of == curr) then begin
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
        M.set_link (linked prev) next_of (M.get_link (linked curr) next_of);
        M.unlock (node_lock curr);
        M.unlock (node_lock prev);
        true
      end
    in
    attempt t.head

  (* A closed walk: a local loop over [v] would be a closure allocated
     on every call. *)
  let[@hot] rec contains_walk v curr =
    if node_value curr < v then contains_walk v (M.get_link (linked curr) next_of)
    else node_value curr = v

  let contains t v =
    check_key v;
    contains_walk v t.head

  let fold_range lo hi f init t =
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
