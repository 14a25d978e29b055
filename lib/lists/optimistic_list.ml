(** Optimistic locking list (Herlihy & Shavit ch. 9.6).

    Traversals take no locks; an operation locks the two candidate nodes and
    then {e re-traverses from the head} to validate that the predecessor is
    still reachable and still points at the candidate.  Without logical
    deletion there is no cheaper validation, and — unlike the lazy list —
    even [contains] must lock and validate, which is why the lazy list
    superseded it.  Included as the stepping stone between hand-over-hand
    and lazy in the concurrency-vs-overhead story the paper tells. *)

module Make (M : Vbl_memops.Mem_intf.S) : Set_intf.S = struct
  let name = "optimistic"

  type node =
    | Node of { next : node M.link; value : int M.key; lock : M.lock }
    | Tail of { lock : M.lock; value : int M.key }

  type t = { head : node }

  (* The tail keeps its key at a node's field index, so reading it makes
     no tag test. *)
  let node_value = function Node n -> M.get_key n.value | Tail n -> M.get_key n.value
  let node_lock = function Node n -> n.lock | Tail n -> n.lock
  (* The successor is each [Node]'s first field, an [M.link]; the tail
     has none, so every link access checks its node with [linked]. *)
  let next_of = function Node n -> n.next | Tail _ -> assert false
  let[@inline] linked = function Node _ as n -> n | Tail _ -> assert false

  (* A node's cells are made lock first and value last, the order the
     instrumented backends number their shadows in. *)
  let build nm ~line value next =
    let lock = M.field_lock nm ".lock" ~line () in
    let next = M.link nm ".next" ~line next in
    Node { next; value = M.key nm ".val" ~line value; lock }

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
    let tail = Tail { lock; value = M.key tn ".val" ~line:tl max_int } in
    let hl = M.fresh_line () in
    let hn = if M.named then Naming.head else "" in
    let head = build hn ~line:hl min_int tail in
    { head }

  let check_key v =
    if v = min_int || v = max_int then
      invalid_arg "list-based set: key must be strictly between min_int and max_int"

  let locate t v =
    let rec loop prev curr =
      if node_value curr < v then loop curr (M.get_link (linked curr) next_of) else (prev, curr)
    in
    let curr = M.get_link (linked t.head) next_of in
    loop t.head curr

  (* Validation by re-traversal (Herlihy & Shavit fig. 9.12): [prev] must
     still be reachable from the head and still point at [curr]. *)
  let validate t prev curr =
    let prev_value = node_value prev in
    let rec walk node =
      if node == prev then M.get_link (linked prev) next_of == curr
      else if node_value node < prev_value then walk (M.get_link (linked node) next_of)
      else false
    in
    walk t.head

  let rec with_validated t v (k : node -> node -> int -> bool) =
    let prev, curr = locate t v in
    M.lock (node_lock prev);
    M.lock (node_lock curr);
    if validate t prev curr then begin
      let result = k prev curr (node_value curr) in
      M.unlock (node_lock curr);
      M.unlock (node_lock prev);
      result
    end
    else begin
      M.unlock (node_lock curr);
      M.unlock (node_lock prev);
      with_validated t v k
    end

  let insert t v =
    check_key v;
    with_validated t v (fun prev curr tval ->
        if tval = v then false
        else begin
          M.set_link (linked prev) next_of (make_node v curr);
          true
        end)

  let remove t v =
    check_key v;
    with_validated t v (fun prev curr tval ->
        if tval = v then begin
          M.set_link (linked prev) next_of (M.get_link (linked curr) next_of);
          true
        end
        else false)

  let contains t v =
    check_key v;
    with_validated t v (fun _ _ tval -> tval = v)

  (* The present keys of [lo, hi] consed onto [acc], descending: a
     closed walk, so a collection allocates only its cons cells. *)
  let rec collect_walk lo hi acc node =
    match node with
    | Tail _ -> acc
    | Node n ->
        let v = M.get_key n.value in
        if v > hi then acc
        else
          let acc = if lo <= v && v <> min_int then Set_intf.keep v acc else acc in
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
            if M.get_key n.value = max_int then Ok ()
            else Error "tail sentinel does not store max_int"
        | Node n ->
            let v = M.get_key n.value in
            if v <= last && steps > 0 then
              Error (Printf.sprintf "values not strictly increasing at %d" v)
            else loop v (M.get_link node next_of) (steps + 1)
    in
    match t.head with
    | Node n when M.get_key n.value = min_int -> loop min_int t.head 0
    | _ -> Error "head sentinel does not store min_int"
end
