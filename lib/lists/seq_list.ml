(** The sequential sorted linked list [LL] (paper Algorithm 1).

    This is the reference implementation whose interleavings define the
    paper's schedules (§2.2): every read of a [val] or [next] field, every
    write and every node creation goes through the memory backend and is
    therefore a schedule step under {!Vbl_memops.Instr_mem}.  It is {e not}
    safe for concurrent use — that is the point: running it concurrently
    under the schedule framework is how correct and incorrect schedules are
    told apart. *)

module Make (M : Vbl_memops.Mem_intf.S) : Set_intf.S = struct
  let name = "sequential"

  type node =
    | Node of { next : node M.link; value : int M.key }
    | Tail of { value : int M.key }

  type t = { head : node }

  let node_value = function
    | Node n -> M.get_key n.value
    | Tail n -> M.get_key n.value

  (* The successor is each [Node]'s first field, an [M.link]; the tail
     has none (traversals stop at its +inf value), so every link access
     checks its node with [linked]. *)
  let next_of = function Node n -> n.next | Tail _ -> assert false
  let[@inline] linked = function Node _ as n -> n | Tail _ -> assert false

  (* Names are only built for instrumented backends ([M.named]).  The
     link is made before the key, the order the instrumented backends
     number their shadows in. *)
  let make_node value next =
    let line = M.fresh_line () in
    let nm = if M.named then Naming.node value else "" in
    if M.named then M.new_node ~name:nm ~line;
    let next = M.link nm ".next" ~line next in
    Node { next; value = M.key nm ".val" ~line value }

  let create () =
    let tail_line = M.fresh_line () in
    let tn = if M.named then Naming.tail else "" in
    let tail = Tail { value = M.key tn ".val" ~line:tail_line max_int } in
    let head_line = M.fresh_line () in
    let hn = if M.named then Naming.head else "" in
    let next = M.link hn ".next" ~line:head_line tail in
    let head = Node { next; value = M.key hn ".val" ~line:head_line min_int } in
    { head }

  let check_key v =
    if v = min_int || v = max_int then
      invalid_arg "list-based set: key must be strictly between min_int and max_int"

  (* The traversal of Algorithm 1 as closed top-level walks that end in
     the update itself: [prev] trails [curr] until the first value >= v,
     so an update allocates at most its node. *)
  let[@hot] rec insert_walk v prev curr =
    let tval = node_value curr in
    if tval < v then insert_walk v curr (M.get_link (linked curr) next_of)
    else if tval = v then false
    else begin
      let x = make_node v curr in
      M.set_link (linked prev) next_of x;
      true
    end

  let insert t v =
    check_key v;
    insert_walk v t.head (M.get_link (linked t.head) next_of)

  let[@hot] rec remove_walk v prev curr =
    let tval = node_value curr in
    if tval < v then remove_walk v curr (M.get_link (linked curr) next_of)
    else if tval = v then begin
      let tnext = M.get_link (linked curr) next_of in
      M.set_link (linked prev) next_of tnext;
      true
    end
    else false

  let remove t v =
    check_key v;
    remove_walk v t.head (M.get_link (linked t.head) next_of)

  let[@hot] rec contains_walk v curr =
    let tval = node_value curr in
    if tval < v then contains_walk v (M.get_link (linked curr) next_of) else tval = v

  let contains t v =
    check_key v;
    contains_walk v (M.get_link (linked t.head) next_of)

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
            if v <= last && not (v = min_int && steps = 0) then
              Error (Printf.sprintf "values not strictly increasing at %d" v)
            else loop v (M.get_link node next_of) (steps + 1)
    in
    match t.head with
    | Node n when M.get_key n.value = min_int -> loop min_int t.head 0
    | _ -> Error "head sentinel does not store min_int"
end
