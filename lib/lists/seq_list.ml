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
    | Node of { value : int M.cell; next : node M.cell }
    | Tail of { value : int M.cell }

  type t = { head : node }

  let node_value = function
    | Node n -> M.get n.value
    | Tail n -> M.get n.value

  let next_cell_exn = function
    | Node n -> n.next
    | Tail _ -> assert false (* traversals stop at the tail's +inf value *)

  (* Names are only built for instrumented backends ([M.named]). *)
  let make_node value next =
    let line = M.fresh_line () in
    let nm = if M.named then Naming.node value else "" in
    if M.named then M.new_node ~name:nm ~line;
    Node { value = M.field nm ".val" ~line value; next = M.field nm ".next" ~line next }

  let create () =
    let tail_line = M.fresh_line () in
    let tn = if M.named then Naming.tail else "" in
    let tail = Tail { value = M.field tn ".val" ~line:tail_line max_int } in
    let head_line = M.fresh_line () in
    let hn = if M.named then Naming.head else "" in
    let head =
      Node
        {
          value = M.field hn ".val" ~line:head_line min_int;
          next = M.field hn ".next" ~line:head_line tail;
        }
    in
    { head }

  let check_key v =
    if v = min_int || v = max_int then
      invalid_arg "list-based set: key must be strictly between min_int and max_int"

  (* The traversal of Algorithm 1: returns the first node with value >= v,
     its observed value, and the predecessor. *)
  let locate t v =
    let rec loop prev curr =
      let tval = node_value curr in
      if tval < v then loop curr (M.get (next_cell_exn curr)) else (prev, curr, tval)
    in
    let prev = t.head in
    let curr = M.get (next_cell_exn prev) in
    loop prev curr

  let insert t v =
    check_key v;
    let prev, curr, tval = locate t v in
    if tval = v then false
    else begin
      let x = make_node v curr in
      M.set (next_cell_exn prev) x;
      true
    end

  let remove t v =
    check_key v;
    let prev, curr, tval = locate t v in
    if tval = v then begin
      let tnext = M.get (next_cell_exn curr) in
      M.set (next_cell_exn prev) tnext;
      true
    end
    else false

  let contains t v =
    check_key v;
    let _, _, tval = locate t v in
    tval = v

  let fold_range lo hi f init t =
    let rec loop acc node =
      match node with
      | Tail _ -> acc
      | Node n ->
          let v = M.get n.value in
          if v > hi then acc
          else
            let acc = if lo <= v && v <> min_int then f acc v else acc in
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
            if M.get n.value = max_int then Ok ()
            else Error "tail sentinel does not store max_int"
        | Node n ->
            let v = M.get n.value in
            if v <= last && not (v = min_int && steps = 0) then
              Error (Printf.sprintf "values not strictly increasing at %d" v)
            else loop v (M.get n.next) (steps + 1)
    in
    match t.head with
    | Node n when M.get n.value = min_int -> loop min_int t.head 0
    | _ -> Error "head sentinel does not store min_int"
end
