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
    | Node of { value : int M.cell; next : node M.cell; lock : M.lock }
    | Tail of { value : int M.cell; lock : M.lock }

  type t = { head : node }

  let node_value = function Node n -> M.get n.value | Tail n -> M.get n.value
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
          lock = M.make_lock ~name:(Naming.lock_cell nm) ~line ();
        }
    end
    else
      Node
        {
          value = M.make ~line value;
          next = M.make ~line next;
          lock = M.make_lock ~line ();
        }

  let create () =
    let tl = M.fresh_line () in
    let tail =
      if M.named then
        Tail
          {
            value = M.make ~name:(Naming.value_cell Naming.tail) ~line:tl max_int;
            lock = M.make_lock ~name:(Naming.lock_cell Naming.tail) ~line:tl ();
          }
      else Tail { value = M.make ~line:tl max_int; lock = M.make_lock ~line:tl () }
    in
    let hl = M.fresh_line () in
    let head =
      if M.named then
        Node
          {
            value = M.make ~name:(Naming.value_cell Naming.head) ~line:hl min_int;
            next = M.make ~name:(Naming.next_cell Naming.head) ~line:hl tail;
            lock = M.make_lock ~name:(Naming.lock_cell Naming.head) ~line:hl ();
          }
      else
        Node
          {
            value = M.make ~line:hl min_int;
            next = M.make ~line:hl tail;
            lock = M.make_lock ~line:hl ();
          }
    in
    { head }

  let check_key v =
    if v = min_int || v = max_int then
      invalid_arg "list-based set: key must be strictly between min_int and max_int"

  let locate t v =
    let rec loop prev curr =
      if node_value curr < v then loop curr (M.get (next_cell_exn curr)) else (prev, curr)
    in
    let curr = M.get (next_cell_exn t.head) in
    loop t.head curr

  (* Validation by re-traversal (Herlihy & Shavit fig. 9.12): [prev] must
     still be reachable from the head and still point at [curr]. *)
  let validate t prev curr =
    let prev_value = node_value prev in
    let rec walk node =
      if node == prev then M.get (next_cell_exn prev) == curr
      else if node_value node < prev_value then walk (M.get (next_cell_exn node))
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
          M.set (next_cell_exn prev) (make_node v curr);
          true
        end)

  let remove t v =
    check_key v;
    with_validated t v (fun prev curr tval ->
        if tval = v then begin
          M.set (next_cell_exn prev) (M.get (next_cell_exn curr));
          true
        end
        else false)

  let contains t v =
    check_key v;
    with_validated t v (fun _ _ tval -> tval = v)

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
            if v <= last && steps > 0 then
              Error (Printf.sprintf "values not strictly increasing at %d" v)
            else loop v (M.get n.next) (steps + 1)
    in
    match t.head with
    | Node n when M.get n.value = min_int -> loop min_int t.head 0
    | _ -> Error "head sentinel does not store min_int"
end
