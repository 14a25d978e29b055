(** The sequential sorted linked list [LL] (paper Algorithm 1), alone
    ([Sequential]) and behind one global lock ([Coarse]), written once.
    Every read of a [val] or [next] field, every write and every node
    creation goes through the memory backend and is therefore a
    schedule step under {!Vbl_memops.Instr_mem}. *)

module Make (M : Vbl_memops.Mem_intf.S) : sig
  module Sequential : Set_intf.S
  module Coarse : Set_intf.S
end = struct
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

  let check_key v =
    if v = min_int || v = max_int then
      invalid_arg "list-based set: key must be strictly between min_int and max_int"

  type op = Insert | Remove | Contains

  (* The traversal of Algorithm 1 as one closed top-level walk that ends
     in the operation itself: [prev] trails [curr] until the first value
     >= v, so an update allocates at most its node. *)
  let[@hot] rec walk op v prev curr =
    let tval = node_value curr in
    if tval < v then walk op v curr (M.get_link (linked curr) next_of)
    else
      match op with
      | Contains -> tval = v
      | Insert ->
          if tval = v then false
          else begin
            let x = make_node v curr in
            M.set_link (linked prev) next_of x;
            true
          end
      | Remove ->
          if tval <> v then false
          else begin
            let tnext = M.get_link (linked curr) next_of in
            M.set_link (linked prev) next_of tnext;
            true
          end

  let run op t v =
    check_key v;
    walk op v t.head (M.get_link (linked t.head) next_of)

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

  module Sequential = struct
    type nonrec t = t

    let name = "sequential"

    let create () =
      let tail_line = M.fresh_line () in
      let tn = if M.named then Naming.tail else "" in
      let tail = Tail { value = M.key tn ".val" ~line:tail_line max_int } in
      let head_line = M.fresh_line () in
      let hn = if M.named then Naming.head else "" in
      let next = M.link hn ".next" ~line:head_line tail in
      let head = Node { next; value = M.key hn ".val" ~line:head_line min_int } in
      { head }

    let insert t v = run Insert t v
    let remove t v = run Remove t v
    let contains t v = run Contains t v

    include Set_intf.Derive (struct
      type nonrec t = t

      let collect_range lo hi acc t = collect_walk lo hi acc t.head
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

  (* Every operation but the quiescent [to_list], [size] and
     [check_invariants] runs under the global lock, reads included: the
     sequential walks are not built for concurrent traversal (a walk
     racing a remove's splice can observe mid-update states).  A point
     operation releases the lock on its exception path too (a rejected
     key). *)
  module Coarse = struct
    let name = "coarse"

    type t = { lock : M.lock; inner : Sequential.t }

    let create () =
      let line = M.fresh_line () in
      { lock = M.make_lock ~name:"global.lock" ~line (); inner = Sequential.create () }

    let locked op t v =
      M.lock t.lock;
      match run op t.inner v with
      | r ->
          M.unlock t.lock;
          r
      | exception e ->
          M.unlock t.lock;
          raise e

    let insert t v = locked Insert t v
    let remove t v = locked Remove t v
    let contains t v = locked Contains t v

    (* One collection under the global lock is a snapshot, so this is
       the one list whose [range_query] is linearizable. *)
    let collect_locked lo hi t =
      M.lock t.lock;
      let keys = collect_walk lo hi [] t.inner.head in
      M.unlock t.lock;
      keys

    let range_query t lo hi = if lo > hi then [] else List.rev (collect_locked lo hi t)
    let approx_size t = List.length (collect_locked min_int max_int t)

    (* [f] runs on the collected list after the lock is released, so it
       may call back into the set. *)
    let fold f init t = List.fold_left f init (List.rev (collect_locked min_int max_int t))
    let iter f t = List.iter f (List.rev (collect_locked min_int max_int t))
    let to_list t = Sequential.to_list t.inner
    let size t = Sequential.size t.inner
    let check_invariants t = Sequential.check_invariants t.inner
  end
end
