(** The lock-free linked list of Fomitchev & Ruppert (PODC 2004), cited by
    the paper's related work (§5) as the backlink-based alternative to
    restarting from the head: when a CAS fails because the predecessor got
    deleted, the operation walks {e backlinks} to the nearest live
    predecessor instead of re-traversing from the head.

    Link encoding — each node's successor field atomically holds one of:

    - [Live next] — normal;
    - [Marked next] — this node is logically deleted;
    - [Flagged next] — [next] is pinned for deletion: nothing else may
      change this successor field until that deletion completes.

    Deleting [del] with live predecessor [prev] is a three-step protocol:
    flag [prev]'s link ([try_flag]), set [del.backlink <- prev] and mark
    [del], then physically unlink — all bundled in [help_flagged].  The
    flag makes the unlink CAS infallible, so marked nodes never linger;
    an insert that finds its predecessor flagged helps the stalled deleter
    first, which is what makes the algorithm lock-free.

    Key invariant (used for the double-remove argument): while a node is
    marked and still linked, its unique live predecessor is flagged at it,
    so a second [remove] of the same node can never win the flagging CAS.

    As the paper notes (§5), backlinks and flags are more metadata for
    operations to conflict on — this algorithm is not concurrency-optimal
    either; it is included as a further measured baseline. *)

module Make (M : Vbl_memops.Mem_intf.S) : Set_intf.S = struct
  let name = "fomitchev-ruppert"

  type node =
    | Node of { key : int M.cell; succ : link M.cell; backlink : node M.cell }
    | Tail of { key : int M.cell }

  and link = Live of node | Marked of node | Flagged of node

  type t = { head : node }

  let node_key = function Node n -> M.get n.key | Tail n -> M.get n.key
  let succ_cell_exn = function Node n -> n.succ | Tail _ -> assert false

  let right node =
    match M.get (succ_cell_exn node) with Live s | Marked s | Flagged s -> s

  let is_marked = function
    | Tail _ -> false
    | Node n -> ( match M.get n.succ with Marked _ -> true | Live _ | Flagged _ -> false)

  let set_backlink node target =
    match node with
    | Node n -> M.set n.backlink target
    | Tail _ -> ()

  let backlink = function
    | Node n -> M.get n.backlink
    | Tail _ -> assert false

  (* Names are only built for instrumented backends ([M.named]). *)
  let make_node key next back =
    let line = M.fresh_line () in
    if M.named then begin
      let nm = Naming.node key in
      M.new_node ~name:nm ~line;
      Node
        {
          key = M.make ~name:(Naming.value_cell nm) ~line key;
          succ = M.make ~name:(Naming.next_cell nm) ~line (Live next);
          backlink = M.make ~name:(nm ^ ".back") ~line back;
        }
    end
    else
      Node
        {
          key = M.make ~line key;
          succ = M.make ~line (Live next);
          backlink = M.make ~line back;
        }

  let create () =
    let tl = M.fresh_line () in
    let tail =
      if M.named then
        Tail { key = M.make ~name:(Naming.value_cell Naming.tail) ~line:tl max_int }
      else Tail { key = M.make ~line:tl max_int }
    in
    let hl = M.fresh_line () in
    let head =
      if M.named then
        Node
          {
            key = M.make ~name:(Naming.value_cell Naming.head) ~line:hl min_int;
            succ = M.make ~name:(Naming.next_cell Naming.head) ~line:hl (Live tail);
            (* The head is never marked, so its backlink is never followed. *)
            backlink = M.make ~name:"h.back" ~line:hl tail;
          }
      else
        Node
          {
            key = M.make ~line:hl min_int;
            succ = M.make ~line:hl (Live tail);
            backlink = M.make ~line:hl tail;
          }
    in
    { head }

  let check_key v =
    if v = min_int || v = max_int then
      invalid_arg "list-based set: key must be strictly between min_int and max_int"

  (* Walk backlinks off marked nodes to the nearest live predecessor. *)
  let rec live_pred p = if is_marked p then live_pred (backlink p) else p

  (* Mark [del], whose predecessor is flagged (so [del]'s own link can only
     change by this very marking). *)
  let rec try_mark del =
    match del with
    | Tail _ -> assert false (* sentinels are never deleted *)
    | Node n -> (
        match M.get n.succ with
        | Marked _ -> ()
        | Live next as witness ->
            if M.cas n.succ witness (Marked next) then () else try_mark del
        | Flagged next as fl ->
            (* del is itself mid-deleting its successor; help it first. *)
            help_flagged del fl next;
            try_mark del)

  (* [prev]'s link is [prev_link = Flagged del]: finish [del]'s deletion —
     backlink, mark, unlink.  The unlink CAS can only fail if another
     helper already performed it. *)
  and help_flagged prev prev_link del =
    set_backlink del prev;
    if not (is_marked del) then try_mark del;
    let next = right del in
    ignore (M.cas (succ_cell_exn prev) prev_link (Live next))

  (* Traversal: find (curr, next) with [below curr.key k] and not
     [below next.key k].  [below] is [<=] for membership/insertion and [<]
     for the strict predecessor search removal needs.  As in the original
     SearchFrom, passing a node whose deletion is flagged-and-marked helps
     complete the unlink — without this, an operation retrying around a
     stalled deleter would spin instead of making its progress for it
     (lock-freedom).  Other marked nodes are simply traversed through:
     their successor links stay valid. *)
  let search_from ~below k start =
    let rec loop curr next =
      if below (node_key next) k then begin
        match M.get (succ_cell_exn curr) with
        | Flagged s as fl when s == next && is_marked next ->
            help_flagged curr fl next;
            loop curr (right curr)
        | Live _ | Marked _ | Flagged _ -> loop next (right next)
      end
      else (curr, next)
    in
    loop start (right start)

  let below_leq a b = a <= b
  let below_lt a b = a < b

  (* Flag [prev]'s link at [target].  [Some (prev, true)] — we flagged;
     [Some (prev, false)] — another deleter holds the flag; [None] — the
     target is gone. *)
  let rec try_flag t prev target k =
    match M.get (succ_cell_exn prev) with
    | Flagged s when s == target -> Some (prev, false)
    | Live s as witness when s == target ->
        if M.cas (succ_cell_exn prev) witness (Flagged target) then Some (prev, true)
        else try_flag t prev target k
    | Flagged s as fl ->
        (* prev is deleting some other successor; help and retry. *)
        help_flagged prev fl s;
        try_flag t prev target k
    | Live _ | Marked _ ->
        let prev = live_pred prev in
        let prev, del = search_from ~below:below_lt k prev in
        if del == target then try_flag t prev target k else None

  let insert t v =
    check_key v;
    let rec attempt prev next =
      if node_key prev = v && not (is_marked prev) then false
      else begin
        let x = make_node v next t.head in
        try_link x prev next
      end
    and try_link x prev next =
      match M.get (succ_cell_exn prev) with
      | Flagged s as fl ->
          help_flagged prev fl s;
          re_search x prev
      | Marked _ -> re_search x (live_pred prev)
      | Live s as witness when s == next ->
          (match x with Node n -> M.set n.succ witness | Tail _ -> ());
          if M.cas (succ_cell_exn prev) witness (Live x) then true else try_link x prev next
      | Live _ -> re_search x prev
    and re_search x prev =
      let prev, next = search_from ~below:below_leq v prev in
      if node_key prev = v && not (is_marked prev) then false else try_link x prev next
    in
    let prev, next = search_from ~below:below_leq v t.head in
    attempt prev next

  let remove t v =
    check_key v;
    let prev, del = search_from ~below:below_lt v t.head in
    if node_key del <> v then false
    else
      match try_flag t prev del v with
      | None -> false
      | Some (prev, status) ->
          (* Whether we won the flag or found it, drive the deletion to its
             unlink so the list stays garbage-free. *)
          (match M.get (succ_cell_exn prev) with
          | Flagged s as fl when s == del -> help_flagged prev fl del
          | Live _ | Flagged _ | Marked _ -> () (* already completed by a helper *));
          status

  let contains t v =
    check_key v;
    let curr, _ = search_from ~below:below_leq v t.head in
    node_key curr = v && not (is_marked curr)

  let fold_range lo hi f init t =
    let rec loop acc node =
      match node with
      | Tail _ -> acc
      | Node n ->
          let succ, marked =
            match M.get n.succ with
            | Live s | Flagged s -> (s, false)
            | Marked s -> (s, true)
          in
          let v = M.get n.key in
          if v > hi then acc
          else
            let keep = lo <= v && v <> min_int && not marked in
            let acc = if keep then f acc v else acc in
            loop acc succ
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
            if M.get n.key = max_int then Ok ()
            else Error "tail sentinel does not store max_int"
        | Node n ->
            let v = M.get n.key in
            let succ, marked =
              match M.get n.succ with
              | Live s | Flagged s -> (s, false)
              | Marked s -> (s, true)
            in
            if v <= last && steps > 0 then
              Error (Printf.sprintf "keys not strictly increasing at %d" v)
            else if steps > 0 && marked then
              (* Flagging makes unlinks infallible, so at quiescence no
                 marked node is reachable. *)
              Error (Printf.sprintf "marked node %d still reachable" v)
            else loop v succ (steps + 1)
    in
    match t.head with
    | Node n when M.get n.key = min_int -> loop min_int t.head 0
    | _ -> Error "head sentinel does not store min_int"
end
