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
    | Node of { succ : link M.link; key : int M.key; backlink : node M.cell }
    | Tail of { key : int M.key }

  and link = Live of node | Marked of node | Flagged of node

  type t = { head : node }

  let node_key = function Node n -> M.get_key n.key | Tail n -> M.get_key n.key
  (* The successor field is each [Node]'s first field, an [M.link]; the
     tail has none, so every link access checks its node with [linked]. *)
  let succ_of = function Node n -> n.succ | Tail _ -> assert false
  let[@inline] linked = function Node _ as n -> n | Tail _ -> assert false

  let right node =
    match M.get_link (linked node) succ_of with Live s | Marked s | Flagged s -> s

  let is_marked node =
    match node with
    | Tail _ -> false
    | Node _ -> (
        match M.get_link node succ_of with Marked _ -> true | Live _ | Flagged _ -> false)

  let set_backlink node target =
    match node with
    | Node n -> M.set n.backlink target
    | Tail _ -> ()

  let backlink = function
    | Node n -> M.get n.backlink
    | Tail _ -> assert false

  (* A node's cells are made backlink first and key last, the order the
     instrumented backends number their shadows in. *)
  let build nm ~line key next back =
    let backlink = M.field nm ".back" ~line back in
    let succ = M.link nm ".next" ~line (Live next) in
    Node { succ; key = M.key nm ".val" ~line key; backlink }

  (* Names are only built for instrumented backends ([M.named]). *)
  let make_node key next back =
    let line = M.fresh_line () in
    let nm = if M.named then Naming.node key else "" in
    if M.named then M.new_node ~name:nm ~line;
    build nm ~line key next back

  let create () =
    let tl = M.fresh_line () in
    let tn = if M.named then Naming.tail else "" in
    let tail = Tail { key = M.key tn ".val" ~line:tl max_int } in
    let hl = M.fresh_line () in
    let hn = if M.named then Naming.head else "" in
    (* The head is never marked, so its backlink is never followed. *)
    let head = build hn ~line:hl min_int tail tail in
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
    | Node _ -> (
        match M.get_link del succ_of with
        | Marked _ -> ()
        | Live next as witness ->
            if M.cas_link del succ_of witness (Marked next) then () else try_mark del
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
    ignore (M.cas_link (linked prev) succ_of prev_link (Live next))

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
        match M.get_link (linked curr) succ_of with
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
    match M.get_link (linked prev) succ_of with
    | Flagged s when s == target -> Some (prev, false)
    | Live s as witness when s == target ->
        if M.cas_link (linked prev) succ_of witness (Flagged target) then Some (prev, true)
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
      match M.get_link (linked prev) succ_of with
      | Flagged s as fl ->
          help_flagged prev fl s;
          re_search x prev
      | Marked _ -> re_search x (live_pred prev)
      | Live s as witness when s == next ->
          (match x with Node _ -> M.set_link x succ_of witness | Tail _ -> ());
          if M.cas_link (linked prev) succ_of witness (Live x) then true else try_link x prev next
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
          (match M.get_link (linked prev) succ_of with
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
            match M.get_link node succ_of with
            | Live s | Flagged s -> (s, false)
            | Marked s -> (s, true)
          in
          let v = M.get_key n.key in
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
            if M.get_key n.key = max_int then Ok ()
            else Error "tail sentinel does not store max_int"
        | Node n ->
            let v = M.get_key n.key in
            let succ, marked =
              match M.get_link node succ_of with
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
    | Node n when M.get_key n.key = min_int -> loop min_int t.head 0
    | _ -> Error "head sentinel does not store min_int"
end
