(** Lock-free skip list (Herlihy & Shavit ch. 14.4, after Fraser and
    Harris): every level's successor link carries a Harris-style mark, the
    bottom level is the set's linearization backbone, and upper levels are
    best-effort index shortcuts maintained by CAS.

    - [add] linearizes at the bottom-level link CAS; upper levels are then
      linked one by one, refreshing the window via [find] on failure.
    - [remove] marks from the top level down; the bottom-level mark is the
      linearization point, after which a final [find] physically snips the
      node (or a concurrent traversal does).
    - [find] snips marked nodes at every level as it passes, restarting
      from the head when a snip CAS fails.
    - [contains] is wait-free: it traverses without snipping, skipping
      marked nodes by reading through them.

    Completes the skip-list family the way Harris-Michael completes the
    list family: the lock-free baseline the lazy/VBL variants are compared
    against. *)

module Make (M : Vbl_memops.Mem_intf.S) : Vbl_lists.Set_intf.S = struct
  let name = "lockfree-skiplist"

  let max_level = Vbl_util.Level_gen.max_level

  type node =
    | Node of { value : int M.key; next : link M.cell array }
    | Tail of { value : int M.key }

  (* [Marked succ] in [n.next.(lvl)] means n is deleted at that level. *)
  and link = Live of node | Marked of node

  type t = { head : node; levels : Vbl_util.Level_gen.t }

  let node_value = function Node n -> M.get_key n.value | Tail n -> M.get_key n.value
  let height = function Node n -> Array.length n.next | Tail _ -> 0

  let link_cell node lvl =
    match node with
    | Node n -> n.next.(lvl)
    | Tail _ -> assert false (* the tail's +inf value stops every loop *)

  (* Names are only built for instrumented backends ([M.named]).  A new
     tower links to [succs.(0..top_level-1)]; its cells are made by a loop,
     level 0 first, so neither a closure nor a copy of [succs] is
     allocated. *)
  let tower_cell nm ~line succs lvl =
    M.field nm (if M.named then ".next" ^ string_of_int lvl else "") ~line (Live succs.(lvl))

  let tower nm ~line succs top_level =
    let next = Array.make top_level (tower_cell nm ~line succs 0) in
    for lvl = 1 to top_level - 1 do
      next.(lvl) <- tower_cell nm ~line succs lvl
    done;
    next

  let make_node value succs top_level =
    let line = M.fresh_line () in
    let nm = if M.named then Vbl_lists.Naming.node value else "" in
    if M.named then M.new_node ~name:nm ~line;
    Node { value = M.key nm ".val" ~line value; next = tower nm ~line succs top_level }

  let create () =
    let tl = M.fresh_line () in
    let tn = if M.named then Vbl_lists.Naming.tail else "" in
    let tail = Tail { value = M.key tn ".val" ~line:tl max_int } in
    let hl = M.fresh_line () in
    let hn = if M.named then Vbl_lists.Naming.head else "" in
    let head =
      Node
        {
          value = M.key hn ".val" ~line:hl min_int;
          next =
            Array.init max_level (fun lvl ->
                M.field hn
                  (if M.named then ".next" ^ string_of_int lvl else "")
                  ~line:hl (Live tail));
        }
    in
    { head; levels = Vbl_util.Level_gen.create () }

  let check_key v =
    if v = min_int || v = max_int then
      invalid_arg "skip list: key must be strictly between min_int and max_int"

  exception Retry

  (* Locate the per-level windows for [v], snipping marked nodes on the
     way; fills [preds], [succs] and [pred_links] (the exact link value
     observed in preds.(level) — the CAS witness).  Returns whether an
     unmarked bottom-level node holds [v].  Restarts from the head when a
     snip CAS loses a race. *)
  let find t v preds succs pred_links =
    let rec attempt () =
      match
        let pred = ref t.head in
        for level = max_level - 1 downto 0 do
          let pred_link = ref (M.get (link_cell !pred level)) in
          (* A marked pred was deleted under us: its link must never be
             used as a CAS witness (splicing there would erase the mark),
             so restart from the head.  Advancement below only ever moves
             pred over Live links. *)
          (match !pred_link with Marked _ -> raise Retry | Live _ -> ());
          let rec walk curr =
            match curr with
            | Tail _ -> curr
            | Node cn -> (
                match M.get cn.next.(level) with
                | Marked succ -> (
                    (* curr is deleted at this level: snip it out. *)
                    match !pred_link with
                    | Live s as witness when s == curr ->
                        let replacement = Live succ in
                        if M.cas (link_cell !pred level) witness replacement then begin
                          pred_link := replacement;
                          walk succ
                        end
                        else raise Retry
                    | Live _ | Marked _ -> raise Retry)
                | Live succ as curr_link ->
                    if M.get_key cn.value < v then begin
                      pred := curr;
                      pred_link := curr_link;
                      walk succ
                    end
                    else curr)
          in
          let curr = walk (match !pred_link with Live s | Marked s -> s) in
          preds.(level) <- !pred;
          succs.(level) <- curr;
          pred_links.(level) <- !pred_link
        done;
        node_value succs.(0) = v
      with
      | found -> found
      | exception Retry -> attempt ()
    in
    attempt ()

  let insert t v =
    check_key v;
    let top_level = Vbl_util.Level_gen.next_level t.levels in
    let preds = Array.make max_level t.head
    and succs = Array.make max_level t.head
    and pred_links = Array.make max_level (Live t.head) in
    let rec attempt () =
      if find t v preds succs pred_links then false
      else begin
        let x = make_node v succs top_level in
        (* Linearization point: splice into the bottom level. *)
        if M.cas (link_cell preds.(0) 0) pred_links.(0) (Live x) then begin
          link_upper x 1;
          true
        end
        else attempt ()
      end
    and link_upper x level =
      if level < height x then begin
        (* Refresh x's own forward pointer for this level, then splice.
           A Marked link here means a racing remove already owns x: the
           remover will (or did) unlink whatever is spliced, so stop. *)
        let cell = link_cell x level in
        match M.get cell with
        | Marked _ -> ()
        | Live old as witness ->
            let succ = succs.(level) in
            let forward_ok =
              old == succ || M.cas cell witness (Live succ)
            in
            if not forward_ok then () (* concurrently marked: stop *)
            else if M.cas (link_cell preds.(level) level) pred_links.(level) (Live x)
            then link_upper x (level + 1)
            else begin
              (* The window moved: refresh it and retry this level. *)
              if find t v preds succs pred_links then link_upper x level
              else () (* x already removed: nothing left to index *)
            end
      end
    in
    attempt ()

  let remove t v =
    check_key v;
    let preds = Array.make max_level t.head
    and succs = Array.make max_level t.head
    and pred_links = Array.make max_level (Live t.head) in
    if not (find t v preds succs pred_links) then false
    else begin
      let victim = succs.(0) in
      (* Mark the index levels top-down (best effort, must terminate). *)
      for level = height victim - 1 downto 1 do
        let cell = link_cell victim level in
        let rec mark () =
          match M.get cell with
          | Marked _ -> ()
          | Live succ as witness -> if M.cas cell witness (Marked succ) then () else mark ()
        in
        mark ()
      done;
      (* Bottom level: whoever marks it owns the removal. *)
      let cell = link_cell victim 0 in
      let rec bottom () =
        match M.get cell with
        | Marked _ -> false (* somebody else's removal linearized first *)
        | Live succ as witness ->
            if M.cas cell witness (Marked succ) then begin
              ignore (find t v preds succs pred_links) (* physical snip *);
              true
            end
            else bottom ()
      in
      bottom ()
    end

  (* Wait-free membership: never snips; nodes marked at the traversal
     level are read through (they are logically gone). *)
  let contains t v =
    check_key v;
    let pred = ref t.head in
    let curr = ref t.head in
    for level = max_level - 1 downto 0 do
      curr := (match M.get (link_cell !pred level) with Live s | Marked s -> s);
      let rec walk () =
        match !curr with
        | Tail _ -> ()
        | Node cn -> (
            match M.get cn.next.(level) with
            | Marked succ ->
                curr := succ;
                walk ()
            | Live succ ->
                if M.get_key cn.value < v then begin
                  pred := !curr;
                  curr := succ;
                  walk ()
                end)
      in
      walk ()
    done;
    node_value !curr = v

  (* The present keys of [lo, hi] consed onto [acc], descending, from
     the bottom level: a closed walk, so a collection allocates only its
     cons cells. *)
  let rec collect_walk lo hi acc node =
    match node with
    | Tail _ -> acc
    | Node n -> (
        let v = M.get_key n.value in
        if v > hi then acc
        else
          match M.get n.next.(0) with
          | Live succ ->
              let acc = if lo <= v && v <> min_int then Vbl_lists.Set_intf.keep v acc else acc in
              collect_walk lo hi acc succ
          | Marked succ -> collect_walk lo hi acc succ)

  let collect_range lo hi acc t = collect_walk lo hi acc t.head

  include Vbl_lists.Set_intf.Derive (struct
    type nonrec t = t

    let collect_range = collect_range
  end)

  let check_invariants t =
    (* Tower consistency: every node reachable at an upper level must also
       be reachable at the bottom level (upper levels are index sublists). *)
    let sublist_check () =
      let bottom = ref [] in
      let rec collect node =
        match node with
        | Tail _ -> ()
        | Node n ->
            bottom := node :: !bottom;
            collect (match M.get n.next.(0) with Live s | Marked s -> s)
      in
      collect t.head;
      let rec check_upper level node =
        match node with
        | Tail _ -> Ok ()
        | Node n ->
            if not (List.memq node !bottom) then
              Error
                (Printf.sprintf "level %d: node %d not present at bottom level" level
                   (M.get_key n.value))
            else
              check_upper level (match M.get n.next.(level) with Live s | Marked s -> s)
      in
      let rec levels level =
        if level >= max_level then Ok ()
        else
          match check_upper level t.head with
          | Ok () -> levels (level + 1)
          | Error _ as e -> e
      in
      levels 1
    in
    (* Bottom level: sorted, and at quiescence marked nodes may linger only
       unlinked... a marked node may remain linked at upper levels briefly;
       at quiescence every reachable node must be unmarked at level 0. *)
    let rec check_level level last node steps =
      if steps > 10_000_000 then Error "traversal did not terminate (cycle?)"
      else
        match node with
        | Tail n ->
            if M.get_key n.value = max_int then Ok ()
            else Error "tail sentinel does not store max_int"
        | Node n ->
            let v = M.get_key n.value in
            if Array.length n.next <= level then
              Error (Printf.sprintf "level %d: node %d tower too short" level v)
            else begin
              let link = M.get n.next.(level) in
              match link with
              | Marked _ when steps > 0 ->
                  Error (Printf.sprintf "level %d: marked node %d still reachable" level v)
              | Marked succ | Live succ ->
                  if v <= last && steps > 0 then
                    Error
                      (Printf.sprintf "level %d: values not strictly increasing at %d" level v)
                  else check_level level v succ (steps + 1)
            end
    in
    let rec all_levels level =
      if level >= max_level then Ok ()
      else
        match check_level level min_int t.head 0 with
        | Ok () -> all_levels (level + 1)
        | Error _ as e -> e
    in
    match all_levels 0 with Ok () -> sublist_check () | Error _ as e -> e
end
