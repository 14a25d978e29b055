(** A VBL-style skip list: the paper's concluding-remarks direction
    ("generalizations of linked lists, such as skip-lists ... may allow for
    optimizations similar to the ones proposed in this paper"), made
    concrete.

    Transferring the paper's ideas turns out to be a sharper exercise than
    for lists, because the lazy skip list {e already} validates values
    before locking: its failed inserts and removes return without touching
    a lock.  What still over-synchronises, and what this variant relaxes:

    - {b validation demands an unmarked successor} — the lazy skip list's
      insert revalidates [not succ.marked] under the predecessor lock and
      restarts if a successor is being removed, even though linking in
      front of a marked node is harmless: the remover holds no lock on our
      predecessor, and its own validation ([pred.next == victim]) will
      re-route it through the new node.  This variant validates adjacency
      only, accepting those schedules;
    - {b removal requires finding the victim at its top level}
      ([height - 1 = lfound]) and returns false otherwise, rejecting
      schedules where a concurrent insert of a taller tower shadows the
      victim; this variant removes whatever unmarked, fully linked node
      holds the value at the bottom level, validating under the locks.

    What cannot be relaxed (each attempt provably breaks linearizability):
    a duplicate insert must wait for the found node's [fully_linked] flag
    (returning false earlier has no valid linearization point), and a
    remover must wait for it too (unlinking a partially linked tower lets
    the in-flight insert resurrect upper levels).  Same-key races therefore
    retain bounded waits, unlike the list case — a genuine asymmetry
    between lists and skip lists that EXPERIMENTS.md reports alongside the
    throughput comparison. *)

module Make (M : Vbl_memops.Mem_intf.S) : Vbl_lists.Set_intf.S = struct
  let name = "vbl-skiplist"

  let max_level = Vbl_util.Level_gen.max_level

  type node =
    | Node of {
        value : int M.cell;
        next : node M.cell array;
        marked : bool M.cell;
        fully_linked : bool M.cell;
        lock : M.lock;
      }
    | Tail of { value : int M.cell }

  type t = { head : node; levels : Vbl_util.Level_gen.t }

  let node_value = function Node n -> M.get n.value | Tail n -> M.get n.value
  let node_marked = function Node n -> M.get n.marked | Tail _ -> false
  let node_fully_linked = function Node n -> M.get n.fully_linked | Tail _ -> true
  let node_lock = function Node n -> n.lock | Tail _ -> assert false
  let height = function Node n -> Array.length n.next | Tail _ -> 0

  let next_cell node level =
    match node with Node n -> n.next.(level) | Tail _ -> assert false

  (* Names are only built for instrumented backends ([M.named]). *)
  let make_node value next_targets =
    let line = M.fresh_line () in
    if M.named then begin
      let nm = Vbl_lists.Naming.node value in
      M.new_node ~name:nm ~line;
      Node
        {
          value = M.make ~name:(Vbl_lists.Naming.value_cell nm) ~line value;
          next =
            Array.mapi
              (fun lvl succ -> M.make ~name:(Printf.sprintf "%s.next%d" nm lvl) ~line succ)
              next_targets;
          marked = M.make ~name:(Vbl_lists.Naming.deleted_cell nm) ~line false;
          fully_linked = M.make ~name:(nm ^ ".linked") ~line false;
          lock = M.make_lock ~name:(Vbl_lists.Naming.lock_cell nm) ~line ();
        }
    end
    else
      Node
        {
          value = M.make ~line value;
          next = Array.map (fun succ -> M.make ~line succ) next_targets;
          marked = M.make ~line false;
          fully_linked = M.make ~line false;
          lock = M.make_lock ~line ();
        }

  let create () =
    let tl = M.fresh_line () in
    let tail =
      if M.named then
        Tail
          {
            value =
              M.make ~name:(Vbl_lists.Naming.value_cell Vbl_lists.Naming.tail) ~line:tl max_int;
          }
      else Tail { value = M.make ~line:tl max_int }
    in
    let hl = M.fresh_line () in
    let head =
      if M.named then
        Node
          {
            value =
              M.make ~name:(Vbl_lists.Naming.value_cell Vbl_lists.Naming.head) ~line:hl min_int;
            next =
              Array.init max_level (fun lvl ->
                  M.make ~name:(Printf.sprintf "h.next%d" lvl) ~line:hl tail);
            marked =
              M.make ~name:(Vbl_lists.Naming.deleted_cell Vbl_lists.Naming.head) ~line:hl false;
            fully_linked = M.make ~name:"h.linked" ~line:hl true;
            lock =
              M.make_lock ~name:(Vbl_lists.Naming.lock_cell Vbl_lists.Naming.head) ~line:hl ();
          }
      else
        Node
          {
            value = M.make ~line:hl min_int;
            next = Array.init max_level (fun _ -> M.make ~line:hl tail);
            marked = M.make ~line:hl false;
            fully_linked = M.make ~line:hl true;
            lock = M.make_lock ~line:hl ();
          }
    in
    { head; levels = Vbl_util.Level_gen.create () }

  let check_key v =
    if v = min_int || v = max_int then
      invalid_arg "skip list: key must be strictly between min_int and max_int"

  let find t v preds succs =
    let lfound = ref (-1) in
    let pred = ref t.head in
    for level = max_level - 1 downto 0 do
      let curr = ref (M.get (next_cell !pred level)) in
      while node_value !curr < v do
        pred := !curr;
        curr := M.get (next_cell !pred level)
      done;
      if !lfound = -1 && node_value !curr = v then lfound := level;
      preds.(level) <- !pred;
      succs.(level) <- !curr
    done;
    !lfound

  let contains t v =
    check_key v;
    let preds = Array.make max_level t.head and succs = Array.make max_level t.head in
    let lfound = find t v preds succs in
    lfound <> -1
    && node_fully_linked succs.(lfound)
    && not (node_marked succs.(lfound))

  let unlock_distinct preds highest =
    let last = ref None in
    for lvl = 0 to highest do
      let p = preds.(lvl) in
      let same = match !last with Some q -> q == p | None -> false in
      if not same then M.unlock (node_lock p);
      last := Some p
    done

  (* Predecessor locks are taken level-by-level in a loop and released
     via [unlock_distinct]; the summary pass sees that helper as a
     releaser and exempts this binding from lint L3 — no [@acquires]
     tag needed. *)
  let insert t v =
    check_key v;
    let top_level = Vbl_util.Level_gen.next_level t.levels in
    let preds = Array.make max_level t.head and succs = Array.make max_level t.head in
    let rec attempt () =
      let lfound = find t v preds succs in
      if lfound <> -1 then begin
        let found = succs.(lfound) in
        if not (node_marked found) then begin
          (* Present (or about to be): wait out the in-flight link so the
             false response has a linearization point — see header. *)
          while not (node_fully_linked found) do
            Domain.cpu_relax ()
          done;
          false
        end
        else attempt () (* being removed; retry until unlinked *)
      end
      else begin
        let highest_locked = ref (-1) in
        let valid = ref true in
        let level = ref 0 in
        let prev_pred = ref None in
        while !valid && !level < top_level do
          let pred = preds.(!level) and succ = succs.(!level) in
          let same = match !prev_pred with Some q -> q == pred | None -> false in
          if not same then begin
            M.lock (node_lock pred);
            prev_pred := Some pred
          end;
          highest_locked := !level;
          (* Relaxed validation: adjacency and a live predecessor only; a
             marked successor is fine (its remover re-routes through us). *)
          valid := (not (node_marked pred)) && M.get (next_cell pred !level) == succ;
          incr level
        done;
        if not !valid then begin
          unlock_distinct preds !highest_locked;
          attempt ()
        end
        else begin
          let x = make_node v (Array.init top_level (fun lvl -> succs.(lvl))) in
          for lvl = 0 to top_level - 1 do
            M.set (next_cell preds.(lvl) lvl) x
          done;
          (match x with Node n -> M.set n.fully_linked true | Tail _ -> ());
          unlock_distinct preds !highest_locked;
          true
        end
      end
    in
    attempt ()

  (* The victim lock spans retries of the unlink loop and the predecessor
     locks release via [unlock_distinct] — a releaser to the summary
     pass, so lint L3 exempts this binding without an [@acquires] tag. *)
  let remove t v =
    check_key v;
    let preds = Array.make max_level t.head and succs = Array.make max_level t.head in
    let marked_by_us = ref false in
    let victim = ref t.head in
    let rec attempt () =
      ignore (find t v preds succs);
      if !marked_by_us then finish ()
      else if node_value succs.(0) <> v then false (* value-aware: no locks taken *)
      else begin
        victim := succs.(0);
        (* The tower must be complete before it can be taken down. *)
        while not (node_fully_linked !victim) do
          Domain.cpu_relax ()
        done;
        M.lock (node_lock !victim);
        if node_marked !victim then begin
          M.unlock (node_lock !victim);
          false
        end
        else begin
          (match !victim with
          | Node n -> M.set n.marked true
          | Tail _ -> assert false);
          marked_by_us := true;
          finish ()
        end
      end
    and finish () =
      let top_level = height !victim in
      let highest_locked = ref (-1) in
      let valid = ref true in
      let level = ref 0 in
      let last = ref None in
      while !valid && !level < top_level do
        let pred = preds.(!level) in
        let same = match !last with Some q -> q == pred | None -> false in
        if not same then begin
          M.lock (node_lock pred);
          last := Some pred
        end;
        highest_locked := !level;
        valid := (not (node_marked pred)) && M.get (next_cell pred !level) == !victim;
        incr level
      done;
      if not !valid then begin
        unlock_distinct preds !highest_locked;
        attempt ()
      end
      else begin
        for lvl = top_level - 1 downto 0 do
          M.set (next_cell preds.(lvl) lvl) (M.get (next_cell !victim lvl))
        done;
        M.unlock (node_lock !victim);
        unlock_distinct preds !highest_locked;
        true
      end
    in
    attempt ()

  let fold_range lo hi f init t =
    let rec loop acc node =
      match node with
      | Tail _ -> acc
      | Node n ->
          let v = M.get n.value in
          if v > hi then acc
          else
            let keep =
              lo <= v && v <> min_int && (not (M.get n.marked)) && M.get n.fully_linked
            in
            let acc = if keep then f acc v else acc in
            loop acc (M.get n.next.(0))
    in
    loop init t.head

  include Vbl_lists.Set_intf.Derive (struct
    type nonrec t = t

    let fold_range = fold_range
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
            collect (M.get n.next.(0))
      in
      collect t.head;
      let rec check_upper level node =
        match node with
        | Tail _ -> Ok ()
        | Node n ->
            if not (List.memq node !bottom) then
              Error
                (Printf.sprintf "level %d: node %d not present at bottom level" level
                   (M.get n.value))
            else check_upper level (M.get n.next.(level))
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
    let rec check_level level last node steps =
      if steps > 10_000_000 then Error "traversal did not terminate (cycle?)"
      else
        match node with
        | Tail n ->
            if M.get n.value = max_int then Ok ()
            else Error "tail sentinel does not store max_int"
        | Node n ->
            let v = M.get n.value in
            if v <= last && steps > 0 then
              Error (Printf.sprintf "level %d: values not strictly increasing at %d" level v)
            else if steps > 0 && M.get n.marked then
              Error (Printf.sprintf "level %d: marked node %d still reachable" level v)
            else if steps > 0 && not (M.get n.fully_linked) then
              Error (Printf.sprintf "level %d: partially linked node %d at quiescence" level v)
            else if steps > 0 && Array.length n.next <= level then
              Error (Printf.sprintf "level %d: node %d tower too short" level v)
            else check_level level v (M.get n.next.(level)) (steps + 1)
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
