(** The two lock-based skip lists, written once: the lazy skip list
    ([Lazy]) and its VBL-style relaxation ([Vbl]).  Per node: a lock, a
    [marked] flag (logical deletion) and a [fully_linked] flag (the
    linearization point of insert, set once the node is linked at every
    level).  Traversals are wait-free; an update locks the predecessors of
    its tower level by level and validates each under its lock.  Each set
    gives only its insert's window validation and its remove's choice of
    victim. *)

module Make (M : Vbl_memops.Mem_intf.S) : sig
  module Lazy : Vbl_lists.Set_intf.S
  module Vbl : Vbl_lists.Set_intf.S
end = struct
  let max_level = Vbl_util.Level_gen.max_level

  type node =
    | Node of {
        value : int M.key;
        next : node M.cell array;  (** length = tower height *)
        marked : bool M.cell;
        fully_linked : bool M.cell;
        lock : M.lock;
      }
    | Tail of { value : int M.key }

  type t = { head : node; levels : Vbl_util.Level_gen.t }

  let node_value = function Node n -> M.get_key n.value | Tail n -> M.get_key n.value
  let node_marked = function Node n -> M.get n.marked | Tail _ -> false
  let node_fully_linked = function Node n -> M.get n.fully_linked | Tail _ -> true
  let node_lock = function Node n -> n.lock | Tail _ -> assert false
  let height = function Node n -> Array.length n.next | Tail _ -> 0

  let next_cell node level =
    match node with
    | Node n -> n.next.(level)
    | Tail _ -> assert false (* the tail's +inf value stops every traversal *)

  (* Names are only built for instrumented backends ([M.named]).  A new
     tower links to [succs.(0..top_level-1)]; its cells are made by a loop,
     level 0 first, so neither a closure nor a copy of [succs] is
     allocated. *)
  let tower_cell nm ~line succs lvl =
    M.field nm (if M.named then ".next" ^ string_of_int lvl else "") ~line succs.(lvl)

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
    Node
      {
        value = M.key nm ".val" ~line value;
        next = tower nm ~line succs top_level;
        marked = M.field nm ".del" ~line false;
        fully_linked = M.field nm ".linked" ~line false;
        lock = M.field_lock nm ".lock" ~line ();
      }

  let check_key v =
    if v = min_int || v = max_int then
      invalid_arg "skip list: key must be strictly between min_int and max_int"

  (* The wait-free multi-level locate: fills [preds]/[succs] and returns
     the highest level at which a node with value [v] was found. *)
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

  (* [contains] makes [find]'s reads, level by level, without filling
     search arrays it would not read: [found] is the node met at the
     highest level holding [v] ([succs.(lfound)] to [find]), or [t.head]
     while there is none, as no key equals the head's. *)
  let[@hot] rec contains_walk t v level pred curr found =
    if node_value curr < v then contains_walk t v level curr (M.get (next_cell curr level)) found
    else begin
      let found = if found == t.head && node_value curr = v then curr else found in
      if level = 0 then found
      else contains_walk t v (level - 1) pred (M.get (next_cell pred (level - 1))) found
    end

  (* A predecessor may appear at several consecutive levels; lock/unlock
     each distinct node once.  A repeat is the node one level down, so
     the loops compare with [preds.(lvl - 1)] instead of boxing the last
     node seen. *)
  let unlock_distinct preds highest =
    for lvl = 0 to highest do
      let p = preds.(lvl) in
      if not (lvl > 0 && preds.(lvl - 1) == p) then M.unlock (node_lock p)
    done

  (* Lock the distinct predecessors of [level .. top_level - 1] in turn,
     checking [valid pred succs.(l) l] under each lock, and stop at the
     first level that fails: returns that level, or -1 when all hold.
     [@acquires]: it returns holding the locks of every level it reached;
     the caller releases them with [unlock_distinct]. *)
  let[@hot] [@acquires] rec lock_window valid preds succs top_level level =
    if level = top_level then -1
    else begin
      let pred = preds.(level) in
      if not (level > 0 && preds.(level - 1) == pred) then M.lock (node_lock pred);
      if valid pred succs.(level) level then
        lock_window valid preds succs top_level (level + 1)
      else level
    end

  (* [Vbl]'s insert validation, and the window check of both removes: the
     predecessor is unmarked and still links to the expected successor. *)
  let[@hot] live_adjacent pred succ level =
    (not (node_marked pred)) && M.get (next_cell pred level) == succ

  (* Insert's retry loop, closed over nothing: [valid] is the algorithm's
     window validation, and each retry searches again into the same
     arrays.  Every exit releases the window through [unlock_distinct], a
     releaser to the lint's summary pass, so L3 needs no tag here. *)
  let[@hot] rec insert_attempt valid t v top_level preds succs =
    let lfound = find t v preds succs in
    if lfound <> -1 then begin
      let found = succs.(lfound) in
      if not (node_marked found) then begin
        (* Present, or about to be: wait out the in-flight link so the
           false response has a linearization point. *)
        while not (node_fully_linked found) do
          Domain.cpu_relax ()
        done;
        false
      end
      else insert_attempt valid t v top_level preds succs (* being removed: retry *)
    end
    else begin
      let failed = lock_window valid preds succs top_level 0 in
      if failed <> -1 then begin
        unlock_distinct preds failed;
        insert_attempt valid t v top_level preds succs
      end
      else begin
        let x = make_node v succs top_level in
        for lvl = 0 to top_level - 1 do
          M.set (next_cell preds.(lvl) lvl) x
        done;
        (match x with Node n -> M.set n.fully_linked true | Tail _ -> ());
        unlock_distinct preds (top_level - 1);
        true
      end
    end

  let insert_with valid t v =
    check_key v;
    let top_level = Vbl_util.Level_gen.next_level t.levels in
    let preds = Array.make max_level t.head and succs = Array.make max_level t.head in
    insert_attempt valid t v top_level preds succs

  (* Splice out [victim], which this remove holds locked and has marked:
     its window is [preds.(l) -> victim] at each of its levels, so
     [succs] holds the victim there while [lock_window] validates.  On a
     failed validation release the window, search again and retry; the
     victim's lock spans the retries. *)
  let[@hot] rec unlink t v victim preds succs =
    let top_level = height victim in
    for lvl = 0 to top_level - 1 do
      succs.(lvl) <- victim
    done;
    let failed = lock_window live_adjacent preds succs top_level 0 in
    if failed <> -1 then begin
      unlock_distinct preds failed;
      ignore (find t v preds succs : int);
      unlink t v victim preds succs
    end
    else begin
      for lvl = top_level - 1 downto 0 do
        M.set (next_cell preds.(lvl) lvl) (M.get (next_cell victim lvl))
      done;
      M.unlock (node_lock victim);
      unlock_distinct preds (top_level - 1);
      true
    end

  (* [select v lfound succs], the algorithm's choice after [find], is the
     level of [succs] holding the victim, or -1 to return false without
     locking.  Then: lock the victim, mark it, and [unlink] it, which
     releases the victim's lock and the window's (a releaser to L3's
     summary pass). *)
  let remove_with select t v =
    check_key v;
    let preds = Array.make max_level t.head and succs = Array.make max_level t.head in
    let lfound = find t v preds succs in
    let at = select v lfound succs in
    if at = -1 then false
    else begin
      let victim = succs.(at) in
      M.lock (node_lock victim);
      if node_marked victim then begin
        M.unlock (node_lock victim);
        false
      end
      else begin
        (match victim with Node n -> M.set n.marked true | Tail _ -> assert false);
        unlink t v victim preds succs
      end
    end

  (* Everything but the updates, which both sets export unchanged. *)
  module Common = struct
    type nonrec t = t

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
                  M.field hn (if M.named then ".next" ^ string_of_int lvl else "") ~line:hl tail);
            marked = M.field hn ".del" ~line:hl false;
            fully_linked = M.field hn ".linked" ~line:hl true;
            lock = M.field_lock hn ".lock" ~line:hl ();
          }
      in
      { head; levels = Vbl_util.Level_gen.create () }

    let contains t v =
      check_key v;
      let top = max_level - 1 in
      let found = contains_walk t v top t.head (M.get (next_cell t.head top)) t.head in
      found != t.head && node_fully_linked found && not (node_marked found)

    (* The present keys of [lo, hi] consed onto [acc], descending, from
       the bottom level: a closed walk, so a collection allocates only
       its cons cells. *)
    let rec collect_walk lo hi acc node =
      match node with
      | Tail _ -> acc
      | Node n ->
          let v = M.get_key n.value in
          if v > hi then acc
          else
            let acc =
              if lo <= v && v <> min_int && (not (M.get n.marked)) && M.get n.fully_linked then
                Vbl_lists.Set_intf.keep v acc
              else acc
            in
            collect_walk lo hi acc (M.get n.next.(0))

    let collect_range lo hi acc t = collect_walk lo hi acc t.head

    include Vbl_lists.Set_intf.Derive (struct
      type nonrec t = t

      let collect_range = collect_range
    end)

    (* [check level] for [level] and every level above it, up to the
       first error. *)
    let rec every_level level check =
      if level >= max_level then Ok ()
      else match check level with Ok () -> every_level (level + 1) check | Error _ as e -> e

    let check_invariants t =
      (* Tower consistency: every node reachable at an upper level must
         also be reachable at the bottom level (upper levels are index
         sublists). *)
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
                     (M.get_key n.value))
              else check_upper level (M.get n.next.(level))
        in
        every_level 1 (fun level -> check_upper level t.head)
      in
      (* Bottom level sorted and clean; every level a sublist of level 0;
         towers internally consistent. *)
      let rec check_level level last node steps =
        if steps > 10_000_000 then Error "traversal did not terminate (cycle?)"
        else
          match node with
          | Tail n ->
              if M.get_key n.value = max_int then Ok ()
              else Error "tail sentinel does not store max_int"
          | Node n ->
              let v = M.get_key n.value in
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
      match every_level 0 (fun level -> check_level level min_int t.head 0) with
      | Ok () -> sublist_check ()
      | Error _ as e -> e
  end

  (** The lazy skip list of Herlihy, Lev, Luchangco & Shavit, as presented
      in Herlihy & Shavit ch. 14.3: the skip-list analogue of the Lazy
      Linked List, and the baseline for the paper's concluding-remarks
      conjecture that its list-level optimizations generalise upwards. *)
  module Lazy = struct
    include Common

    let name = "lazy-skiplist"

    (* Validation: predecessor and successor unmarked, and adjacent. *)
    let[@hot] valid pred succ level =
      (not (node_marked pred))
      && (not (node_marked succ))
      && M.get (next_cell pred level) == succ

    (* The victim is the node found at its top level, fully linked and
       unmarked; anything else returns false. *)
    let[@hot] select _ lfound succs =
      if
        lfound <> -1
        && node_fully_linked succs.(lfound)
        && height succs.(lfound) - 1 = lfound
        && not (node_marked succs.(lfound))
      then lfound
      else -1

    let insert t v = insert_with valid t v
    let remove t v = remove_with select t v
  end

  (** A VBL-style skip list: the paper's concluding-remarks direction
      ("generalizations of linked lists, such as skip-lists ... may allow
      for optimizations similar to the ones proposed in this paper"), made
      concrete.

      Transferring the paper's ideas turns out to be a sharper exercise
      than for lists, because the lazy skip list {e already} validates
      values before locking: its failed inserts and removes return without
      touching a lock.  What still over-synchronises, and what this
      variant relaxes:

      - {b validation demands an unmarked successor} — the lazy skip list's
        insert revalidates [not succ.marked] under the predecessor lock and
        restarts if a successor is being removed, even though linking in
        front of a marked node is harmless: the remover holds no lock on
        our predecessor, and its own validation ([pred.next == victim])
        will re-route it through the new node.  This variant validates
        adjacency only, accepting those schedules;
      - {b removal requires finding the victim at its top level}
        ([height - 1 = lfound]) and returns false otherwise, rejecting
        schedules where a concurrent insert of a taller tower shadows the
        victim; this variant removes whatever unmarked, fully linked node
        holds the value at the bottom level, validating under the locks.

      What cannot be relaxed (each attempt provably breaks
      linearizability): a duplicate insert must wait for the found node's
      [fully_linked] flag (returning false earlier has no valid
      linearization point), and a remover must wait for it too (unlinking
      a partially linked tower lets the in-flight insert resurrect upper
      levels).  Same-key races therefore retain bounded waits, unlike the
      list case — a genuine asymmetry between lists and skip lists that
      EXPERIMENTS.md reports alongside the throughput comparison. *)
  module Vbl = struct
    include Common

    let name = "vbl-skiplist"

    (* The victim is the bottom-level node holding [v] (value-aware: an
       absent value returns false with no lock taken), once its tower is
       complete. *)
    let[@hot] select v _ succs =
      if node_value succs.(0) <> v then -1
      else begin
        while not (node_fully_linked succs.(0)) do
          Domain.cpu_relax ()
        done;
        0
      end

    (* Relaxed validation: a live, adjacent predecessor only; a marked
       successor is fine (its remover re-routes through the new node). *)
    let insert t v = insert_with live_adjacent t v
    let remove t v = remove_with select t v
  end
end
