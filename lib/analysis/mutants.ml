(** Seeded-bug variants of the VBL and lazy lists — the ground truth the
    analysis layer is validated against.

    Each mutant is the clean algorithm with exactly one discipline edit,
    selected by a knob module so the diff against the clean code is a
    single conditional.  The knobs, and what catches each mutant:

    - {!Vbl_no_deleted_check}: the value-aware try-lock skips the
      logical-delete flag test (§3.1's "not deleted" premise), so an update
      can link into an already-unlinked node — a lost update the σ̄-extended
      linearizability check exposes.
    - {!Vbl_unlocked_unlink}: remove unlinks without holding [prev]'s lock;
      the unlink store races with a concurrent locked insert into the same
      [next] cell — the happens-before detector flags the unordered plain
      writes (and the lockset lint, in orders where the unlocked store comes
      second).
    - {!Vbl_no_logical_delete}: remove unlinks without first marking the
      victim, so a concurrent insert that validated against the victim
      succeeds into dead memory — lost update, again caught by σ̄.
    - {!Vbl_leaky_lock}: insert returns without releasing [prev]'s lock —
      the lock-discipline linter reports lock-held-at-return (and other
      interleavings deadlock outright).
    - {!Lazy_no_validation}: the lazy list's post-lock validation is
      short-circuited, resurrecting the Heller et al. algorithm's whole
      reason for validating — unlinked predecessors and double removes;
      caught as a non-linearizable history.
    - {!Bst_no_version_recheck}: the versioned-lock BST's insert links
      into its descent window without re-checking the window version, so
      two inserts racing for one empty slot both link and the second
      overwrites the first — a lost update caught by σ̄.
    - {!Bst_unlocked_rotation_window}: the BST's physical splice decides
      its restructuring window from the victim's children read {e before}
      the victim's tree lock is taken, letting a concurrent insert link a
      fresh leaf under the victim inside the window — the stale splice
      drops the new key with the victim, again caught by σ̄.

    To add a mutation: add a knob defaulting to the clean behaviour, guard
    the single deviating statement on it, instantiate, and register the
    instance in {!all} plus a catching scenario in {!Check.mutation_cases}. *)

module Instr = Vbl_memops.Instr_mem
module Naming = Vbl_lists.Naming

module type VBL_KNOBS = sig
  val name : string

  val deleted_check : bool
  (** lock validations test the logical-delete flag (clean: [true]) *)

  val locked_unlink : bool
  (** remove holds [prev]'s lock across the unlink (clean: [true]) *)

  val logical_delete : bool
  (** remove marks the victim before unlinking (clean: [true]) *)

  val release_after_insert : bool
  (** insert releases [prev]'s lock on the success path (clean: [true]) *)
end

(** The VBL algorithm (verbatim from [Vbl_lists.Vbl_list]) with the
    discipline edits of [K] applied. *)
module Make_vbl (K : VBL_KNOBS) (M : Vbl_memops.Mem_intf.S) : Vbl_lists.Set_intf.S = struct
  let name = K.name

  type node =
    | Node of {
        value : int M.cell;
        next : node M.cell;
        deleted : bool M.cell;
        lock : M.lock;
      }
    | Tail of { value : int M.cell; deleted : bool M.cell; lock : M.lock }

  type t = { head : node }

  let node_value = function Node n -> M.get n.value | Tail n -> M.get n.value
  let node_deleted = function Node n -> M.get n.deleted | Tail n -> M.get n.deleted
  let node_lock = function Node n -> n.lock | Tail n -> n.lock
  let next_cell_exn = function Node n -> n.next | Tail _ -> assert false

  let make_node value next =
    let line = M.fresh_line () in
    if M.named then begin
      let nm = Naming.node value in
      M.new_node ~name:nm ~line;
      Node
        {
          value = M.make ~name:(Naming.value_cell nm) ~line value;
          next = M.make ~name:(Naming.next_cell nm) ~line next;
          deleted = M.make ~name:(Naming.deleted_cell nm) ~line false;
          lock = M.make_lock ~name:(Naming.lock_cell nm) ~line ();
        }
    end
    else
      Node
        {
          value = M.make ~line value;
          next = M.make ~line next;
          deleted = M.make ~line false;
          lock = M.make_lock ~line ();
        }

  let create () =
    let tl = M.fresh_line () in
    let tail =
      Tail
        {
          value = M.make ~name:(Naming.value_cell Naming.tail) ~line:tl max_int;
          deleted = M.make ~name:(Naming.deleted_cell Naming.tail) ~line:tl false;
          lock = M.make_lock ~name:(Naming.lock_cell Naming.tail) ~line:tl ();
        }
    in
    let hl = M.fresh_line () in
    let head =
      Node
        {
          value = M.make ~name:(Naming.value_cell Naming.head) ~line:hl min_int;
          next = M.make ~name:(Naming.next_cell Naming.head) ~line:hl tail;
          deleted = M.make ~name:(Naming.deleted_cell Naming.head) ~line:hl false;
          lock = M.make_lock ~name:(Naming.lock_cell Naming.head) ~line:hl ();
        }
    in
    { head }

  let check_key v =
    if v = min_int || v = max_int then
      invalid_arg "list-based set: key must be strictly between min_int and max_int"

  let lock_next_at node at =
    M.lock (node_lock node);
    if ((not K.deleted_check) || not (node_deleted node)) && M.get (next_cell_exn node) == at
    then true
    else begin
      M.unlock (node_lock node);
      false
    end

  let lock_next_at_value node v =
    M.lock (node_lock node);
    if
      ((not K.deleted_check) || not (node_deleted node))
      && node_value (M.get (next_cell_exn node)) = v
    then true
    else begin
      M.unlock (node_lock node);
      false
    end

  let rec insert_attempt t v prev =
    let prev = if node_deleted prev then t.head else prev in
    insert_walk t v prev (M.get (next_cell_exn prev))

  and insert_walk t v prev curr =
    if node_value curr < v then insert_walk t v curr (M.get (next_cell_exn curr))
    else if node_value curr = v then false
    else begin
      let x = make_node v curr in
      if lock_next_at prev curr then begin
        M.set (next_cell_exn prev) x;
        if K.release_after_insert then M.unlock (node_lock prev);
        true
      end
      else insert_attempt t v prev
    end

  let insert t v =
    check_key v;
    insert_attempt t v t.head

  let rec remove_attempt t v prev =
    let prev = if node_deleted prev then t.head else prev in
    remove_walk t v prev (M.get (next_cell_exn prev))

  and remove_walk t v prev curr =
    if node_value curr < v then remove_walk t v curr (M.get (next_cell_exn curr))
    else if node_value curr <> v then false
    else begin
      let next = M.get (next_cell_exn curr) in
      if K.locked_unlink then begin
        if not (lock_next_at_value prev v) then remove_attempt t v prev
        else begin
          let curr = M.get (next_cell_exn prev) in
          if not (lock_next_at curr next) then begin
            M.unlock (node_lock prev);
            remove_attempt t v prev
          end
          else begin
            (match curr with
            | Node n -> if K.logical_delete then M.set n.deleted true
            | Tail _ -> assert false);
            M.set (next_cell_exn prev) (M.get (next_cell_exn curr));
            M.unlock (node_lock curr);
            M.unlock (node_lock prev);
            true
          end
        end
      end
      else if
        (* seeded mutant: unlink without holding [prev]'s lock — the
           store below is unprotected against a concurrent insert. *)
        not (lock_next_at curr next)
      then remove_attempt t v prev
      else begin
        (match curr with
        | Node n -> if K.logical_delete then M.set n.deleted true
        | Tail _ -> assert false);
        M.set (next_cell_exn prev) (M.get (next_cell_exn curr));
        M.unlock (node_lock curr);
        true
      end
    end

  let remove t v =
    check_key v;
    remove_attempt t v t.head

  let rec contains_walk v curr =
    if node_value curr < v then contains_walk v (M.get (next_cell_exn curr))
    else node_value curr = v

  let contains t v =
    check_key v;
    contains_walk v t.head

  let fold_range lo hi f init t =
    let rec loop acc node =
      match node with
      | Tail _ -> acc
      | Node n ->
          let v = M.get n.value in
          if v > hi then acc
          else
            let keep = lo <= v && v <> min_int && not (M.get n.deleted) in
            let acc = if keep then f acc v else acc in
            loop acc (M.get n.next)
    in
    loop init t.head

  include Vbl_lists.Set_intf.Derive (struct
    type nonrec t = t

    let fold_range = fold_range
  end)

  let check_invariants t =
    let rec loop last node steps =
      if steps > 10_000_000 then Error "traversal did not terminate (cycle?)"
      else
        match node with
        | Tail n ->
            if M.get n.value <> max_int then Error "tail sentinel does not store max_int"
            else if M.get n.deleted then Error "tail sentinel is marked deleted"
            else Ok ()
        | Node n ->
            let v = M.get n.value in
            if v <= last && steps > 0 then
              Error (Printf.sprintf "values not strictly increasing at %d" v)
            else if steps > 0 && M.get n.deleted then
              Error (Printf.sprintf "deleted node %d still reachable" v)
            else if M.lock_held (node_lock node) then
              Error (Printf.sprintf "node %d left locked" v)
            else loop v (M.get n.next) (steps + 1)
    in
    match t.head with
    | Node n when M.get n.value = min_int -> loop min_int t.head 0
    | _ -> Error "head sentinel does not store min_int"
end

module type LAZY_KNOBS = sig
  val name : string

  val validation : bool
  (** updates validate adjacency and marks after locking (clean: [true]) *)
end

(** The lazy list (verbatim from [Vbl_lists.Lazy_list]) with the
    discipline edits of [K] applied. *)
module Make_lazy (K : LAZY_KNOBS) (M : Vbl_memops.Mem_intf.S) : Vbl_lists.Set_intf.S = struct
  let name = K.name

  type node =
    | Node of {
        value : int M.cell;
        next : node M.cell;
        marked : bool M.cell;
        lock : M.lock;
      }
    | Tail of { value : int M.cell; marked : bool M.cell; lock : M.lock }

  type t = { head : node }

  let node_value = function Node n -> M.get n.value | Tail n -> M.get n.value
  let node_marked = function Node n -> M.get n.marked | Tail n -> M.get n.marked
  let node_lock = function Node n -> n.lock | Tail n -> n.lock
  let next_cell_exn = function Node n -> n.next | Tail _ -> assert false

  let make_node value next =
    let line = M.fresh_line () in
    if M.named then begin
      let nm = Naming.node value in
      M.new_node ~name:nm ~line;
      Node
        {
          value = M.make ~name:(Naming.value_cell nm) ~line value;
          next = M.make ~name:(Naming.next_cell nm) ~line next;
          marked = M.make ~name:(Naming.deleted_cell nm) ~line false;
          lock = M.make_lock ~name:(Naming.lock_cell nm) ~line ();
        }
    end
    else
      Node
        {
          value = M.make ~line value;
          next = M.make ~line next;
          marked = M.make ~line false;
          lock = M.make_lock ~line ();
        }

  let make_sentinel value =
    let nm = Naming.node value in
    let line = M.fresh_line () in
    ( line,
      M.make ~name:(Naming.value_cell nm) ~line value,
      M.make ~name:(Naming.deleted_cell nm) ~line false,
      M.make_lock ~name:(Naming.lock_cell nm) ~line () )

  let create () =
    let _, tv, tm, tlk = make_sentinel max_int in
    let tail = Tail { value = tv; marked = tm; lock = tlk } in
    let hl, hv, hm, hlk = make_sentinel min_int in
    let head =
      Node
        {
          value = hv;
          next = M.make ~name:(Naming.next_cell Naming.head) ~line:hl tail;
          marked = hm;
          lock = hlk;
        }
    in
    { head }

  let check_key v =
    if v = min_int || v = max_int then
      invalid_arg "list-based set: key must be strictly between min_int and max_int"

  let validate prev curr =
    (not K.validation)
    (* seeded mutant: trust the unlocked traversal blindly *)
    || (not (node_marked prev))
       && (not (node_marked curr))
       && M.get (next_cell_exn prev) == curr

  let rec insert_walk t v prev curr =
    if node_value curr < v then insert_walk t v curr (M.get (next_cell_exn curr))
    else begin
      M.lock (node_lock prev);
      M.lock (node_lock curr);
      if validate prev curr then begin
        let tval = node_value curr in
        let result =
          if tval = v then false
          else begin
            M.set (next_cell_exn prev) (make_node v curr);
            true
          end
        in
        M.unlock (node_lock curr);
        M.unlock (node_lock prev);
        result
      end
      else begin
        M.unlock (node_lock curr);
        M.unlock (node_lock prev);
        insert_walk t v t.head (M.get (next_cell_exn t.head))
      end
    end

  let insert t v =
    check_key v;
    insert_walk t v t.head (M.get (next_cell_exn t.head))

  let rec remove_walk t v prev curr =
    if node_value curr < v then remove_walk t v curr (M.get (next_cell_exn curr))
    else begin
      M.lock (node_lock prev);
      M.lock (node_lock curr);
      if validate prev curr then begin
        let tval = node_value curr in
        let result =
          if tval <> v then false
          else begin
            (match curr with Node n -> M.set n.marked true | Tail _ -> assert false);
            M.set (next_cell_exn prev) (M.get (next_cell_exn curr));
            true
          end
        in
        M.unlock (node_lock curr);
        M.unlock (node_lock prev);
        result
      end
      else begin
        M.unlock (node_lock curr);
        M.unlock (node_lock prev);
        remove_walk t v t.head (M.get (next_cell_exn t.head))
      end
    end

  let remove t v =
    check_key v;
    remove_walk t v t.head (M.get (next_cell_exn t.head))

  let rec contains_walk v curr =
    if node_value curr < v then contains_walk v (M.get (next_cell_exn curr))
    else node_value curr = v && not (node_marked curr)

  let contains t v =
    check_key v;
    contains_walk v (M.get (next_cell_exn t.head))

  let fold_range lo hi f init t =
    let rec loop acc node =
      match node with
      | Tail _ -> acc
      | Node n ->
          let v = M.get n.value in
          if v > hi then acc
          else
            let keep = lo <= v && v <> min_int && not (M.get n.marked) in
            let acc = if keep then f acc v else acc in
            loop acc (M.get n.next)
    in
    loop init t.head

  include Vbl_lists.Set_intf.Derive (struct
    type nonrec t = t

    let fold_range = fold_range
  end)

  let check_invariants t =
    let rec loop last node steps =
      if steps > 10_000_000 then Error "traversal did not terminate (cycle?)"
      else
        match node with
        | Tail n ->
            if M.get n.value <> max_int then Error "tail sentinel does not store max_int"
            else if M.get n.marked then Error "tail sentinel is marked"
            else Ok ()
        | Node n ->
            let v = M.get n.value in
            if v <= last && steps > 0 then
              Error (Printf.sprintf "values not strictly increasing at %d" v)
            else if steps > 0 && M.get n.marked then
              Error (Printf.sprintf "marked node %d still reachable" v)
            else loop v (M.get n.next) (steps + 1)
    in
    match t.head with
    | Node n when M.get n.value = min_int -> loop min_int t.head 0
    | _ -> Error "head sentinel does not store min_int"
end

module type BST_KNOBS = sig
  val name : string

  val version_recheck : bool
  (** insert validates the window version under the tree lock (clean: [true]) *)

  val locked_window : bool
  (** the splice holds the victim's tree lock across the window (clean: [true]) *)
end

(** The partially-external versioned-lock BST (verbatim from
    [Vbl_trees.Vbl_bst]) with the discipline edits of [K] applied:

    - [version_recheck = false]: the link after a failed descent skips
      the [p.ver = s] comparison, so two inserts racing for one empty
      slot both link and the second overwrites the first — a lost update
      the σ̄-extended check exposes;
    - [locked_window = false]: the physical splice decides its
      restructuring window from the victim's children read before the
      victim's tree lock is taken, so a concurrent insert can link a
      fresh leaf under the victim inside the window and the stale
      splice drops the new key with it — lost update again. *)
module Make_bst (K : BST_KNOBS) (M : Vbl_memops.Mem_intf.S) : Vbl_lists.Set_intf.S = struct
  let name = K.name

  type node =
    | Nil
    | Node of {
        key : int;
        deleted : bool M.cell;
        unlinked : bool M.cell;
        left : node M.cell;
        right : node M.cell;
        ver : int M.cell;
        slock : M.lock;
        tlock : M.lock;
      }

  type t = { root : node }

  let node_name k = if k = max_int then "rt" else "N" ^ string_of_int k

  let make_node k =
    let line = M.fresh_line () in
    if M.named then begin
      let nm = node_name k in
      M.new_node ~name:nm ~line;
      Node
        {
          key = k;
          deleted = M.make ~name:(nm ^ ".del") ~line false;
          unlinked = M.make ~name:(nm ^ ".ulk") ~line false;
          left = M.make ~name:(nm ^ ".left") ~line Nil;
          right = M.make ~name:(nm ^ ".right") ~line Nil;
          ver = M.make ~name:(nm ^ ".ver") ~line 0;
          slock = M.make_lock ~name:(nm ^ ".slock") ~line ();
          tlock = M.make_lock ~name:(nm ^ ".lock") ~line ();
        }
    end
    else
      Node
        {
          key = k;
          deleted = M.make ~line false;
          unlinked = M.make ~line false;
          left = M.make ~line Nil;
          right = M.make ~line Nil;
          ver = M.make ~line 0;
          slock = M.make_lock ~line ();
          tlock = M.make_lock ~line ();
        }

  let create () = { root = make_node max_int }

  let check_key v =
    if v = min_int || v = max_int then
      invalid_arg "bst: key must be strictly between min_int and max_int"

  let rec contains_walk n v =
    match n with
    | Node r ->
        if v = r.key then not (M.get r.deleted)
        else contains_walk (M.get (if v < r.key then r.left else r.right)) v
    | Nil -> false

  let contains t v =
    check_key v;
    contains_walk t.root v

  type where = Found of node * node | Missing of node * int

  let locate t v =
    let rec go p n =
      match n with
      | Nil -> assert false
      | Node r -> (
          if v = r.key then Found (p, n)
          else
            let c = if v < r.key then r.left else r.right in
            match M.get c with
            | Node _ as m -> go n m
            | Nil -> (
                let s = M.get r.ver in
                match M.get c with Node _ as m -> go n m | Nil -> Missing (n, s)))
    in
    go t.root t.root

  let insert t v =
    check_key v;
    let rec attempt () =
      match locate t v with
      | Found (_, Node n) ->
          if not (M.get n.deleted) then false
          else begin
            M.lock n.slock;
            if M.get n.unlinked then begin
              M.unlock n.slock;
              attempt ()
            end
            else if M.get n.deleted then begin
              M.set n.deleted false;
              M.unlock n.slock;
              true
            end
            else begin
              M.unlock n.slock;
              false
            end
          end
      | Missing (Node p, s) ->
          let x = make_node v in
          M.lock p.tlock;
          if
            (not (M.get p.unlinked))
            && ((not K.version_recheck)
                (* seeded mutant: link into a window whose version moved *)
               || M.get p.ver = s)
          then begin
            M.set (if v < p.key then p.left else p.right) x;
            M.set p.ver (s + 1);
            M.unlock p.tlock;
            true
          end
          else begin
            M.unlock p.tlock;
            attempt ()
          end
      | Found (_, Nil) | Missing (Nil, _) -> assert false
    in
    attempt ()

  let cleanup parent victim =
    match (parent, victim) with
    | Node p, Node n ->
        M.lock n.slock;
        if M.get n.deleted && not (M.get n.unlinked) then begin
          (* seeded mutant: the splice window is read before the victim's
             tree lock is taken, so a concurrent insert can still link a
             fresh leaf under [n] and the stale window splices it away *)
          let stale_window =
            if K.locked_window then None else Some (M.get n.left, M.get n.right)
          in
          M.lock p.tlock;
          M.lock n.tlock;
          let pc = if n.key < p.key then p.left else p.right in
          if M.get pc == victim && not (M.get p.unlinked) then begin
            let window =
              match stale_window with
              | Some w -> w
              | None -> (M.get n.left, M.get n.right)
            in
            match window with
            | Node _, Node _ -> ()
            | (Node _ as only), Nil | Nil, only ->
                M.set n.unlinked true;
                M.set pc only;
                M.set p.ver (M.get p.ver + 1)
          end;
          M.unlock n.tlock;
          M.unlock p.tlock
        end;
        M.unlock n.slock
    | _ -> assert false

  let remove t v =
    check_key v;
    let rec attempt () =
      match locate t v with
      | Missing _ -> false
      | Found (p, (Node n as victim)) ->
          if M.get n.deleted then false
          else begin
            M.lock n.slock;
            if M.get n.unlinked then begin
              M.unlock n.slock;
              attempt ()
            end
            else if M.get n.deleted then begin
              M.unlock n.slock;
              false
            end
            else begin
              M.set n.deleted true;
              M.unlock n.slock;
              cleanup p victim;
              true
            end
          end
      | Found (_, Nil) -> assert false
    in
    attempt ()

  let fold_range lo hi f init t =
    let rec go acc = function
      | Nil -> acc
      | Node n ->
          let k = n.key in
          let acc = if lo < k then go acc (M.get n.left) else acc in
          let acc =
            if lo <= k && k <= hi && k <> max_int && not (M.get n.deleted) then f acc k
            else acc
          in
          if k < hi then go acc (M.get n.right) else acc
    in
    go init t.root

  include Vbl_lists.Set_intf.Derive (struct
    type nonrec t = t

    let fold_range = fold_range
  end)

  let check_invariants t =
    let exception Bad of string in
    let check_node = function
      | Nil -> ()
      | Node n ->
          if M.get n.unlinked then
            raise (Bad (Printf.sprintf "reachable unlinked node %d" n.key));
          if M.lock_held n.slock then
            raise (Bad (Printf.sprintf "node %d state lock left held" n.key));
          if M.lock_held n.tlock then
            raise (Bad (Printf.sprintf "node %d tree lock left held" n.key))
    in
    let rec go n lo hi depth =
      match n with
      | Nil -> ()
      | Node r ->
          if depth > 1_000_000 then raise (Bad "descent did not terminate (cycle?)");
          if not (lo < r.key && r.key < hi) then
            raise (Bad (Printf.sprintf "node %d outside (%d, %d)" r.key lo hi));
          check_node n;
          go (M.get r.left) lo r.key (depth + 1);
          go (M.get r.right) r.key hi (depth + 1)
    in
    match t.root with
    | Node r when r.key = max_int -> (
        try
          if M.get r.deleted then raise (Bad "root sentinel marked deleted");
          check_node t.root;
          (match M.get r.right with
          | Node _ -> raise (Bad "root sentinel has a right child")
          | Nil -> ());
          go (M.get r.left) min_int max_int 0;
          Ok ()
        with Bad msg -> Error msg)
    | Node _ | Nil -> Error "root is not the max_int sentinel"
end

(* Clean knob settings, overridden one at a time below. *)
module Vbl_clean_knobs = struct
  let deleted_check = true
  let locked_unlink = true
  let logical_delete = true
  let release_after_insert = true
end

module Vbl_no_deleted_check =
  Make_vbl
    (struct
      include Vbl_clean_knobs

      let name = "vbl-no-deleted-check"
      let deleted_check = false
    end)
    (Instr)

module Vbl_unlocked_unlink =
  Make_vbl
    (struct
      include Vbl_clean_knobs

      let name = "vbl-unlocked-unlink"
      let locked_unlink = false
    end)
    (Instr)

module Vbl_no_logical_delete =
  Make_vbl
    (struct
      include Vbl_clean_knobs

      let name = "vbl-no-logical-delete"
      let logical_delete = false
    end)
    (Instr)

module Vbl_leaky_lock =
  Make_vbl
    (struct
      include Vbl_clean_knobs

      let name = "vbl-leaky-lock"
      let release_after_insert = false
    end)
    (Instr)

module Lazy_no_validation =
  Make_lazy
    (struct
      let name = "lazy-no-validation"
      let validation = false
    end)
    (Instr)

module Bst_clean_knobs = struct
  let version_recheck = true
  let locked_window = true
end

module Bst_no_version_recheck =
  Make_bst
    (struct
      include Bst_clean_knobs

      let name = "bst-no-version-recheck"
      let version_recheck = false
    end)
    (Instr)

module Bst_unlocked_rotation_window =
  Make_bst
    (struct
      include Bst_clean_knobs

      let name = "bst-unlocked-rotation-window"
      let locked_window = false
    end)
    (Instr)

(* Unlike the knob mutants above, this one leaves the algorithm alone and
   mutates the *backend*: the clean VBL list over the reclaiming
   instrumented memory with the grace period disabled, so a recycled node
   can be reinitialized under a parked traversal (use-after-reclaim). *)
module Vbl_reclaim_eager = struct
  include Vbl_lists.Vbl_list.Make (Vbl_memops.Instr_reclaim.Eager)

  let name = "vbl-reclaim-eager"
end

let all : (module Vbl_lists.Set_intf.S) list =
  [
    (module Vbl_no_deleted_check);
    (module Vbl_unlocked_unlink);
    (module Vbl_no_logical_delete);
    (module Vbl_leaky_lock);
    (module Lazy_no_validation);
    (module Bst_no_version_recheck);
    (module Bst_unlocked_rotation_window);
    (module Vbl_reclaim_eager);
  ]

let find nm : (module Vbl_lists.Set_intf.S) =
  match
    List.find_opt
      (fun i ->
        let module S = (val i : Vbl_lists.Set_intf.S) in
        S.name = nm)
      all
  with
  | Some i -> i
  | None -> invalid_arg ("Mutants.find: unknown mutant " ^ nm)
