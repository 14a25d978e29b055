(** Abstract schedules of the sequential list [LL] (paper §2.2).

    This module executes the {e sequential} code of Algorithm 1 step by
    step, one step machine per high-level operation, against a shared
    abstract list — i.e. it generates exactly the "schedules" of the paper:
    interleavings of LL's reads, writes and node creations with no
    synchronization whatsoever.  Schedules built here can then be

    - checked for {e correctness} per Definition 1 ([correct]): local
      serializability with respect to LL plus linearizability of every
      contains-extension;
    - enumerated exhaustively for small scenarios ([enumerate]);
    - translated into {!Directed} scripts ([to_script]) and driven against
      a real implementation — which is how the repository demonstrates
      concurrency-optimality (Theorem 3) on bounded configurations.  *)

type kind = Insert | Remove | Contains

type opspec = { kind : kind; v : int }

let insert v = { kind = Insert; v }
let remove v = { kind = Remove; v }
let contains v = { kind = Contains; v }

(* Abstract list node: values immutable, [next] the only shared mutable. *)
type node = { id : int; value : int; mutable next : node }

type step =
  | S_read_next of { op : int; node : node; seen : node }
  | S_read_val of { op : int; node : node; seen : int }
  | S_new of { op : int; node : node; init_next : node; consistent : bool }
      (** [consistent] — line 13 of LL initialises the new node from
          [prev.next]; in a sequential execution that is necessarily the
          [curr] the traversal stopped at.  The flag records whether that
          held here; local serializability requires it. *)
  | S_write_next of { op : int; node : node; target : node }
  | S_return of { op : int; result : bool }

(* Program counter of one LL operation (decision logic between shared
   accesses is collapsed into the transition function). *)
type pc =
  | P_start  (* next: read prev.next *)
  | P_read_val  (* next: read curr.val *)
  | P_advance  (* next: read curr.next, shift the window *)
  | P_act  (* traversal done: insert/remove/contains specific *)
  | P_insert_write  (* next: write prev.next <- new node *)
  | P_remove_read  (* next: read curr.next (line 23) *)
  | P_remove_write  (* next: write prev.next <- tnext *)
  | P_return
  | P_done

type machine = {
  spec : opspec;
  mutable pc : pc;
  mutable prev : node;
  mutable curr : node;  (* meaningful from P_read_val on *)
  mutable tval : int;
  mutable new_node : node;  (* meaningful in P_insert_write *)
  mutable tnext : node;  (* meaningful in P_remove_write *)
  mutable result : bool option;
}

type t = {
  head : node;
  tail : node;
  initial : int list;  (* pre-populated values, seeded into histories *)
  machines : machine array;
  mutable next_id : int;
  mutable trace : step list;  (* reversed *)
}

let create ~initial ~ops =
  let rec tail = { id = 1; value = max_int; next = tail } in
  let head = { id = 0; value = min_int; next = tail } in
  let next_id = ref 2 in
  (* Pre-populate sequentially (sorted input required). *)
  let sorted = List.sort_uniq compare initial in
  let link prev v =
    let n = { id = !next_id; value = v; next = tail } in
    incr next_id;
    prev.next <- n;
    n
  in
  ignore (List.fold_left link head sorted);
  let machines =
    Array.of_list
      (List.map
         (fun spec ->
           {
             spec;
             pc = P_start;
             prev = head;
             curr = head;
             tval = 0;
             new_node = head;
             tnext = head;
             result = None;
           })
         ops)
  in
  { head; tail; initial = sorted; machines; next_id = !next_id; trace = [] }

let n_ops t = Array.length t.machines

let enabled t i = t.machines.(i).pc <> P_done

let enabled_ops t = List.filter (enabled t) (List.init (n_ops t) Fun.id)

let finished t = not (Array.exists (fun m -> m.pc <> P_done) t.machines)

let record t s = t.trace <- s :: t.trace

(** Run one step of operation [i]: exactly one shared access (or the
    return).  Mirrors Algorithm 1 line by line. *)
let step t i =
  let m = t.machines.(i) in
  let v = m.spec.v in
  match m.pc with
  | P_done -> invalid_arg "Ll_abstract.step: operation already finished"
  | P_start ->
      m.curr <- m.prev.next;
      record t (S_read_next { op = i; node = m.prev; seen = m.curr });
      m.pc <- P_read_val
  | P_read_val ->
      m.tval <- m.curr.value;
      record t (S_read_val { op = i; node = m.curr; seen = m.tval });
      m.pc <-
        (if m.tval < v then P_advance
         else
           match m.spec.kind with
           | Remove when m.tval = v -> P_remove_read
           | Remove | Insert | Contains -> P_act)
  | P_advance ->
      let succ = m.curr.next in
      record t (S_read_next { op = i; node = m.curr; seen = succ });
      m.prev <- m.curr;
      m.curr <- succ;
      m.pc <- P_read_val
  | P_act -> begin
      match m.spec.kind with
      | Contains ->
          m.result <- Some (m.tval = v);
          record t (S_return { op = i; result = m.tval = v });
          m.pc <- P_done
      | Insert ->
          if m.tval = v then begin
            m.result <- Some false;
            record t (S_return { op = i; result = false });
            m.pc <- P_done
          end
          else begin
            (* Line 13: X <- new-node(v, prev.next). *)
            let init_next = m.prev.next in
            let x = { id = t.next_id; value = v; next = init_next } in
            t.next_id <- t.next_id + 1;
            record t (S_new { op = i; node = x; init_next; consistent = init_next == m.curr });
            m.new_node <- x;
            m.pc <- P_insert_write
          end
      | Remove ->
          (* tval = v was dispatched to P_remove_read at P_read_val. *)
          m.result <- Some false;
          record t (S_return { op = i; result = false });
          m.pc <- P_done
    end
  | P_insert_write ->
      record t (S_write_next { op = i; node = m.prev; target = m.new_node });
      m.prev.next <- m.new_node;
      m.result <- Some true;
      m.pc <- P_return
  | P_remove_read ->
      m.tnext <- m.curr.next;
      record t (S_read_next { op = i; node = m.curr; seen = m.tnext });
      m.pc <- P_remove_write
  | P_remove_write ->
      record t (S_write_next { op = i; node = m.prev; target = m.tnext });
      m.prev.next <- m.tnext;
      m.result <- Some true;
      m.pc <- P_return
  | P_return ->
      record t (S_return { op = i; result = true });
      m.pc <- P_done

let results t = Array.map (fun m -> m.result) t.machines

let schedule t = List.rev t.trace

(** Values present at the end, by traversal from the head.  Next pointers
    always lead to strictly larger values, so this terminates even on
    schedules that corrupted the list. *)
let final_values t =
  let rec loop acc n = if n == t.tail then List.rev acc else loop (n.value :: acc) n.next in
  loop [] t.head.next

let op_of_step = function
  | S_read_next { op; _ }
  | S_read_val { op; _ }
  | S_new { op; _ }
  | S_write_next { op; _ }
  | S_return { op; _ } -> op

(** Local serializability with respect to LL (Definition 1(1)).

    An operation's steps here are generated by LL's own code, so its control
    flow is LL's by construction; what can still diverge from every
    sequential execution is the {e data} it observed:
    - the traversal's value reads must be strictly increasing (in a
      sequential execution the traversal walks one static sorted list);
    - the successor that line 13 re-reads into the new node must still be
      the [curr] the traversal stopped at.

    Conversely, when both hold, the static list "head -> observed chain ->
    tail" realises the very same step sequence sequentially. *)
let locally_serializable t =
  let ok = ref true in
  let last_val = Array.make (n_ops t) min_int in
  List.iter
    (fun s ->
      match s with
      | S_read_val { op; seen; _ } ->
          if seen < last_val.(op) then ok := false;
          last_val.(op) <- seen
      | S_new { consistent; _ } -> if not consistent then ok := false
      | S_read_next _ | S_write_next _ | S_return _ -> ())
    (schedule t);
  !ok

let spec_to_model { kind; v } =
  match kind with
  | Insert -> Vbl_spec.Set_model.Insert v
  | Remove -> Vbl_spec.Set_model.Remove v
  | Contains -> Vbl_spec.Set_model.Contains v

(** The high-level history of a finished schedule: operation [i] is invoked
    at its first step's position and returns at its [S_return]'s position. *)
let history t =
  let steps = Array.of_list (schedule t) in
  let first = Array.make (n_ops t) max_int in
  let last = Array.make (n_ops t) max_int in
  Array.iteri
    (fun pos s ->
      let op = op_of_step s in
      if first.(op) = max_int then first.(op) <- pos;
      match s with S_return _ -> last.(op) <- pos | _ -> ())
    steps;
  let entries = ref [] in
  (* Pre-populated values: completed inserts before time zero, so
     linearizability is judged from the empty set per the specification. *)
  List.iteri
    (fun k v ->
      let at = -2 * (List.length t.initial - k) in
      entries :=
        (1000 + k, 0, Vbl_spec.Set_model.Insert v, at, Vbl_spec.History.Returned true, at + 1)
        :: !entries)
    t.initial;
  Array.iteri
    (fun i m ->
      let completion =
        match m.result with
        | Some r -> Vbl_spec.History.Returned r
        | None -> Vbl_spec.History.Pending
      in
      entries := (i, 0, spec_to_model m.spec, first.(i), completion, last.(i)) :: !entries)
    t.machines;
  Vbl_spec.History.of_list !entries

(** Definition 1: correct = locally serializable, and for every probe value
    [v] the extension of the schedule with a trailing [contains(v)] is
    linearizable.  Probing every key that any operation or the final list
    mentions is exhaustive: a contains on an untouched key returns false in
    every linearization either way. *)
let correct t =
  if not (finished t) then invalid_arg "Ll_abstract.correct: schedule not finished";
  locally_serializable t
  &&
  let probes =
    List.sort_uniq compare
      (final_values t @ Array.to_list (Array.map (fun m -> m.spec.v) t.machines))
  in
  let base = history t in
  let final = final_values t in
  let horizon =
    1 + List.fold_left (fun acc (o : Vbl_spec.History.operation) -> max acc o.returned_at)
          0 (Vbl_spec.History.operations base)
  in
  List.for_all
    (fun v ->
      let present = List.mem v final in
      let probe_entries =
        List.map
          (fun (o : Vbl_spec.History.operation) ->
            (o.thread, o.index, o.op, o.invoked_at, o.completion, o.returned_at))
          (Vbl_spec.History.operations base)
        @ [
            ( n_ops t,
              0,
              Vbl_spec.Set_model.Contains v,
              horizon + 1,
              Vbl_spec.History.Returned present,
              horizon + 2 );
          ]
      in
      Vbl_spec.Linearizability.check (Vbl_spec.History.of_list probe_entries))
    probes

(** Exhaustive enumeration of all schedules for a scenario: every
    interleaving of the operations' LL steps.  Calls [f] on each finished
    machine; returns [false] if [max] truncated the enumeration. *)
let enumerate ~initial ~ops ?(max = 1_000_000) (f : t -> unit) =
  let count = ref 0 in
  let complete = ref true in
  (* Re-execution DFS: replay a prefix of op choices, then branch. *)
  let rec explore prefix =
    if !count >= max then complete := false
    else begin
      let t = create ~initial ~ops in
      List.iter (fun i -> step t i) (List.rev prefix);
      branch t prefix
    end
  and branch t prefix =
    if finished t then begin
      incr count;
      f t
    end
    else begin
      match enabled_ops t with
      | [] -> assert false
      | first :: rest ->
          (* Continue the first choice in-place; re-execute for the rest. *)
          List.iter (fun c -> if !count < max then explore (c :: prefix)) rest;
          step t first;
          branch t (first :: prefix)
    end
  in
  explore [];
  !complete

let node_name (n : node) = Vbl_lists.Naming.node n.value

(** Translate an abstract schedule into a directed-driver script: data reads
    and effective writes keep their order; implementation-specific metadata
    (locks, marks, validation re-reads) is left to the driver's skip rule.
    Patterns are exact at cell level so that an implementation's extra data
    accesses (e.g. VBL's contains reading the head sentinel's value, or its
    validation re-reads under lock) cannot alias the scripted LL steps. *)
let to_script t =
  let read cell = Pattern.Exact (Vbl_memops.Instr_mem.Read, cell) in
  let write cell = Pattern.Exact (Vbl_memops.Instr_mem.Write, cell) in
  List.map
    (fun s ->
      match s with
      | S_read_next { op; node; _ } ->
          Directed.Step (op, read (Vbl_lists.Naming.next_cell (node_name node)))
      | S_read_val { op; node; _ } ->
          Directed.Step (op, read (Vbl_lists.Naming.value_cell (node_name node)))
      | S_new { op; node; _ } -> Directed.Step (op, Pattern.New_node (node_name node))
      | S_write_next { op; node; _ } ->
          Directed.Step (op, write (Vbl_lists.Naming.next_cell (node_name node)))
      | S_return { op; result } -> Directed.Ret (op, result))
    (schedule t)

let pp_step ppf = function
  | S_read_next { op; node; _ } -> Format.fprintf ppf "op%d: R(%s.next)" op (node_name node)
  | S_read_val { op; node; _ } -> Format.fprintf ppf "op%d: R(%s.val)" op (node_name node)
  | S_new { op; node; _ } -> Format.fprintf ppf "op%d: new(%s)" op (node_name node)
  | S_write_next { op; node; target } ->
      Format.fprintf ppf "op%d: W(%s.next <- %s)" op (node_name node) (node_name target)
  | S_return { op; result } -> Format.fprintf ppf "op%d: return %b" op result

let pp_opspec ppf { kind; v } =
  match kind with
  | Insert -> Format.fprintf ppf "insert(%d)" v
  | Remove -> Format.fprintf ppf "remove(%d)" v
  | Contains -> Format.fprintf ppf "contains(%d)" v
