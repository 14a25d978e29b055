(** Harris-Michael lock-free list, tagged-link variant (the "RTTI"
    optimisation of §4).

    The paper's fastest Harris-Michael build avoids the
    AtomicMarkableReference indirection by letting run-time type information
    carry the mark: the successor reference is an instance of either the
    unmarked or the marked node subclass, so one load yields both the
    successor and the logical-deletion state.  The OCaml analogue is a
    two-constructor link type, [Live of node | Marked of node], in a single
    CAS-able [M.link]: one [M.get_link] per hop, no [touch], no separate
    pair line.

    Algorithmically identical to {!Harris_michael}; only the link encoding
    differs, which is exactly the ablation the paper performs. *)

module Make (M : Vbl_memops.Mem_intf.S) : Set_intf.S = struct
  let name = "harris-michael-tagged"

  module Probe = Vbl_obs.Probe
  module C = Vbl_obs.Metrics

  type node =
    | Node of { link : link M.link; value : int M.key }
    | Tail of { value : int M.key }

  (* [Live succ] — this node is present, successor is [succ].
     [Marked succ] — this node is logically deleted; same successor. *)
  and link = Live of node | Marked of node

  type t = { head : node }

  (* The link is each [Node]'s first field, an [M.link]; the tail has
     none, so every link access checks its node with [linked]. *)
  let link_of = function Node n -> n.link | Tail _ -> assert false
  let[@inline] linked = function Node _ as n -> n | Tail _ -> assert false

  (* Names are only built for instrumented backends ([M.named]).  The
     link is made before the key, the order the instrumented backends
     number their shadows in. *)
  let make_node value next =
    let line = M.fresh_line () in
    let nm = if M.named then Naming.node value else "" in
    if M.named then M.new_node ~name:nm ~line;
    let link = M.link nm ".next" ~line (Live next) in
    Node { link; value = M.key nm ".val" ~line value }

  let create () =
    let tl = M.fresh_line () in
    let tn = if M.named then Naming.tail else "" in
    let tail = Tail { value = M.key tn ".val" ~line:tl max_int } in
    let hl = M.fresh_line () in
    let hn = if M.named then Naming.head else "" in
    let link = M.link hn ".next" ~line:hl (Live tail) in
    let head = Node { link; value = M.key hn ".val" ~line:hl min_int } in
    { head }

  let check_key v =
    if v = min_int || v = max_int then
      invalid_arg "list-based set: key must be strictly between min_int and max_int"

  (* Michael's find over tagged links; same structure as the AMR variant,
     one load per hop.  [advance] is a closed top-level loop (not a
     closure over [t]/[v]) so the traversal itself allocates nothing; the
     result tuple is one small allocation per update.  Hops flush in one
     probe call per traversal (see vbl_list). *)
  let rec find t v =
    match M.get_link (linked t.head) link_of with
    | Live first as head_link -> advance t v t.head head_link first 0
    | Marked _ -> assert false (* the head sentinel is never deleted *)

  and advance t v prev prev_link curr hops =
    match curr with
    | Tail _ ->
        if !Probe.enabled then Probe.add C.Traversal_steps hops;
        (prev, prev_link, curr, max_int)
    | Node n -> begin
        match M.get_link curr link_of with
        | Marked succ ->
            let replacement = Live succ in
            Probe.count C.Cas_attempts;
            if M.cas_link (linked prev) link_of prev_link replacement then begin
              Probe.count C.Physical_unlinks;
              advance t v prev replacement succ (hops + 1)
            end
            else begin
              if !Probe.enabled then Probe.add C.Traversal_steps (hops + 1);
              Probe.count C.Cas_failures;
              Probe.count C.Restarts;
              find t v
            end
        | Live succ as curr_link ->
            let cv = M.get_key n.value in
            if cv >= v then begin
              if !Probe.enabled then Probe.add C.Traversal_steps (hops + 1);
              (prev, prev_link, curr, cv)
            end
            else advance t v curr curr_link succ (hops + 1)
      end

  let rec insert t v =
    check_key v;
    let prev, prev_link, curr, cv = find t v in
    if cv = v then false
    else begin
      let x = make_node v curr in
      Probe.count C.Cas_attempts;
      if M.cas_link (linked prev) link_of prev_link (Live x) then true
      else begin
        Probe.count C.Cas_failures;
        Probe.count C.Restarts;
        insert t v
      end
    end

  let rec remove t v =
    check_key v;
    let prev, prev_link, curr, cv = find t v in
    if cv <> v then false
    else begin
      match M.get_link (linked curr) link_of with
      | Marked _ ->
          Probe.count C.Restarts;
          remove t v
      | Live succ as curr_link ->
          Probe.count C.Cas_attempts;
          if not (M.cas_link (linked curr) link_of curr_link (Marked succ)) then begin
            Probe.count C.Cas_failures;
            Probe.count C.Restarts;
            remove t v
          end
          else begin
            Probe.count C.Logical_deletes;
            (* Best-effort physical unlink, as in the AMR variant. *)
            Probe.count C.Cas_attempts;
            if M.cas_link (linked prev) link_of prev_link (Live succ) then
              Probe.count C.Physical_unlinks
            else Probe.count C.Cas_failures;
            true
          end
    end

  (* Closed top-level walk: zero allocation per call on the real backend. *)
  let[@hot] rec contains_walk v curr hops =
    match curr with
    | Tail _ ->
        if !Probe.enabled then Probe.add C.Traversal_steps hops;
        false
    | Node n -> begin
        match M.get_link curr link_of with
        | Live succ ->
            let cv = M.get_key n.value in
            if cv < v then contains_walk v succ (hops + 1)
            else begin
              if !Probe.enabled then Probe.add C.Traversal_steps (hops + 1);
              cv = v
            end
        | Marked succ ->
            (* A marked node is absent whatever its value. *)
            let cv = M.get_key n.value in
            if cv < v then contains_walk v succ (hops + 1)
            else begin
              if !Probe.enabled then Probe.add C.Traversal_steps (hops + 1);
              false
            end
      end

  let contains t v =
    check_key v;
    match M.get_link (linked t.head) link_of with
    | Live first -> contains_walk v first 0
    | Marked _ -> assert false

  let link_parts = function Live succ -> (succ, false) | Marked succ -> (succ, true)

  let fold_range lo hi f init t =
    let rec loop acc node =
      match node with
      | Tail _ -> acc
      | Node n ->
          let succ, marked = link_parts (M.get_link node link_of) in
          let v = M.get_key n.value in
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
            if M.get_key n.value = max_int then Ok ()
            else Error "tail sentinel does not store max_int"
        | Node n ->
            let succ, _ = link_parts (M.get_link node link_of) in
            let v = M.get_key n.value in
            if v <= last && steps > 0 then
              Error (Printf.sprintf "values not strictly increasing at %d" v)
            else loop v succ (steps + 1)
    in
    match t.head with
    | Node n when M.get_key n.value = min_int -> loop min_int t.head 0
    | _ -> Error "head sentinel does not store min_int"
end
