(* Negative control: a miniature list that satisfies all four rules —
   guarded naming, balanced or [@acquires]-tagged locking, a
   zero-allocation [@hot] walk, and a successor link in first
   position.  Must produce no findings. *)
module Make (M : Mem) = struct
  type node =
    | Node of { next : node M.link; value : int M.cell; lock : M.lock }
    | Tail of { value : int M.cell }

  (* One builder for every backend: only the name expression is guarded,
     and the real backend's [field] ignores the node name and suffix. *)
  let make_node v next =
    let line = M.fresh_line () in
    let nm = if M.named then Naming.node v else "" in
    M.new_node ~name:nm ~line;
    Node
      {
        next = M.link nm ".next" ~line next;
        value = M.field nm ".val" ~line v;
        lock = M.field_lock nm ".lock" ~line ();
      }

  let[@hot] [@acquires] lock_next_at node at =
    M.lock (node_lock node);
    if M.get_link (linked node) next_of == at then true
    else begin
      M.unlock (node_lock node);
      false
    end

  let[@hot] rec walk v curr =
    if node_value curr < v then walk v (M.get_link (linked curr) next_of) else curr

  let insert t v =
    let prev = walk v t.head in
    if lock_next_at prev (M.get_link (linked prev) next_of) then begin
      M.set_link (linked prev) next_of (make_node v (M.get_link (linked prev) next_of));
      M.unlock (node_lock prev);
      true
    end
    else false
end
