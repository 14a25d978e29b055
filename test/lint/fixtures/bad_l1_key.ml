(* L1 fixture: in a record that holds a link, the key is field 1, right
   after the link, where the real backends' [set_key] writes; a record
   holds at most one key.  [good], [Node] and the link-less [Tail] pass;
   [far] puts its key third and [Twin] holds two. *)
module Make (M : Mem) = struct
  type good = { next : good M.link; value : int M.key }
  type far = { next : far M.link; lock : M.lock; value : int M.key }

  type node =
    | Node of { next : node M.link; value : int M.key; lock : M.lock }
    | Twin of { next : node M.link; value : int M.key; shadow : int M.key }
    | Tail of { lock : M.lock; value : int M.key; deleted : bool M.cell }
end
