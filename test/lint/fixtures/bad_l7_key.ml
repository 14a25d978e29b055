(* L7 fixture: a recycled node's key rewritten after the store that
   publishes it is flagged; the same writes before the publishing store
   are clean. *)
module Make (M : Mem) = struct
  let late prev x v =
    M.set_link (linked prev) next_of x;
    M.set_key x key_of v

  let early prev x v next =
    M.set_key x key_of v;
    M.set_link x next_of next;
    M.set_link (linked prev) next_of x
end
