(* L7 fixture: a fresh node's link written after the store that
   publishes it is flagged; the same writes in the other order, and a
   guarded store to a reachable predecessor's link, are clean. *)
module Make (M : Mem) = struct
  let late prev x next =
    M.set_link (linked prev) next_of x;
    M.set_link x next_of next

  let early prev x next =
    M.set_link x next_of next;
    M.cas_link (linked prev) next_of next x
end
