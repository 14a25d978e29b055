(* L1 fixture: a successor link is the first field of its record or
   inline record, and a record holds at most one.  [good] and [Node]
   pass; [late] puts its link second and [Twin] holds two. *)
module Make (M : Mem) = struct
  type good = { next : good M.link; value : int M.cell }
  type late = { value : int M.cell; next : late M.link }

  type node =
    | Node of { next : node M.link; value : int M.cell }
    | Twin of { next : node M.link; prev : node M.link }
    | Tail of { value : int M.cell }
end
