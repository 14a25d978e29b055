(* L5 fixture: summaries are keyed by module path.  [A.peek] is called
   only inside [A.read]'s bracket; [B.peek], a different function of the
   same name that nothing in the file calls, is a root that dereferences
   outside any bracket.  Both of its dereferences are flagged. *)
module A = struct
  let peek t = M.get t.c

  let read t =
    let h = M.op_enter t.pool in
    let v = peek t in
    M.op_exit t.pool h;
    v
end

module B = struct
  let peek t = M.get t.c + M.recycle t.pool
end
