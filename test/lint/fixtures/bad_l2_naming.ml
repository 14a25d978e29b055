(* L2 fixture: [Naming.*] reached outside an [if M.named] guard, both
   directly and through a local alias.  The guarded builder is clean. *)
module Naming = struct
  let head = "h"
  let value_cell nm = nm ^ ".val"
end

module N = Naming

let good named = if named then Some (Naming.value_cell Naming.head) else None
let bad () = Naming.value_cell Naming.head
let bad_alias () = N.value_cell N.head

let bad_guard_wrong_sense named =
  match named with true -> Naming.head | false -> ""

let good_when named = match () with () when named -> Naming.head | _ -> ""

(* A one-constructor builder whose name expression escapes the guard: the
   real backend would build the string only to ignore it. *)
let bad_field v =
  let line = M.fresh_line () in
  M.field (Naming.node v) ".val" ~line v
