(** Step-name conventions shared by all instrumented structures.

    The paper's schedule figures write [h] for the head sentinel, [X_i] for
    the node storing value [i], and [new(X_i)] for node creation.  Every
    list, skiplist and tree names its nodes with these helpers and its
    cells [node ^ suffix] through [M.field] (["X1.next"], ["R4.left"]),
    so schedule scripts (lib/sched) can refer to implementation steps in
    the paper's own vocabulary. *)

let head = "h"
let tail = "t"

let node value =
  if value = min_int then head
  else if value = max_int then tail
  else "X" ^ string_of_int value

let value_cell n = n ^ ".val"
let next_cell n = n ^ ".next"

let leaf v =
  if v = min_int then "Lmin" else if v = max_int then "Lmax" else "L" ^ string_of_int v

let router k = "R" ^ if k = max_int then "max" else string_of_int k
let tree_node k = if k = max_int then "rt" else "N" ^ string_of_int k
let size_stripe i = "shard" ^ string_of_int i ^ ".size"
