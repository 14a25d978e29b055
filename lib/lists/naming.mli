(** Step-name conventions shared by all instrumented structures: the
    paper writes [h] for the head, [X_i] for the node storing value [i].
    Schedule scripts refer to implementation steps through these names. *)

val head : string
val tail : string

val node : int -> string
(** ["h"], ["t"], or ["X<value>"]. *)

val value_cell : string -> string
val next_cell : string -> string
(** The [".val"] and [".next"] cells of a node, as schedule scripts
    address them. *)

val leaf : int -> string
(** An external tree's leaf: ["Lmin"], ["Lmax"], or ["L<value>"]. *)

val router : int -> string
(** An external tree's router: ["Rmax"] or ["R<key>"]. *)

val tree_node : int -> string
(** A [vbl-bst] node: ["rt"] for the root sentinel, or ["N<key>"]. *)

val size_stripe : int -> string
(** A sharded frontend's size counter for shard [i]: ["shard<i>.size"]. *)
