(** The Value-Based List (the paper's §3, Algorithm 2), as a
    {!Set_intf.MAKER}: {!Lock_list.Make}'s [Vbl] set. *)

module Make (M : Vbl_memops.Mem_intf.S) : Set_intf.S
