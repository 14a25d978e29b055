(* The [Vbl] set of {!Lock_list} as a maker, for the functors that take
   one (the sharded frontends). *)

module Make (M : Vbl_memops.Mem_intf.S) = struct
  module L = Lock_list.Make (M)
  include L.Vbl
end
