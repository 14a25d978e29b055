(** The production memory backend: cells are [Atomic.t], a list node's
    successor link is the node's first field (accessed atomically in
    place) and its key the second (a plain int), locks are CAS try-locks with exponential backoff,
    instrumentation hooks are no-ops.
    See {!Mem_intf.S} for the contract. *)

include Mem_intf.S
