(** CAS-based try-lock.

    The fast path here is the failure path: callers that cannot get the
    lock immediately are expected to go do something useful (re-validate,
    restart a traversal) rather than wait.  This is the raw primitive
    underneath the paper's value-aware try-lock (§3.1). *)

type t

val create : unit -> t

val try_lock : t -> bool
(** Single CAS attempt; [true] iff now held by the caller. *)

val lock : t -> unit
(** Blocking acquire: spin with exponential backoff until held. *)

val unlock : t -> unit

val is_locked : t -> bool
(** Racy observation, for assertions and tests only. *)
