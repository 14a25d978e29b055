(** Process-wide epoch counter with per-domain announcement slots — the
    grace-period detector behind {!Pool}.

    Protocol: a domain brackets every set operation with {!enter} /
    {!leave}.  The epoch can only advance past [e] once no announcement
    older than [e] remains, so when the counter reads [e + 2] every
    operation in flight at [e] has finished and anything unlinked at [e]
    is unreachable.  See epoch.ml for the validated-announce subtlety.

    Each domain holds a small {!index}, claimed on its first call and
    handed back when the domain exits, for the next domain to reuse.  The
    announcement slots sit in a table addressed by that index, so their
    number is bounded by the peak number of live domains; {!Pool} keys
    its per-domain states by the same index. *)

val current : unit -> int
(** The current global epoch (≥ 1; announcement value 0 means quiescent). *)

val enter : unit -> int
(** Announce the calling domain as active and return the epoch it pinned.
    Allocation-free after the domain's first call. *)

val leave : unit -> unit
(** Clear the calling domain's announcement. *)

val try_advance : unit -> int
(** One advance attempt; returns the current epoch afterwards.  Never
    blocks, never allocates. *)

val index : unit -> int
(** The calling domain's index: at least 0, unique among live domains,
    and below the peak number of domains that were live at once. *)

val entry : 'a array Atomic.t -> int -> (unit -> 'a) -> 'a
(** [entry table i make] is element [i] of [table], after growing the
    table by copy and CAS to hold it, with [make ()] for each new
    element.  A copy keeps the elements it had, so an element never
    changes once it is in the table. *)
