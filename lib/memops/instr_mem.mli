(** The instrumented memory backend: every shared access performs an
    effect before taking effect, so a single-domain handler can interleave
    threads deterministically.

    Atomicity model: a resumed thread executes until its next effect, and
    every inter-effect interval contains at most one shared access, so
    schedule points and shared accesses coincide — the granularity the
    paper's schedules are defined at.  Two special cases: a blocking
    {!lock} that finds the lock held performs {!Lock_busy} (handlers park
    the thread), and {!unlock} performs {!Release} (the {e handler}
    applies the store via {!apply_release}, atomically with the schedule
    point).

    This module implements {!Mem_intf.S} but deliberately exposes its
    representation: handlers (the conductor in [vbl.sched], the cost
    simulator in [vbl.sim]) need the effect payloads and lock state, and
    the dynamic-analysis layer ([vbl.analysis]) needs the per-location
    {!shadow} records carried by every access. *)

type shadow = {
  s_loc : int;  (** unique location id; [-1] on {!no_shadow} *)
  mutable s_wr_tid : int;  (** last plain-write thread, [-1] if none *)
  mutable s_wr_clock : int;  (** that thread's clock at the write *)
  mutable s_sync : int array;  (** acquire-release vector clock; [[||]] = bottom *)
  mutable s_lockset : int array option;  (** candidate lock-set over plain writes *)
  mutable s_writers : int;  (** bitmask of plain-writer thread ids *)
}
(** Per-location analysis state.  The backend allocates one shadow per cell
    and per lock (identity plus bottom analysis fields) and never touches
    the mutable fields itself; the race detector and lock-discipline linter
    own them.  Shadows are per-instance — fresh cells mean fresh shadows —
    so explored executions cannot contaminate each other. *)

val fresh_shadow : unit -> shadow

val no_shadow : shadow
(** Placeholder carried by location-less steps ([touch], [new_node]); its
    [s_loc] is [-1] and analyses skip it. *)

type access_kind =
  | Read
  | Write
  | Cas
  | Touch
  | New_node
  | Lock_try
  | Lock_release
      (** Synthesized by schedulers for pending {!Release} effects; the
          instrumented code itself never performs an [Access] with this
          kind. *)

type access = { line : int; name : string; kind : access_kind; shadow : shadow }

type lock = { l_line : int; l_name : string; mutable held : bool; l_shadow : shadow }

type _ Effect.t +=
  | Access : access -> unit Effect.t  (** announces the access about to happen *)
  | Lock_busy : lock -> unit Effect.t  (** performer wants a held lock: park me *)
  | Release : lock -> unit Effect.t  (** handler must {!apply_release} before resuming anyone *)

val pp_kind : Format.formatter -> access_kind -> unit

val pp_access : Format.formatter -> access -> unit

type 'a cell

val named : bool
(** [true]: schedule scripts address steps by name, so algorithms must
    build the [Naming.*] vocabulary for this backend. *)

val fresh_line : unit -> int

val make : ?name:string -> line:int -> 'a -> 'a cell

val field : string -> string -> line:int -> 'a -> 'a cell
(** [field node suffix] is [make ~name:(node ^ suffix)]. *)

type 'a link

val link : string -> string -> line:int -> 'a -> 'a link
(** [link node suffix] is [field node suffix]: an instrumented link is a
    named cell. *)

val make_padded : ?name:string -> line:int -> 'a -> 'a cell
(** Identical to {!make}: padding is a physical-layout concern the
    instrumented cost model expresses through [line]s instead. *)

val get : 'a cell -> 'a

val set : 'a cell -> 'a -> unit

val cas : 'a cell -> 'a -> 'a -> bool

val get_link : 'n -> ('n -> 'a link) -> 'a
(** [get_link n next_of] is [get (next_of n)]; likewise {!set_link} and
    {!cas_link}. *)

val set_link : 'n -> ('n -> 'a link) -> 'a -> unit

val cas_link : 'n -> ('n -> 'a link) -> 'a -> 'a -> bool

type 'a key

val key : string -> string -> line:int -> 'a -> 'a key
(** [key node suffix] is [field node suffix]: an instrumented key is a
    named cell. *)

val get_key : 'a key -> 'a
(** [get_key k] is [get k], and [set_key n key_of v] is
    [set (key_of n) v]. *)

val set_key : 'n -> ('n -> 'a key) -> 'a -> unit

val last_cas_result : bool ref
(** Result of the most recent [cas] or [try_lock], readable by the
    scheduler that resumed it (schedule scripts distinguish effective
    writes from failed attempts).  Single-domain cooperative execution
    makes the singleton safe. *)

val touch : line:int -> name:string -> unit

val new_node : name:string -> line:int -> unit

val reclaiming : bool
(** [false]: the plain instrumented backend never recycles, so golden
    schedule step sequences are unchanged.  {!Instr_reclaim} provides the
    reclaiming variant over these same cells. *)

type 'a pool

val make_pool : dummy:'a -> 'a pool

val op_enter : 'a pool -> int

val op_exit : 'a pool -> int -> unit

val retire : 'a pool -> 'a -> unit

val recycle : 'a pool -> 'a

val make_lock : ?name:string -> line:int -> unit -> lock

val field_lock : string -> string -> line:int -> unit -> lock
(** [field_lock node suffix] is [make_lock ~name:(node ^ suffix)]. *)

val try_lock : lock -> bool

val lock : lock -> unit

val unlock : lock -> unit

val lock_held : lock -> bool

val apply_release : lock -> unit
(** Handlers must apply the release themselves on {!Release}. *)

val run_sequential : (unit -> 'r) -> 'r
(** Run instrumented code single-threaded, resuming every effect
    immediately; used to build initial states before a scheduler takes
    over.  [Lock_busy] here means setup code deadlocked itself and
    fails. *)
