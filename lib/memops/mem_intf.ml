(** Shared-memory operations, abstracted.

    Every list-based set in this repository is a functor over {!S}, so a
    single source per algorithm serves three clients:

    - {!Real_mem}: plain [Atomic.t] cells — what benchmarks and the example
      applications run on;
    - {!Instr_mem}: cells whose every access performs an effect, so a
      single-domain handler can interleave threads deterministically — what
      the schedule framework (paper §2), the bounded-exploration checker and
      the multicore cost simulator run on;
    - {!Reclaim_mem} / {!Instr_reclaim}: the same two engines with the
      epoch-based reclamation hooks ({!S.reclaiming} and friends) live, so
      unlinked nodes are quarantined until their grace period passes and
      then recycled into later inserts instead of leaking to the GC.

    The vocabulary matches what the paper's schedules are made of: [get] /
    [set] / [cas] on node fields, node-creation events, and per-node locks.
    Lines tag the coherence granule an access belongs to: all cells of one
    list node share the node's line, mirroring the fact that a node's
    [val]/[next]/[deleted]/lock metadata share a cache line on the paper's
    testbeds.  The real backend ignores lines and names entirely, and
    keeps a list node's successor ({!S.link}) and its key ({!S.key}) in
    the node's own block.

    Node layout, the contract every list node follows and lint rule L1
    checks: field 0 of a node is its link and field 1 its key.  A record
    that holds no link (a tail, a skip-list or tree node) may hold a key
    anywhere, for nothing ever rewrites it. *)

module type S = sig
  type 'a cell
  (** A shared mutable location holding an ['a]. *)

  val named : bool
  (** Whether this backend consumes step names.  Instrumented backends say
      [true]; the real backend says [false].  Algorithms guard only the
      expression that builds a node's name
      ([let nm = if M.named then Naming.node v else ""]) and the
      [new_node]/[touch] calls that carry names.  The {!field} and
      {!field_lock} calls that consume [nm] are written once for every
      backend, so the real hot path builds no string and boxes no
      optional argument, as a [make ~name:...] call site would even
      though {!Real_mem} discards both. *)

  val fresh_line : unit -> int
  (** Allocate a new coherence-granule identifier.  Each list node calls
      this once and tags all its cells with the result. *)

  val make : ?name:string -> line:int -> 'a -> 'a cell
  (** [make ?name ~line v] allocates a cell on [line] with initial value
      [v].  [name] only matters to instrumented backends (it is how schedule
      scripts refer to steps, e.g. ["X1.next"]). *)

  val field : string -> string -> line:int -> 'a -> 'a cell
  (** [field node suffix ~line v] is {!make} for one field of a node:
      instrumented backends name the cell [node ^ suffix] (["X1"] and
      [".next"] make ["X1.next"]); the real backend ignores both strings.
      Node builders pass the node name guarded on {!named} (or [""]) and
      a constant suffix, so each builder is written once. *)

  type 'a link
  (** A list node's successor: the one shared location every hop of a
      traversal reads.  The contract, which lint rule L1 checks on every
      record that holds one:

      - a link is the {e first} field of its node's record (or inline
        record), and a node has at most one;
      - it is written only by the store that allocates the node and
        afterwards only through {!set_link} and {!cas_link}.

      The real backends store the successor itself in that field and
      reach it with the [Atomic] primitives applied to the node's block
      (an [Atomic.t] is a one-field block, and OCaml 5.1 can address only
      field 0 of a block atomically), so a link is exactly as atomic as
      an [Atomic.t] cell and a hop is one dependent load instead of two.
      OCaml 5.4's atomic record fields would replace the one [Obj.magic]
      this takes.  Instrumented backends keep the named cell {!field}
      makes and reach it through the family's accessor, so a link access
      is the same step, name, line and shadow as a cell access. *)

  val link : string -> string -> line:int -> 'a -> 'a link
  (** [link node suffix ~line v] is {!field} for a node's successor. *)

  val get_link : 'n -> ('n -> 'a link) -> 'a
  (** [get_link n next_of] reads the link of node [n]; [next_of] is the
      family's accessor for the link field.  The real backends do not
      call it: they read field 0 of [n]'s block, so callers must rule out
      link-less nodes (a [Tail]) before every link access. *)

  val set_link : 'n -> ('n -> 'a link) -> 'a -> unit

  val cas_link : 'n -> ('n -> 'a link) -> 'a -> 'a -> bool
  (** Compare-and-set on physical equality, as {!cas}. *)

  type 'a key
  (** A node's key: the value every hop of a traversal compares.  The
      contract, which lint rule L1 checks on every record that holds one:

      - in a record that holds a link, the key is field 1, right after
        the link, and a record has at most one key;
      - it is written by the store that allocates the node and afterwards
        only by {!set_key}, on a node no thread can reach: a recycled node
        before the {!set_link} that republishes it.

      The real backends store the key itself in that field, so reading it
      is one load from the node, and {!set_key} is a plain store to field
      1 of the node's block.  A plain store is enough: the node is
      unreachable until the atomic {!set_link} that republishes it, and
      that store orders the key write before any reader's load of the
      node.  Instrumented backends keep the named cell {!field} makes, so
      a key read is the same step, name, line and shadow as a cell
      read. *)

  val key : string -> string -> line:int -> 'a -> 'a key
  (** [key node suffix ~line v] is {!field} for a node's key. *)

  val get_key : 'a key -> 'a

  val set_key : 'n -> ('n -> 'a key) -> 'a -> unit
  (** [set_key n key_of v] rewrites the key of node [n], as {!set_link}
      rewrites its link; [key_of] is the family's accessor for the key
      field.  The real backends do not call it: they write field 1 of
      [n]'s block, so [n] must be a node whose key is field 1. *)

  val make_padded : ?name:string -> line:int -> 'a -> 'a cell
  (** Like {!make}, but the real backend places the cell on its own cache
      line (cf. [Padding.copy_as_padded]) so hot counters written by
      different domains never false-share.  Instrumented backends — whose
      cost model already works in explicit [line]s — treat it exactly as
      {!make}. *)

  val get : 'a cell -> 'a

  val set : 'a cell -> 'a -> unit

  val cas : 'a cell -> 'a -> 'a -> bool
  (** [cas c expected desired] — single-word compare-and-set on physical
      equality, as with [Atomic.compare_and_set]. *)

  val touch : line:int -> name:string -> unit
  (** Record a read of an immutable allocation living on [line].  Used by
      the Harris-Michael AMR variant, whose mark/pointer pair is a separate
      allocation: the extra dependent load the paper blames for its slower
      traversals.  No-op on the real backend (the actual dependent load
      happens in the OCaml code itself). *)

  val new_node : name:string -> line:int -> unit
  (** Record a node-creation step (the [new(X)] events of the paper's
      schedules, e.g. Figure 2).  No-op on the real backend. *)

  val reclaiming : bool
  (** Whether this backend reclaims retired nodes.  Like {!named}, this is
      a branch-compile-time flag algorithms guard on: when [false] (the
      plain real and instrumented backends) every reclamation hook below
      is a no-op and algorithms skip the epoch brackets and free-list
      probes entirely, so the non-reclaiming hot paths are byte-for-byte
      the pre-reclamation code.  When [true], operations must be
      bracketed with {!op_enter}/{!op_exit}, unlinked nodes handed to
      {!retire}, and inserts may ask {!recycle} for an aged-out node
      before allocating a fresh one. *)

  type 'a pool
  (** Per-structure recycling state for nodes of type ['a] (limbo bags +
      free-lists on reclaiming backends; just the dummy sentinel on the
      others). *)

  val make_pool : dummy:'a -> 'a pool
  (** [dummy] is what {!recycle} returns on a miss; callers compare with
      [==] (never an option — the insert path is [[@hot]]).  Use a node
      that can never be retired; list head sentinels are ideal. *)

  val op_enter : 'a pool -> int
  (** Open an epoch-protected critical section around one set operation;
      returns a handle for the matching {!op_exit}.  While a domain is
      inside a bracket, no node it can reach may be recycled.  No-op
      returning [0] on non-reclaiming backends. *)

  val op_exit : 'a pool -> int -> unit

  val retire : 'a pool -> 'a -> unit
  (** Hand over a node that was just physically unlinked (or never
      published).  At most once per node, from within the operation's
      bracket.  The node's cells must be left in a state where
      reinitialization by a later recycler is safe — in particular its
      lock (if any) released by the end of the retiring operation. *)

  val recycle : 'a pool -> 'a
  (** A node whose grace period has verifiably passed, or the pool's
      dummy.  Allocation-free on reclaiming real backends (the free-list
      pop the [@hot] lint rule is pointed at). *)

  type lock
  (** A per-node mutex. *)

  val make_lock : ?name:string -> line:int -> unit -> lock

  val field_lock : string -> string -> line:int -> unit -> lock
  (** [field_lock node suffix ~line ()] is {!make_lock} named like
      {!field}. *)

  val try_lock : lock -> bool
  (** One acquisition attempt; never waits. *)

  val lock : lock -> unit
  (** Blocking acquire.  On the instrumented backend a waiter parks until a
      release on the same lock rather than consuming schedule steps. *)

  val unlock : lock -> unit

  val lock_held : lock -> bool
  (** Racy observation, for validation-under-lock and tests. *)
end
