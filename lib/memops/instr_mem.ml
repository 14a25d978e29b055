(** The instrumented backend: every shared-memory access performs an effect
    before it takes effect, so a single-domain handler can interleave
    threads deterministically.

    Atomicity model: the handler resumes exactly one thread at a time, and a
    resumed thread executes until its next effect.  Because each [get],
    [set], [cas], [touch], [new_node] and lock attempt performs its effect
    {e before} touching memory, every inter-effect interval contains at most
    one shared access, i.e. schedule points and shared accesses coincide —
    precisely the granularity at which the paper's schedules are defined.

    Two exceptions are handled specially:

    - a blocking {!lock} that finds the lock held performs {!Lock_busy};
      the handler is expected to park the thread and resume it only when the
      lock is (observed) free, so waiters consume no schedule steps;
    - {!unlock} performs {!Release} and the {e handler} applies the store,
      so a release is atomic with its schedule point.

    Every cell and lock additionally carries a {!shadow} record — a unique
    location identity plus mutable per-location analysis state (last-writer
    epoch, acquire-release vector clock, candidate lock-set).  The backend
    itself never reads or writes the analysis fields; they are owned by the
    dynamic-analysis layer ([vbl.analysis]), which reaches them through the
    {!access} payload without any side-table lookup on the hot path.
    Shadow state is per-instance: a fresh list means fresh cells means
    fresh shadows, so explored executions never leak state into each other.

    This module is deliberately not thread-safe: all instrumented execution
    happens cooperatively inside one domain. *)

type shadow = {
  s_loc : int;  (** unique location id; [-1] on the placeholder shadow *)
  mutable s_wr_tid : int;  (** last plain-write thread, [-1] if none *)
  mutable s_wr_clock : int;  (** that thread's clock at the write *)
  mutable s_sync : int array;  (** acquire-release vector clock; [[||]] = bottom *)
  mutable s_lockset : int array option;  (** candidate lock-set over plain writes *)
  mutable s_writers : int;  (** bitmask of plain-writer thread ids *)
}

let loc_counter = ref 0

let fresh_shadow () =
  incr loc_counter;
  {
    s_loc = !loc_counter;
    s_wr_tid = -1;
    s_wr_clock = 0;
    s_sync = [||];
    s_lockset = None;
    s_writers = 0;
  }

(* Shared by location-less steps ([touch], [new_node]); the analysis layer
   skips shadows with a negative location. *)
let no_shadow =
  { s_loc = -1; s_wr_tid = -1; s_wr_clock = 0; s_sync = [||]; s_lockset = None; s_writers = 0 }

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
  | Access : access -> unit Effect.t
      (** Scheduling point announcing the access about to happen. *)
  | Lock_busy : lock -> unit Effect.t
      (** The performer wants [lock] but it is held; park me until free. *)
  | Release : lock -> unit Effect.t
      (** The handler must set [held <- false] before resuming anyone. *)

let pp_kind ppf = function
  | Read -> Format.pp_print_string ppf "R"
  | Write -> Format.pp_print_string ppf "W"
  | Cas -> Format.pp_print_string ppf "CAS"
  | Touch -> Format.pp_print_string ppf "touch"
  | New_node -> Format.pp_print_string ppf "new"
  | Lock_try -> Format.pp_print_string ppf "trylock"
  | Lock_release -> Format.pp_print_string ppf "unlock"

let pp_access ppf a = Format.fprintf ppf "%a(%s)" pp_kind a.kind a.name

type 'a cell = { mutable v : 'a; c_line : int; c_name : string; c_shadow : shadow }

(* This backend is what names are for: schedule scripts address steps by
   them, so algorithms build every node's Naming.* name for it. *)
let named = true

let line_counter = ref 0

let fresh_line () =
  incr line_counter;
  !line_counter

let make ?(name = "") ~line v =
  { v; c_line = line; c_name = name; c_shadow = fresh_shadow () }

let field node suffix ~line v = make ~name:(node ^ suffix) ~line v

(* A link is the named cell [field] makes, reached through the family's
   accessor: the same step, name, line and shadow as a cell access. *)
type 'a link = 'a cell

let link = field

(* Padding is a physical-layout concern; the instrumented cost model works
   in explicit [line]s, so a padded cell is just a cell (and must NOT be
   re-allocated: schedules address cells by identity). *)
let make_padded ?name ~line v = make ?name ~line v

let yield ~line ~name ~shadow kind = Effect.perform (Access { line; name; kind; shadow })

let get c =
  yield ~line:c.c_line ~name:c.c_name ~shadow:c.c_shadow Read;
  c.v

let set c v =
  yield ~line:c.c_line ~name:c.c_name ~shadow:c.c_shadow Write;
  c.v <- v

(* Result of the most recent [cas], readable by the scheduler that resumed
   it: schedule scripts distinguish effective writes from failed CAS
   attempts (e.g. the failed physical removal in the paper's Figure 3).
   Single-domain cooperative execution makes the singleton safe. *)
let last_cas_result = ref true

let cas c expected desired =
  yield ~line:c.c_line ~name:c.c_name ~shadow:c.c_shadow Cas;
  let success = c.v == expected in
  if success then c.v <- desired;
  last_cas_result := success;
  success

let get_link n next_of = get (next_of n)

let set_link n next_of v = set (next_of n) v

let cas_link n next_of expected desired = cas (next_of n) expected desired

(* A key is likewise the named cell, reached through the family's
   accessor when it is rewritten. *)
type 'a key = 'a cell

let key = field

let get_key = get

let set_key n key_of v = set (key_of n) v

let touch ~line ~name = yield ~line ~name ~shadow:no_shadow Touch

let new_node ~name ~line = yield ~line ~name ~shadow:no_shadow New_node

(* No reclamation on the plain instrumented backend: schedules and their
   golden step sequences predate the reclaim layer and must not change.
   {!Instr_reclaim} layers the live hooks over these same cells. *)
let reclaiming = false

type 'a pool = 'a

let make_pool ~dummy = dummy

let op_enter _ = 0

let op_exit _ _ = ()

let retire _ _ = ()

let recycle p = p

let make_lock ?(name = "") ~line () =
  { l_line = line; l_name = name; held = false; l_shadow = fresh_shadow () }

let field_lock node suffix ~line () = make_lock ~name:(node ^ suffix) ~line ()

let try_lock l =
  yield ~line:l.l_line ~name:l.l_name ~shadow:l.l_shadow Lock_try;
  let success = not l.held in
  if success then l.held <- true;
  last_cas_result := success;
  success

let rec lock l =
  if try_lock l then ()
  else begin
    Effect.perform (Lock_busy l);
    lock l
  end

let unlock l = Effect.perform (Release l)

let lock_held l = l.held

(* Handlers must apply the release themselves; this helper keeps that logic
   in one place. *)
let apply_release l = l.held <- false

(** Run instrumented code single-threaded, resuming every effect
    immediately.  Used to build initial list states (pre-population) before
    handing control to a real scheduler.  A [Lock_busy] here means a lock
    was left held by earlier setup code — a bug — so it raises. *)
let run_sequential (type r) (f : unit -> r) : r =
  Effect.Deep.match_with f ()
    {
      retc = Fun.id;
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Access _ -> Some (fun (k : (a, r) Effect.Deep.continuation) -> Effect.Deep.continue k ())
          | Release l ->
              Some
                (fun (k : (a, r) Effect.Deep.continuation) ->
                  apply_release l;
                  Effect.Deep.continue k ())
          | Lock_busy l ->
              Some
                (fun (_ : (a, r) Effect.Deep.continuation) ->
                  failwith ("Instr_mem.run_sequential: deadlock on " ^ l.l_name))
          | _ -> None);
    }
