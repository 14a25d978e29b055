(* Epoch-based grace-period detection for the real (multi-domain) engine.

   The protocol is Fraser-style three-epoch EBR, the same scheme GCList
   applies to concurrent list-based sets:

   - one process-wide epoch counter, monotonically increasing;
   - one padded announcement slot per domain (0 = quiescent, e = "I am
     inside an operation that began while the epoch was e");
   - the epoch may advance from [e] to [e+1] only when every announced
     slot equals [e], so once the counter reaches [e+2] every operation
     that was in flight when it was [e] has finished.

   A node unlinked and retired while the epoch read [e] can therefore be
   handed back to an allocation free-list as soon as the counter reaches
   [e+2]: no traversal can still hold a reference to it (per-domain limbo
   bags and the free-lists themselves live in {!Pool}).

   Announcing validates: store the observed epoch, then re-read the
   counter and retry if it moved.  Without the re-read a domain could
   observe [e], stall, and publish the stale announcement after the epoch
   had already advanced past [e+1] — too late to stop a concurrent
   reclaimer.  With it, a successful announce guarantees the counter
   cannot reach [e+2] (and so nothing retired at [e] can be recycled)
   until the domain leaves.

   Each domain holds one small index, claimed on its first operation
   through the single DLS key below and handed back at [Domain.at_exit],
   so the next domain to start reuses it.  Indices therefore stay below
   the peak number of live domains, and they address both the slot table
   here and every {!Pool}'s per-domain states.  A domain must not run a
   set operation from an [at_exit] callback it registered before its
   first operation: such a callback runs after the index is handed back.

   The slot table grows by copy and CAS, so {!try_advance} never blocks
   and never allocates.  A domain's slot is in the table before its first
   announce, so a scan that misses a just-registered domain is benign:
   the missed domain validated its announcement against an epoch no
   older than the scan's, so the *next* advance sees it — exactly the
   one-epoch slip the two-epoch grace period absorbs. *)

module Probe = Vbl_obs.Probe
module C = Vbl_obs.Metrics

(* Epochs start at 1 so that announcement slot value 0 always means
   quiescent.  Padded: every operation reads the counter, so its line
   must not be shared with a word that something else writes. *)
let global = Vbl_sync.Padding.copy_as_padded (Atomic.make 1)

type slot = int Atomic.t

let rec entry table i make =
  let a = Atomic.get table in
  if i < Array.length a then a.(i)
  else
    let b = Array.init (i + 1) (fun j -> if j < Array.length a then a.(j) else make ()) in
    if Atomic.compare_and_set table a b then b.(i) else entry table i make

(* Announcement slots by domain index.  A slot reads 0 while its index
   is unclaimed, which never blocks an advance. *)
let slots : slot array Atomic.t = Atomic.make [||]

(* Indices issued so far, and those handed back by exited domains. *)
let issued = Atomic.make 0
let returned : int list Atomic.t = Atomic.make []

let rec claim_index () =
  match Atomic.get returned with
  | [] -> Atomic.fetch_and_add issued 1
  | i :: rest as old ->
      if Atomic.compare_and_set returned old rest then i else claim_index ()

let rec return_index i =
  let old = Atomic.get returned in
  if not (Atomic.compare_and_set returned old (i :: old)) then return_index i

type handle = { index : int; slot : slot }

let key =
  Domain.DLS.new_key (fun () ->
      let index = claim_index () in
      let slot = entry slots index (fun () -> Vbl_sync.Padding.copy_as_padded (Atomic.make 0)) in
      Domain.at_exit (fun () ->
          (* Quiesce first: a domain that died inside an operation must
             not hold the epoch back until its index is reused. *)
          Atomic.set slot 0;
          return_index index);
      { index; slot })

let index () = (Domain.DLS.get key).index

let current () = Atomic.get global

(* A closed top-level loop, not a closure over the slot: [enter] sits on
   every operation's path and must not allocate (test_alloc pins this). *)
let rec announce s =
  let e = Atomic.get global in
  Atomic.set s e;
  (* Validate: if the counter moved between the read and the store, the
     announcement may be too stale to pin anything — redo it. *)
  if Atomic.get global = e then e else announce s

let enter () = announce (Domain.DLS.get key).slot

let leave () = Atomic.set (Domain.DLS.get key).slot 0

(* One advance attempt: scan every announcement and bump the counter if
   no domain is still inside an older epoch.  Returns the (possibly just
   advanced) current epoch.  Allocation-free: the scan walks the existing
   slot table. *)
let rec all_current e a i =
  i < 0
  || (let s = Atomic.get a.(i) in
      (s = 0 || s = e) && all_current e a (i - 1))

let try_advance () =
  let e = Atomic.get global in
  let a = Atomic.get slots in
  if all_current e a (Array.length a - 1) then
    if Atomic.compare_and_set global e (e + 1) then Probe.count C.Reclaim_epoch_advances;
  Atomic.get global
