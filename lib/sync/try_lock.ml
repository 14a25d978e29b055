type t = bool Atomic.t

let create () = Atomic.make false

let[@inline] try_lock t = (not (Atomic.get t)) && Atomic.compare_and_set t false true

(* The backoff window lives in the spin loop's parameters, not a heap
   record, and the loop is a closed top-level function: a blocking
   acquire — contended or not — allocates nothing.  (This used to build a
   Backoff.t per call, i.e. one minor-heap record per update operation in
   every list that locks.) *)
let rec spin_lock t wait =
  Vbl_obs.Probe.count Vbl_obs.Metrics.Lock_contended;
  let wait = Backoff.spin wait in
  if not (try_lock t) then spin_lock t wait

(* Wait-time attribution for the contended path only: the uncontended
   acquire stays a single CAS with no extra branch, and the profiling
   check itself is only reached once the lock was observed held. *)
let spin_lock_profiled t =
  let t0 = Vbl_obs.Contention.now_ns () in
  spin_lock t Backoff.default_min_wait;
  Vbl_obs.Contention.record_wait Vbl_obs.Contention.Blocking_acquire
    (Vbl_obs.Contention.now_ns () - t0)

let lock t =
  if not (try_lock t) then
    if !Vbl_obs.Contention.profiling then spin_lock_profiled t
    else spin_lock t Backoff.default_min_wait

let[@inline] unlock t = Atomic.set t false

let[@inline] is_locked t = Atomic.get t
