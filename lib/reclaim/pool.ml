(* Per-domain limbo bags and recycling free-lists on top of {!Epoch}.

   Retired nodes are stamped with the epoch they were unlinked under by
   landing in the calling domain's bag for [epoch mod 3]; when the global
   epoch reaches [e + 2] the bag for [e] has aged out and its contents
   move wholesale onto the same domain's free-list, where {!recycle}
   hands them back to inserts.  Everything here is single-writer: a
   domain only ever touches the state at its own {!Epoch.index}, so the
   hot paths are plain loads and stores — the epoch counter is the only
   shared state.

   The pool owns its per-domain states, in an array indexed by
   {!Epoch.index} and grown by copy and CAS, so a dropped set takes its
   limbo and free-list with it.  A domain that reuses the index of one
   that exited inherits that domain's bags and free-list.

   Costs, for the cost model in FRAMEWORK.md: a retire pushes one list
   cons (3 words) and every [advance_period]-th retire pays one
   {!Epoch.try_advance} scan; a recycle that hits the free-list is
   allocation-free (one DLS read, one state lookup, one list-head pop).
   A recycle miss with nodes in limbo attempts an epoch advance and a bag
   rotation before giving up; with an empty limbo no advance could free
   a node, so it gives up at once.  Either way it reports the miss by
   returning the pool's [dummy] (callers compare with [==] and allocate a
   fresh node — never [Some]/[None], which would put an allocation on the
   [@hot] insert path). *)

module Probe = Vbl_obs.Probe
module C = Vbl_obs.Metrics

type 'a dstate = {
  bags : 'a list array;  (* three limbo bags, indexed by epoch mod 3 *)
  bag_lens : int array;
  mutable bag_epoch : int;  (* epoch whose retirees bags.(bag_epoch mod 3) holds *)
  mutable free : 'a list;
  mutable free_len : int;
  mutable ticks : int;  (* retires since creation, for periodic advances *)
}

type 'a t = {
  dummy : 'a;
      (* sentinel returned by a recycle miss; never stored in any bag *)
  states : 'a dstate array Atomic.t;  (* by {!Epoch.index} *)
}

(* Attempt a global-epoch advance every 32 retires: frequent enough that
   limbo depth stays within a few advance periods per domain, rare enough
   that the slot scan is amortized noise. *)
let advance_period = 32

let create ~dummy = { dummy; states = Atomic.make [||] }

let fresh_state () =
  {
    bags = [| []; []; [] |];
    bag_lens = [| 0; 0; 0 |];
    bag_epoch = Epoch.current ();
    free = [];
    free_len = 0;
    ticks = 0;
  }

(* The hit is inlined here; [Epoch.entry], which grows, is a call. *)
let[@inline] state p =
  let i = Epoch.index () and a = Atomic.get p.states in
  if i < Array.length a then a.(i) else Epoch.entry p.states i fresh_state

(* Catch [d] up with the current epoch [e], moving every aged-out bag
   onto the free-list.  A bag moves when [bag_epoch] passes it again,
   i.e. 3 epochs after it was filled — one more than the 2-epoch grace
   period requires.  When the free-list is empty the move is a wholesale
   list-head transfer (no allocation, the recycle-miss path); otherwise
   it is a [rev_append] (the retire path, which allocates a cons per
   retired node anyway). *)
let rotate d e =
  if e - d.bag_epoch >= 3 then begin
    (* Idle domain: every bag predates the grace period; flush them all. *)
    for i = 0 to 2 do
      let n = d.bag_lens.(i) in
      if n > 0 then begin
        (match d.free with
        | [] -> d.free <- d.bags.(i)
        | _ :: _ as f -> d.free <- List.rev_append d.bags.(i) f);
        d.bags.(i) <- [];
        d.bag_lens.(i) <- 0;
        d.free_len <- d.free_len + n;
        Probe.add C.Reclaim_freed n
      end
    done;
    d.bag_epoch <- e
  end
  else
    while d.bag_epoch < e do
      d.bag_epoch <- d.bag_epoch + 1;
      let i = d.bag_epoch mod 3 in
      let n = d.bag_lens.(i) in
      if n > 0 then begin
        (match d.free with
        | [] -> d.free <- d.bags.(i)
        | _ :: _ as f -> d.free <- List.rev_append d.bags.(i) f);
        d.bags.(i) <- [];
        d.bag_lens.(i) <- 0;
        d.free_len <- d.free_len + n;
        Probe.add C.Reclaim_freed n
      end
    done

let retire p x =
  let d = state p in
  let e = Epoch.current () in
  if e <> d.bag_epoch then rotate d e;
  let i = e mod 3 in
  d.bags.(i) <- x :: d.bags.(i);
  d.bag_lens.(i) <- d.bag_lens.(i) + 1;
  Probe.count C.Reclaim_retired;
  d.ticks <- d.ticks + 1;
  if d.ticks mod advance_period = 0 then ignore (Epoch.try_advance () : int)

let[@hot] recycle p =
  let d = state p in
  match d.free with
  | x :: tl ->
      d.free <- tl;
      d.free_len <- d.free_len - 1;
      Probe.count C.Reclaim_recycled;
      x
  | [] when d.bag_lens.(0) + d.bag_lens.(1) + d.bag_lens.(2) = 0 -> p.dummy
  | [] -> (
      (* Miss: help the epoch along and pull any bag that just aged out.
         Still allocation-free — the wholesale branch of [rotate]. *)
      let e = Epoch.try_advance () in
      if e <> d.bag_epoch then rotate d e;
      match d.free with
      | x :: tl ->
          d.free <- tl;
          d.free_len <- d.free_len - 1;
          Probe.count C.Reclaim_recycled;
          x
      | [] -> p.dummy)

type stats = { limbo : int; free : int }

(* Racy cross-domain sums — gauges for reports, exact only at
   quiescence. *)
let stats p =
  Array.fold_left
    (fun acc d ->
      {
        limbo = acc.limbo + d.bag_lens.(0) + d.bag_lens.(1) + d.bag_lens.(2);
        free = acc.free + d.free_len;
      })
    { limbo = 0; free = 0 }
    (Atomic.get p.states)
