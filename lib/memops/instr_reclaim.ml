(** Instrumented reclaiming backends: {!Instr_mem}'s effect-performing
    cells and locks with the reclamation hooks live, so DPOR and the
    seeded random scheduler can interleave the epoch protocol itself
    against traversals and check that no execution observes a recycled
    node it could still reach.

    Model granularity: the epoch counter is an instrumented cell — every
    read of it and every advance CAS is a schedule point — while the
    active-operation counts, limbo bags and free-list are plain state
    mutated in the same inter-effect slice as the epoch access they
    follow.  This models announce (epoch read + active increment) and
    advance (condition check + CAS) as atomic protocol steps, which is
    the semantics the real backend's validated-announce loop enforces;
    see FRAMEWORK.md "Known approximations".  [op_exit] performs no
    effect: the decrement lands in the slice of the operation's last
    shared access, i.e. the model lets a domain quiesce at its final
    access rather than strictly after it — sound, because the operation
    reads nothing afterwards.

    [Make] takes an [eager] knob: [Safe] enforces the three-bag grace
    period; [Eager] recycles a retired node immediately, the seeded
    use-after-reclaim mutant the DPOR suite must catch (a traversal
    parked on the node observes its reinitialized value — a
    non-linearizable outcome). *)

module type CONFIG = sig
  val eager : bool
  (** [true]: skip the grace period entirely (seeded bug for the analysis
      suites). *)
end

module Make (Cfg : CONFIG) = struct
  include Instr_mem

  let reclaiming = true

  type 'a pstate = {
    dummy : 'a;
    epoch : int Instr_mem.cell;  (* instrumented: reads/CASes are steps *)
    active : int array;  (* ops in flight per epoch mod 3 *)
    bags : 'a list array;  (* limbo, indexed by retire-epoch mod 3 *)
    bag_lens : int array;
    mutable bag_epoch : int;
    mutable free : 'a list;
  }

  type 'a pool = 'a pstate

  (* Per-pool (hence per-instance) epoch state: every explored execution
     builds a fresh structure, so replayed schedule prefixes always see
     identical protocol state — the determinism DPOR depends on. *)
  let make_pool ~dummy =
    {
      dummy;
      epoch = Instr_mem.make ~name:"reclaim.epoch" ~line:(Instr_mem.fresh_line ()) 1;
      active = [| 0; 0; 0 |];
      bags = [| []; []; [] |];
      bag_lens = [| 0; 0; 0 |];
      bag_epoch = 1;
      free = [];
    }

  let op_enter p =
    let e = Instr_mem.get p.epoch in
    p.active.(e mod 3) <- p.active.(e mod 3) + 1;
    e

  let op_exit p h = p.active.(h mod 3) <- p.active.(h mod 3) - 1

  let move_bag p i =
    if p.bag_lens.(i) > 0 then begin
      p.free <- List.rev_append p.bags.(i) p.free;
      p.bags.(i) <- [];
      p.bag_lens.(i) <- 0
    end

  (* Catch the bags up with epoch [e]; a bag frees when [bag_epoch]
     passes its slot again, three epochs after it was filled. *)
  let rotate p e =
    if e - p.bag_epoch >= 3 then begin
      move_bag p 0;
      move_bag p 1;
      move_bag p 2;
      p.bag_epoch <- e
    end
    else
      while p.bag_epoch < e do
        p.bag_epoch <- p.bag_epoch + 1;
        move_bag p (p.bag_epoch mod 3)
      done

  (* Advance from [e] is legal once no operation announced at an older
     epoch remains; only [e] and [e - 1] can carry announcements. *)
  let can_advance p e = p.active.((e - 1) mod 3) = 0

  let retire p x =
    if Cfg.eager then
      (* Seeded use-after-reclaim: straight onto the free-list. *)
      p.free <- x :: p.free
    else begin
      let e = Instr_mem.get p.epoch in
      rotate p e;
      let i = e mod 3 in
      p.bags.(i) <- x :: p.bags.(i);
      p.bag_lens.(i) <- p.bag_lens.(i) + 1;
      if can_advance p e then ignore (Instr_mem.cas p.epoch e (e + 1) : bool)
    end

  (* Help the epoch along on a miss: up to [budget] advance attempts,
     each a visible CAS step, stopping as soon as a bag frees. *)
  let rec catch_up p budget =
    let e = Instr_mem.get p.epoch in
    rotate p e;
    if budget > 0 && p.free == [] && can_advance p e then begin
      if Instr_mem.cas p.epoch e (e + 1) then rotate p (e + 1);
      catch_up p (budget - 1)
    end

  (* A miss with empty bags gives up at once, as the real pool does: no
     advance could free a node.  [Eager] never fills a bag, so every
     [Eager] miss ends here. *)
  let recycle p =
    match p.free with
    | x :: tl ->
        p.free <- tl;
        x
    | [] when p.bag_lens.(0) + p.bag_lens.(1) + p.bag_lens.(2) = 0 -> p.dummy
    | [] -> (
        catch_up p 3;
        match p.free with
        | x :: tl ->
            p.free <- tl;
            x
        | [] -> p.dummy)
end

module Safe = Make (struct
  let eager = false
end)

module Eager = Make (struct
  let eager = true
end)
