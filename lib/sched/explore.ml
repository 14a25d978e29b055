(** Systematic concurrency testing over the instrumented backend: bounded
    exhaustive exploration (DPOR or naive DFS) behind a pluggable schedule
    bound, plus a weighted-random swarm scheduler for schedule spaces too
    large to enumerate.

    Executions are deterministic functions of the scheduling choice
    sequence, so no strategy needs state snapshots: to branch (or to
    replay) it simply re-executes a fresh scenario instance along the
    choice prefix and diverges at the recorded decision.  Every complete
    execution's high-level history is checked for linearizability against
    the set specification and the structure is checked via the scenario's
    invariant hook — an executable, bounded version of the paper's
    Theorem 1.

    {b Schedule bounding.}  Following dejafu's [sctPreBound] /
    [sctDelayBound], bounding is a policy ({!BOUND}), not a special case:
    a bound assigns each scheduling choice an admission cost (given the
    previously running thread and the enabled set) and a priority used to
    order backtrack points; exploration never exceeds the cost budget.
    {!preempt} charges switching away from a runnable thread (the
    classic preemption bound), {!delay} charges every deviation from the
    deterministic baseline scheduler (run the previous thread while it
    can run, else the lowest-numbered enabled thread), and {!none} admits
    everything.  Delay bounding is the coarser knife: [delay:N] explores
    O(steps^N) schedules regardless of thread count, which is what makes
    3–4 domain reclamation scenarios tractable.

    {b DPOR.}  Two steps are {e dependent} when they touch the same
    location (cell or lock shadow identity) and at least one writes, or
    both are lock operations on the same lock; all other pairs commute, so
    executions differing only in the order of adjacent independent steps
    belong to the same Mazurkiewicz trace and need exploring only once.
    The explorer runs one execution to completion, detects the races it
    contains (pairs of dependent steps by different threads not ordered by
    the happens-before relation of the trace, computed with per-thread
    vector clocks and last-access tables), and schedules backtrack points
    just before each race — the Flanagan–Godefroid rule: the racing
    thread if it was enabled there, every enabled thread otherwise.  Sleep
    sets carry the set of already-explored choices into sibling subtrees
    and prune executions that would only permute independent steps;
    executions whose every enabled thread is asleep are abandoned unchecked
    ([sleep_blocked] counts them).  With the {!none} bound the reduction
    is sound and complete: at least one representative of every trace is
    explored, so a failure existing in any interleaving is found in some
    explored one.  Under a bound the search is a heuristic bounded search:
    backtrack points whose admission cost would exceed the budget are
    pruned ([bound_prunes]).

    {b Swarm SCT.}  {!Random} runs [iters] independent executions; each
    run draws its own {e swarm configuration} from the seeded stream —
    per-thread weights, a stay-with-the-running-thread probability, and a
    fairness window — so distinct runs probe very differently shaped
    schedules (swarm testing).  The scheduler is fair in the dejafu
    sense: a thread that monopolises the processor past the fairness
    window is forcibly descheduled whenever another thread is runnable,
    so spin-wait loops waiting on another thread's store terminate.

    [Dfs bound] keeps the pre-DPOR brute-force DFS (every enabled thread
    branches at every step) for comparison and for the DFS-vs-DPOR parity
    suite. *)

module Instr = Vbl_memops.Instr_mem
module Metrics = Vbl_obs.Metrics

type scenario = {
  make : unit -> instance;
      (** Fresh, fully independent instance: list, recorder, thread bodies.
          Called once per explored execution. *)
}

and instance = {
  bodies : (unit -> unit) list;
  history : unit -> Vbl_spec.History.t;  (** called after all threads finish *)
  invariants : unit -> (unit, string) result;  (** structural check at quiescence *)
}

type config = {
  max_executions : int;  (** hard cap on explored executions *)
  max_steps : int;  (** per-execution step cap (guards against livelock) *)
}

let default_config = { max_executions = 50_000; max_steps = 5_000 }

(* ------------------------------------------------------------------ *)
(* Schedule bounds.                                                    *)
(* ------------------------------------------------------------------ *)

module type BOUND = sig
  val name : string

  val budget : int option
  (** Total admission cost a single execution may spend; [None] = no cap. *)

  val cost : last:int -> enabled:int list -> choice:int -> int
  (** Admission cost of scheduling [choice] when [last] ran previously
      ([-1] at the initial state) and [enabled] are runnable. *)

  val priority : last:int -> enabled:int list -> choice:int -> int
  (** Exploration priority among sibling backtrack points: lower values
      are explored first.  A constant priority preserves the insertion
      order of the underlying search. *)
end

type bound = (module BOUND)

let bound_name (b : bound) =
  let module B = (val b) in
  B.name

let preempt n : bound =
  (module struct
    let name = "preempt:" ^ string_of_int n
    let budget = Some n

    let cost ~last ~enabled ~choice =
      if last >= 0 && choice <> last && List.mem last enabled then 1 else 0

    (* Constant: keeps the historic backtrack order of the preemption-
       bounded explorer, which pins the execution counts recorded in
       EXPERIMENTS.md. *)
    let priority ~last:_ ~enabled:_ ~choice:_ = 0
  end)

let delay n : bound =
  (module struct
    let name = "delay:" ^ string_of_int n
    let budget = Some n

    (* The deterministic baseline scheduler: keep running the previous
       thread while it can run, else the lowest-numbered enabled thread.
       Every deviation from it costs one delay (dejafu's sctDelayBound). *)
    let baseline ~last ~enabled =
      if List.mem last enabled then last else List.hd enabled

    let cost ~last ~enabled ~choice =
      if enabled <> [] && choice = baseline ~last ~enabled then 0 else 1

    let priority = cost
  end)

let none : bound =
  (module struct
    let name = "none"
    let budget = None
    let cost ~last:_ ~enabled:_ ~choice:_ = 0
    let priority ~last:_ ~enabled:_ ~choice:_ = 0
  end)

type random_config = { seed : int64; iters : int }

type strategy = Dpor of bound | Dfs of bound | Random of random_config

let strategy_name = function
  | Dpor b -> "dpor/" ^ bound_name b
  | Dfs b -> "dfs/" ^ bound_name b
  | Random { seed; iters } -> Printf.sprintf "random:%Ld:%d" seed iters

type failure =
  | Not_linearizable of { schedule : int list; history : string }
  | Invariant_broken of { schedule : int list; msg : string }
  | Deadlock of { schedule : int list }
  | Step_limit of { schedule : int list }
  | Crashed of { schedule : int list; exn : string }
  | Analysis_violation of { schedule : int list; kind : string; msg : string }

type report = {
  executions : int;  (** executions run to quiescence and checked *)
  sleep_blocked : int;  (** executions pruned by the sleep set *)
  races : int;  (** dependent unordered step pairs that seeded backtrack points *)
  bound_prunes : int;  (** scheduling choices rejected by the bound's budget *)
  distinct_schedules : int;  (** distinct complete schedules observed *)
  truncated : bool;  (** true if the execution cap stopped exploration early *)
  failure : failure option;  (** first failure found, if any *)
}

type event = {
  ev_thread : int;
  ev_access : Instr.access;
  ev_effective : bool;  (** CAS / lock-attempt success; [true] for other kinds *)
  ev_completed : bool;  (** the thread finished right after this step *)
}

type step_monitor = {
  on_step : event -> unit;
  at_end : unit -> (string * string) option;
      (** called at quiescence of a complete execution; [Some (kind, msg)]
          reports a violation *)
}

let pp_failure ppf = function
  | Not_linearizable { history; _ } ->
      Format.fprintf ppf "non-linearizable history:@,%s" history
  | Invariant_broken { msg; _ } -> Format.fprintf ppf "invariant broken: %s" msg
  | Deadlock _ -> Format.fprintf ppf "deadlock"
  | Step_limit _ -> Format.fprintf ppf "step limit exceeded (livelock?)"
  | Crashed { exn; _ } -> Format.fprintf ppf "exception: %s" exn
  | Analysis_violation { kind; msg; _ } -> Format.fprintf ppf "%s: %s" kind msg

let failure_schedule = function
  | Not_linearizable { schedule; _ }
  | Invariant_broken { schedule; _ }
  | Deadlock { schedule }
  | Step_limit { schedule }
  | Crashed { schedule; _ }
  | Analysis_violation { schedule; _ } -> schedule

(* ------------------------------------------------------------------ *)
(* Shared helpers.                                                     *)
(* ------------------------------------------------------------------ *)

(* Dependence classes; [KNil] steps (touches, node creations, unparks)
   commute with everything. *)
type cls = KRead | KWrite | KLock | KNil

let cls_of_kind = function
  | Instr.Read -> KRead
  | Instr.Write | Instr.Cas -> KWrite
  | Instr.Lock_try | Instr.Lock_release -> KLock
  | Instr.Touch | Instr.New_node -> KNil

(* (location, class) signature of a thread's next step.  A parked thread's
   next visible interaction is with its lock. *)
let sig_of_pending = function
  | Exec.Access a ->
      let s = a.Instr.shadow in
      if s.Instr.s_loc < 0 then (-1, KNil) else (s.Instr.s_loc, cls_of_kind a.Instr.kind)
  | Exec.Blocked l -> (l.Instr.l_shadow.Instr.s_loc, KLock)
  | Exec.Done -> (-1, KNil)

let conflict (l1, c1) (l2, c2) =
  l1 >= 0 && l1 = l2
  &&
  match (c1, c2) with
  | KWrite, (KRead | KWrite) | KRead, KWrite -> true
  | KLock, KLock -> true
  | _ -> false

let effective_of (a : Instr.access) =
  match a.Instr.kind with
  | Instr.Cas | Instr.Lock_try -> !Instr.last_cas_result
  | _ -> true

(* Feed one executed step to the monitor: must be called right after
   [Exec.step], while [Instr.last_cas_result] still belongs to it. *)
let notify_monitor monitor exec tid (a : Instr.access) =
  match monitor with
  | None -> ()
  | Some m ->
      m.on_step
        {
          ev_thread = tid;
          ev_access = a;
          ev_effective = effective_of a;
          ev_completed = Exec.pending exec tid = Exec.Done;
        }

(* Execute one scheduling choice, feeding the step to the monitor.  This
   is the one legal way to advance an execution that an attached monitor
   observes; the shrinker replays through it too. *)
let step_with_monitor exec monitor c =
  let pend = Exec.pending exec c in
  Exec.step exec c;
  match pend with Exec.Access a -> notify_monitor monitor exec c a | _ -> ()

(* The verdict shared by every strategy at quiescence of a complete
   execution.  The monitor speaks first: the analysis layer is more
   specific about *why* an execution is wrong than the history check. *)
let verdict_at_quiescence (inst : instance) monitor schedule : failure option =
  match (match monitor with None -> None | Some m -> m.at_end ()) with
  | Some (kind, msg) -> Some (Analysis_violation { schedule; kind; msg })
  | None ->
      let h = inst.history () in
      if not (Vbl_spec.Linearizability.check h) then
        Some (Not_linearizable { schedule; history = Vbl_spec.History.to_string h })
      else (
        match inst.invariants () with
        | Ok () -> None
        | Error msg -> Some (Invariant_broken { schedule; msg }))

(* Rank sibling backtrack candidates by the bound's priority, highest
   first: both searches below consume candidates LIFO (prepend to a
   backtrack list / push on a worklist stack), so emitting the
   lowest-priority candidate last makes it the first one explored.  The
   sort is stable, so a constant priority preserves the underlying
   search order exactly. *)
let rank_candidates (type a) (b : bound) ~last ~enabled (cands : (int * a) list) =
  let module B = (val b) in
  List.stable_sort
    (fun (c1, _) (c2, _) ->
      compare (B.priority ~last ~enabled ~choice:c2) (B.priority ~last ~enabled ~choice:c1))
    cands

(* ------------------------------------------------------------------ *)
(* DPOR exploration.                                                   *)
(* ------------------------------------------------------------------ *)

(* One state of the current exploration prefix, together with the choice
   taken from it.  [enabled] and [spent] are refreshed on every
   (re-)execution; [dn_done] and [backtrack] persist across the subtree. *)
type dnode = {
  mutable chosen : int;
  mutable dn_done : int list;  (** choices explored or in progress *)
  mutable backtrack : int list;  (** choices still to explore *)
  mutable enabled : int list;  (** threads runnable at this state *)
  mutable spent : int;  (** bound budget consumed before this state *)
}

exception Sleep_blocked

let run_dpor ~config ~monitor (b : bound) scenario =
  let module B = (val b) in
  let completed = ref 0 in
  let blocked = ref 0 in
  let races = ref 0 in
  let prunes = ref 0 in
  let truncated = ref false in
  let failure = ref None in
  (* Growable stack of exploration states (OCaml 5.1: no Dynarray). *)
  let dummy = { chosen = -1; dn_done = []; backtrack = []; enabled = []; spent = 0 } in
  let stack = ref (Array.make 64 dummy) in
  let len = ref 0 in
  let push n =
    if !len = Array.length !stack then begin
      let bigger = Array.make (2 * !len) dummy in
      Array.blit !stack 0 bigger 0 !len;
      stack := bigger
    end;
    !stack.(!len) <- n;
    incr len
  in
  (* Insert a backtrack point at state [i]: thread [q]'s step raced with the
     step taken there.  Flanagan–Godefroid rule, filtered by the bound's
     admission cost and ordered by its priority. *)
  let add_backtrack i q =
    incr races;
    let st = !stack.(i) in
    let last = if i > 0 then !stack.(i - 1).chosen else -1 in
    let candidates = if List.mem q st.enabled then [ q ] else st.enabled in
    let admitted =
      List.filter_map
        (fun p ->
          if List.mem p st.dn_done || List.mem p st.backtrack then None
          else begin
            let cost = B.cost ~last ~enabled:st.enabled ~choice:p in
            let within =
              match B.budget with None -> true | Some bd -> st.spent + cost <= bd
            in
            if within then Some (p, ())
            else begin
              incr prunes;
              None
            end
          end)
        candidates
    in
    List.iter
      (fun (p, ()) -> st.backtrack <- p :: st.backtrack)
      (rank_candidates b ~last ~enabled:st.enabled admitted)
  in
  (* Execute one run: replay the choices recorded on the stack, then extend
     with the default policy (keep running the last thread, avoid sleeping
     threads), pushing a fresh state per step.  Race analysis happens
     inline on every executed step. *)
  let run_one () =
    let inst = scenario.make () in
    let mon = Option.map (fun f -> f ()) monitor in
    let exec = Exec.create inst.bodies in
    let n = List.length inst.bodies in
    (* Happens-before state: per-thread vector clocks over per-thread step
       counts, plus last-access tables per location. *)
    let clocks = Array.init n (fun _ -> Array.make n 0) in
    let tcount = Array.make n 0 in
    let merge a b =
      for i = 0 to n - 1 do
        if b.(i) > a.(i) then a.(i) <- b.(i)
      done
    in
    (* loc -> (state index, tid, that thread's clock, vc snapshot) *)
    let last_write : (int, int * int * int * int array) Hashtbl.t = Hashtbl.create 64 in
    (* loc -> per-tid entries since the last write *)
    let last_reads : (int, (int * int * int * int array) list ref) Hashtbl.t =
      Hashtbl.create 64
    in
    let schedule = ref [] in
    let fail f = failure := Some (f (List.rev !schedule)) in
    (* Race-check thread [q]'s step at state [idx] against a recorded
       access, then merge the dependence edge into [q]'s clock. *)
    let check_edge q (i, p, pclk, vc) =
      if p <> q && pclk > clocks.(q).(p) then add_backtrack i q;
      merge clocks.(q) vc
    in
    let analyze idx q (loc, c) =
      tcount.(q) <- tcount.(q) + 1;
      clocks.(q).(q) <- tcount.(q);
      (match c with
      | KRead ->
          Option.iter (check_edge q) (Hashtbl.find_opt last_write loc);
          let rs =
            match Hashtbl.find_opt last_reads loc with
            | Some r -> r
            | None ->
                let r = ref [] in
                Hashtbl.replace last_reads loc r;
                r
          in
          rs := (idx, q, tcount.(q), Array.copy clocks.(q))
                :: List.filter (fun (_, p, _, _) -> p <> q) !rs
      | KWrite | KLock ->
          Option.iter (check_edge q) (Hashtbl.find_opt last_write loc);
          (match Hashtbl.find_opt last_reads loc with
          | Some rs ->
              List.iter (check_edge q) !rs;
              Hashtbl.remove last_reads loc
          | None -> ());
          Hashtbl.replace last_write loc (idx, q, tcount.(q), Array.copy clocks.(q))
      | KNil -> ())
    in
    let zset = ref [] (* sleep set in effect at the frontier *) in
    let last = ref (-1) in
    let spent = ref 0 in
    let idx = ref 0 in
    try
      let rec go () =
        if !failure <> None then ()
        else if Exec.finished exec then begin
          incr completed;
          match verdict_at_quiescence inst mon (List.rev !schedule) with
          | Some f -> failure := Some f
          | None -> ()
        end
        else begin
          let enabled = Exec.runnable_threads exec in
          match enabled with
          | [] -> fail (fun s -> Deadlock { schedule = s })
          | _ when !idx >= config.max_steps -> fail (fun s -> Step_limit { schedule = s })
          | _ ->
              let node =
                if !idx < !len then begin
                  (* Replay: refresh the state-dependent fields. *)
                  let node = !stack.(!idx) in
                  node.enabled <- enabled;
                  node.spent <- !spent;
                  node
                end
                else begin
                  let awake = List.filter (fun t -> not (List.mem t !zset)) enabled in
                  match awake with
                  | [] ->
                      incr blocked;
                      raise Sleep_blocked
                  | _ ->
                      let c = if List.mem !last awake then !last else List.hd awake in
                      let node =
                        {
                          chosen = c;
                          dn_done = [ c ];
                          backtrack = [];
                          enabled;
                          spent = !spent;
                        }
                      in
                      push node;
                      node
                end
              in
              let c = node.chosen in
              (* Siblings already fully explored sleep through this
                 subtree; the chosen thread itself is always awake. *)
              List.iter
                (fun t -> if t <> c && not (List.mem t !zset) then zset := t :: !zset)
                node.dn_done;
              zset := List.filter (fun t -> t <> c) !zset;
              let z_pend = List.map (fun t -> (t, sig_of_pending (Exec.pending exec t))) !zset in
              let pend = Exec.pending exec c in
              schedule := c :: !schedule;
              Exec.step exec c;
              let step_sig =
                match pend with
                | Exec.Access a ->
                    notify_monitor mon exec c a;
                    let s = sig_of_pending pend in
                    analyze !idx c s;
                    s
                | Exec.Blocked _ -> (-1, KNil) (* unpark: no shared access *)
                | Exec.Done -> (-1, KNil)
              in
              (* A sleeping thread wakes when a dependent step executes. *)
              zset :=
                List.filter_map
                  (fun (t, psig) -> if conflict step_sig psig then None else Some t)
                  z_pend;
              spent := !spent + B.cost ~last:!last ~enabled ~choice:c;
              last := c;
              incr idx;
              go ()
        end
      in
      go ()
    with
    | Sleep_blocked -> ()
    | Exec.Stuck msg -> fail (fun s -> Crashed { schedule = s; exn = msg })
    | e -> fail (fun s -> Crashed { schedule = s; exn = Printexc.to_string e })
  in
  (* Outer loop: run, then backtrack to the deepest state with an untried
     choice, truncate and re-run. *)
  let rec explore () =
    if !failure <> None then ()
    else if !completed + !blocked >= config.max_executions then truncated := true
    else begin
      run_one ();
      if !failure = None then begin
        let rec find k =
          if k < 0 then None
          else
            let st = !stack.(k) in
            match List.filter (fun p -> not (List.mem p st.dn_done)) st.backtrack with
            | [] -> find (k - 1)
            | p :: _ -> Some (k, p)
        in
        match find (!len - 1) with
        | None -> ()
        | Some (k, p) ->
            len := k + 1;
            let st = !stack.(k) in
            st.chosen <- p;
            st.dn_done <- p :: st.dn_done;
            explore ()
      end
    end
  in
  explore ();
  if !Vbl_obs.Probe.enabled then begin
    Vbl_obs.Probe.add Metrics.Dpor_executions !completed;
    Vbl_obs.Probe.add Metrics.Dpor_sleep_blocked !blocked;
    Vbl_obs.Probe.add Metrics.Bound_prunes !prunes
  end;
  {
    executions = !completed;
    sleep_blocked = !blocked;
    races = !races;
    bound_prunes = !prunes;
    distinct_schedules = !completed;
    truncated = !truncated;
    failure = !failure;
  }

(* ------------------------------------------------------------------ *)
(* Naive DFS (the pre-DPOR explorer), behind the same bounds.          *)
(* ------------------------------------------------------------------ *)

(* A branch left to explore: re-run along [prefix], then choose [choice]. *)
type branch = { prefix : int list (* reversed *); choice : int; b_spent : int }

let run_dfs ~config ~monitor (b : bound) scenario =
  let module B = (val b) in
  let executions = ref 0 in
  let prunes = ref 0 in
  let truncated = ref false in
  let failure = ref None in
  let worklist = Stack.create () in
  (* Execute one run: follow [prefix] (reversed choice list), then continue
     with the default policy (keep running the last thread; at each decision
     point push the untried alternatives).  Returns unit; failures land in
     [failure]. *)
  let execute prefix0 spent0 =
    incr executions;
    let inst = scenario.make () in
    let mon = Option.map (fun f -> f ()) monitor in
    let exec = Exec.create inst.bodies in
    let schedule = ref [] in
    let prefix = List.rev prefix0 in
    let fail f = failure := Some (f (List.rev !schedule)) in
    let step_choice c =
      schedule := c :: !schedule;
      step_with_monitor exec mon c
    in
    try
      (* Replay the committed prefix. *)
      List.iter step_choice prefix;
      (* Extend: the default policy runs the previous thread while it can
         run, else the lowest-numbered enabled thread (this is exactly the
         delay bound's baseline scheduler); alternatives within the bound's
         budget are pushed for later exploration. *)
      let rec extend last spent steps =
        if steps > config.max_steps then fail (fun s -> Step_limit { schedule = s })
        else if Exec.finished exec then begin
          match verdict_at_quiescence inst mon (List.rev !schedule) with
          | Some f -> failure := Some f
          | None -> ()
        end
        else begin
          let enabled = Exec.runnable_threads exec in
          match enabled with
          | [] -> fail (fun s -> Deadlock { schedule = s })
          | _ ->
              let continue_last = List.mem last enabled in
              let chosen = if continue_last then last else List.hd enabled in
              (* Alternatives: admitted iff the bound's budget covers their
                 admission cost; ranked so the lowest-priority alternative
                 is popped first from the LIFO worklist. *)
              let admitted =
                List.filter_map
                  (fun c ->
                    if c = chosen then None
                    else begin
                      let cost = B.cost ~last ~enabled ~choice:c in
                      let within =
                        match B.budget with None -> true | Some bd -> spent + cost <= bd
                      in
                      if within then Some (c, spent + cost)
                      else begin
                        incr prunes;
                        None
                      end
                    end)
                  enabled
              in
              List.iter
                (fun (c, sp) ->
                  Stack.push { prefix = !schedule; choice = c; b_spent = sp } worklist)
                (rank_candidates b ~last ~enabled admitted);
              let spent' = spent + B.cost ~last ~enabled ~choice:chosen in
              step_choice chosen;
              extend chosen spent' (steps + 1)
        end
      in
      let last = match prefix with [] -> -1 | _ -> List.hd (List.rev prefix) in
      extend last spent0 (List.length prefix)
    with
    | Exec.Stuck msg -> fail (fun s -> Crashed { schedule = s; exn = msg })
    | e -> fail (fun s -> Crashed { schedule = s; exn = Printexc.to_string e })
  in
  execute [] 0;
  let rec drain () =
    if !failure <> None then ()
    else if Stack.is_empty worklist then ()
    else if !executions >= config.max_executions then truncated := true
    else begin
      let br = Stack.pop worklist in
      execute (br.choice :: br.prefix) br.b_spent;
      drain ()
    end
  in
  drain ();
  if !Vbl_obs.Probe.enabled then Vbl_obs.Probe.add Metrics.Bound_prunes !prunes;
  {
    executions = !executions;
    sleep_blocked = 0;
    races = 0;
    bound_prunes = !prunes;
    distinct_schedules = !executions;
    truncated = !truncated;
    failure = !failure;
  }

(* ------------------------------------------------------------------ *)
(* Weighted-random swarm scheduler.                                    *)
(* ------------------------------------------------------------------ *)

module Rng = Vbl_util.Rng

let run_random ~config ~monitor { seed; iters } scenario =
  let runs = ref 0 in
  let truncated = ref false in
  let failure = ref None in
  let seen : (int list, unit) Hashtbl.t = Hashtbl.create 64 in
  let i = ref 0 in
  while !failure = None && !i < iters && not !truncated do
    if !runs >= config.max_executions then truncated := true
    else begin
      incr runs;
      (* One independent stream per run: the whole swarm is a pure function
         of (seed, run index), so failures replay deterministically. *)
      let rng = Rng.stream ~seed ~index:!i in
      let inst = scenario.make () in
      let mon = Option.map (fun f -> f ()) monitor in
      let exec = Exec.create inst.bodies in
      let n = List.length inst.bodies in
      (* Swarm configuration: this run's personality.  Weights skew which
         threads win contended choices; [p_stay] sets the preemption
         probability; [streak_cap] is the fairness window after which a
         running thread is forcibly descheduled if anyone else can run. *)
      let weights = Array.init n (fun _ -> 1 + Rng.int rng 8) in
      let p_stay = 0.4 +. (0.5 *. Rng.float rng) in
      let streak_cap = 4 + Rng.int rng 29 in
      let weighted pool =
        let total = List.fold_left (fun acc t -> acc + weights.(t)) 0 pool in
        let r = Rng.int rng total in
        let rec go acc = function
          | [] -> assert false
          | [ t ] -> t
          | t :: tl ->
              let acc = acc + weights.(t) in
              if r < acc then t else go acc tl
        in
        go 0 pool
      in
      let pick enabled last streak =
        let others = List.filter (fun t -> t <> last) enabled in
        if others = [] then List.hd enabled
        else if last >= 0 && List.mem last enabled then
          if streak >= streak_cap then weighted others (* fairness: forced switch *)
          else if Rng.float rng < p_stay then last
          else weighted enabled
        else weighted enabled
      in
      let schedule = ref [] in
      let fail f = failure := Some (f (List.rev !schedule)) in
      (try
         let rec drive last streak steps =
           if Exec.finished exec then (
             match verdict_at_quiescence inst mon (List.rev !schedule) with
             | Some f -> failure := Some f
             | None -> ())
           else
             match Exec.runnable_threads exec with
             | [] -> fail (fun s -> Deadlock { schedule = s })
             | _ when steps >= config.max_steps ->
                 fail (fun s -> Step_limit { schedule = s })
             | enabled ->
                 let c = pick enabled last streak in
                 schedule := c :: !schedule;
                 step_with_monitor exec mon c;
                 drive c (if c = last then streak + 1 else 1) (steps + 1)
         in
         drive (-1) 0 0
       with
      | Exec.Stuck msg -> fail (fun s -> Crashed { schedule = s; exn = msg })
      | e -> fail (fun s -> Crashed { schedule = s; exn = Printexc.to_string e }));
      Hashtbl.replace seen (List.rev !schedule) ();
      incr i
    end
  done;
  let distinct = Hashtbl.length seen in
  if !Vbl_obs.Probe.enabled then begin
    Vbl_obs.Probe.add Metrics.Sct_runs !runs;
    Vbl_obs.Probe.add Metrics.Sct_distinct_schedules distinct
  end;
  {
    executions = !runs;
    sleep_blocked = 0;
    races = 0;
    bound_prunes = 0;
    distinct_schedules = distinct;
    truncated = !truncated;
    failure = !failure;
  }

(* ------------------------------------------------------------------ *)
(* Entry points.                                                       *)
(* ------------------------------------------------------------------ *)

let run ?(config = default_config) ?monitor ?(strategy = Dpor (preempt 3)) scenario =
  match strategy with
  | Dpor b -> run_dpor ~config ~monitor b scenario
  | Dfs b -> run_dfs ~config ~monitor b scenario
  | Random rc -> run_random ~config ~monitor rc scenario
