(** Systematic concurrency testing of interleavings (dscheck-style
    re-execution), checking every complete execution for linearizability
    and structural invariants — the executable counterpart of the paper's
    Theorem 1 on bounded configurations.

    Three exploration {!strategy}s share one entry point ({!run}) and one
    verdict pipeline:

    - [Dpor bound] — persistent-set DPOR with sleep sets
      (Flanagan–Godefroid): races (dependent, unordered step pairs) are
      detected via vector clocks and seed backtrack points; commutations
      are pruned by sleep sets.  With the {!none} bound it is sound and
      complete per Mazurkiewicz trace.
    - [Dfs bound] — the brute-force DFS (every enabled thread branches at
      every step), kept for parity and reduction measurements: the same
      verdicts as DPOR, no reduction ([sleep_blocked] and [races] are
      always [0]).
    - [Random {seed; iters}] — weighted-random swarm scheduling for
      schedule spaces too large to enumerate: each run draws its own
      weights, preemption probability, and fairness window from the
      seeded stream.  Fair in the dejafu sense (a monopolising thread is
      forcibly descheduled past the fairness window), so spin-wait loops
      terminate.

    Schedule bounding is pluggable ({!BOUND}, after dejafu's
    [sctPreBound]/[sctDelayBound]): {!preempt} charges preemptions,
    {!delay} charges deviations from the deterministic baseline
    scheduler, {!none} admits everything.  Bounds apply to both
    systematic strategies; the random strategy ignores them.

    All strategies accept an optional {!step_monitor}: a per-execution
    observer fed every executed access (with its shadow state), able to
    veto an otherwise-passing execution at quiescence — this is how the
    race detector and lock-discipline linter of [vbl.analysis] hook in. *)

type scenario = { make : unit -> instance }
(** Called once per explored execution; must return fully independent
    state. *)

and instance = {
  bodies : (unit -> unit) list;
  history : unit -> Vbl_spec.History.t;  (** read after all threads finish *)
  invariants : unit -> (unit, string) result;
}

type config = {
  max_executions : int;
  max_steps : int;  (** per-execution cap (guards against livelock) *)
}

val default_config : config

(** {2 Schedule bounds} *)

module type BOUND = sig
  val name : string

  val budget : int option
  (** Total admission cost one execution may spend; [None] = no cap. *)

  val cost : last:int -> enabled:int list -> choice:int -> int
  (** Admission cost of scheduling [choice] when [last] ran previously
      ([-1] at the initial state) and [enabled] are runnable. *)

  val priority : last:int -> enabled:int list -> choice:int -> int
  (** Priority among sibling backtrack points: lower explored first.  A
      constant priority preserves the underlying search order. *)
end

type bound = (module BOUND)

val preempt : int -> bound
(** At most [n] preemptions: switching away from a thread that could
    still run costs one unit. *)

val delay : int -> bound
(** At most [n] deviations from the deterministic baseline scheduler
    (keep running the previous thread while it can run, else the
    lowest-numbered enabled thread) — dejafu's delay bounding.  The
    schedule space grows with the step count but {e not} with the thread
    count, which is what scales to 3–4 domain scenarios. *)

val none : bound
(** No bound: full exhaustive exploration. *)

val bound_name : bound -> string

type random_config = { seed : int64; iters : int }

type strategy = Dpor of bound | Dfs of bound | Random of random_config

val strategy_name : strategy -> string

type failure =
  | Not_linearizable of { schedule : int list; history : string }
  | Invariant_broken of { schedule : int list; msg : string }
  | Deadlock of { schedule : int list }
  | Step_limit of { schedule : int list }
  | Crashed of { schedule : int list; exn : string }
  | Analysis_violation of { schedule : int list; kind : string; msg : string }
      (** Reported by the step monitor at the end of an execution (race,
          lock-discipline breach, ...). *)

type report = {
  executions : int;  (** executions run (to quiescence for Dpor/Dfs) *)
  sleep_blocked : int;  (** executions pruned by the sleep set (DPOR only) *)
  races : int;  (** dependent unordered pairs that seeded backtracks (DPOR only) *)
  bound_prunes : int;  (** choices rejected by the bound's budget (systematic only) *)
  distinct_schedules : int;
      (** distinct complete schedules observed; equals [executions] for the
          systematic strategies, and counts schedule-collisions out for
          [Random] *)
  truncated : bool;  (** the execution cap stopped exploration early *)
  failure : failure option;  (** first failure found *)
}

type event = {
  ev_thread : int;
  ev_access : Vbl_memops.Instr_mem.access;
  ev_effective : bool;  (** CAS / lock-attempt success; [true] for other kinds *)
  ev_completed : bool;  (** the thread finished right after this step *)
}

type step_monitor = {
  on_step : event -> unit;
  at_end : unit -> (string * string) option;
      (** called at quiescence of a complete execution; [Some (kind, msg)]
          becomes an {!Analysis_violation} *)
}

val pp_failure : Format.formatter -> failure -> unit

val failure_schedule : failure -> int list
(** The thread-choice sequence reproducing the failure. *)

val step_with_monitor : Exec.t -> step_monitor option -> int -> unit
(** Execute one scheduling choice and feed the step to the monitor — the
    one legal way to advance an execution an attached monitor observes.
    The schedule shrinker replays through this. *)

val verdict_at_quiescence : instance -> step_monitor option -> int list -> failure option
(** The verdict every strategy applies to a complete execution: monitor
    first, then linearizability of the history, then invariants.  [None]
    means the execution passes. *)

val run :
  ?config:config -> ?monitor:(unit -> step_monitor) -> ?strategy:strategy -> scenario -> report
(** Explore under [strategy] (default: [Dpor (preempt 3)]).  [monitor] is
    called once per execution to create a fresh observer. *)
