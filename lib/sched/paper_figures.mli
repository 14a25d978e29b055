(** The schedules of the paper's Figures 2 and 3 as executable artefacts:
    scenario, script in the paper's step vocabulary, and drivers.  The
    claims themselves are asserted in the test suite and narrated by
    [bin/schedules.exe]. *)

module Fig2 : sig
  val initial : int list
  (** [{1}] — the list contains X1 storing 1. *)

  val ops : Ll_abstract.opspec list
  (** Thread 0: insert(1); thread 1: insert(2). *)

  val script : Directed.directive list

  val run : (module Vbl_lists.Set_intf.S) -> Directed.outcome
  (** Drive the Figure 2 schedule against an implementation: VBL accepts,
      the lazy list rejects with [Thread_blocked]. *)

  val abstract : unit -> Ll_abstract.t
  (** The same schedule replayed on sequential LL, for Definition 1
      checking. *)
end

module Fig3 : sig
  val initial : int list
  (** [{2; 3; 4}]. *)

  val ops : Ll_abstract.opspec list
  (** insert(1), remove(2), insert(3), insert(4). *)

  val script : Directed.directive list
  (** In Harris-Michael's adjusted-LL vocabulary; both HM encodings reject
      it with [Step_failed] at insert(4)'s unlink. *)

  val run : (module Vbl_lists.Set_intf.S) -> Directed.outcome

  val vbl_phase_b_script : Directed.directive list
  (** The same four operations adapted to VBL's immediate unlink. *)

  val run_vbl : unit -> Directed.outcome
end
