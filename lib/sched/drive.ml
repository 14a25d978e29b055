(** Glue between the schedule machinery and concrete implementations
    running on the instrumented backend.  The instrumented sets themselves
    are declared in the family registries ({!Vbl_lists.Registry} and its
    skiplist, tree and shard siblings); this module only drives them.

    [prepare] builds a fresh instance of an algorithm, pre-populates it
    sequentially (outside the measured schedule, like the paper's warm-up
    population), and wraps the requested operations as thread bodies whose
    results are captured — ready for {!Directed.run} or {!Explore.run}. *)

module Instr = Vbl_memops.Instr_mem

type prepared = {
  bodies : (unit -> unit) list;
  results : bool option array;
  invariants : unit -> (unit, string) result;
  contents : unit -> int list;
}

let run_op (type s) (module S : Vbl_lists.Set_intf.S with type t = s) (t : s)
    (spec : Ll_abstract.opspec) =
  match spec.Ll_abstract.kind with
  | Ll_abstract.Insert -> S.insert t spec.Ll_abstract.v
  | Ll_abstract.Remove -> S.remove t spec.Ll_abstract.v
  | Ll_abstract.Contains -> S.contains t spec.Ll_abstract.v

let prepare (module S : Vbl_lists.Set_intf.S) ~initial ~(ops : Ll_abstract.opspec list) :
    prepared =
  let t =
    Instr.run_sequential (fun () ->
        let t = S.create () in
        List.iter (fun v -> ignore (S.insert t v)) initial;
        t)
  in
  let results = Array.make (List.length ops) None in
  let bodies =
    List.mapi
      (fun i spec () -> results.(i) <- Some (run_op (module S) t spec))
      ops
  in
  {
    bodies;
    results;
    invariants = (fun () -> Instr.run_sequential (fun () -> S.check_invariants t));
    contents = (fun () -> Instr.run_sequential (fun () -> S.to_list t));
  }

(** Drive a script against a fresh instance; the returned [prepared] gives
    access to the instance's final contents and invariants. *)
let run_script_full (module S : Vbl_lists.Set_intf.S) ~initial ~ops script =
  let p = prepare (module S) ~initial ~ops in
  (Directed.run ~bodies:p.bodies ~results:p.results ~script, p)

let run_script impl ~initial ~ops script = fst (run_script_full impl ~initial ~ops script)

(** An exploration scenario over a fresh instance per execution.  The
    checked history is seeded with one completed [insert] per initial value
    so that linearizability is judged from the empty set, matching the
    specification. *)
let explore_scenario (module S : Vbl_lists.Set_intf.S) ~initial ~(ops : Ll_abstract.opspec list)
    : Explore.scenario =
  let make () =
    let p = prepare (module S) ~initial ~ops in
    let recorder = Vbl_spec.History.Recorder.create () in
    let bodies =
      List.mapi
        (fun i spec () ->
          let id =
            Vbl_spec.History.Recorder.invoke recorder ~thread:i (Ll_abstract.spec_to_model spec)
          in
          let body = List.nth p.bodies i in
          body ();
          let result = Option.get p.results.(i) in
          Vbl_spec.History.Recorder.return recorder id result)
        ops
    in
    let history () =
      let recorded = Vbl_spec.History.Recorder.history recorder in
      let seed =
        List.mapi
          (fun k v ->
            ( 1000 + k,
              0,
              Vbl_spec.Set_model.Insert v,
              -2 * (List.length initial - k),
              Vbl_spec.History.Returned true,
              (-2 * (List.length initial - k)) + 1 ))
          (List.sort_uniq compare initial)
      in
      let recorded_entries =
        List.map
          (fun (o : Vbl_spec.History.operation) ->
            (o.thread, o.index, o.op, o.invoked_at, o.completion, o.returned_at))
          (Vbl_spec.History.operations recorded)
      in
      (* The sigma-bar extension of §2.2: probe every relevant key with a
         trailing contains reflecting the actual final contents — this is
         what exposes lost updates, which leave the raw history
         linearizable. *)
      let final = p.contents () in
      let horizon =
        1 + List.fold_left (fun acc (_, _, _, _, _, r) -> max acc r) 0 recorded_entries
      in
      let keys =
        List.sort_uniq compare
          (List.map (fun (spec : Ll_abstract.opspec) -> spec.Ll_abstract.v) ops
          @ initial @ final)
      in
      let probes =
        List.mapi
          (fun k v ->
            ( 2000 + k,
              0,
              Vbl_spec.Set_model.Contains v,
              horizon + (2 * k) + 1,
              Vbl_spec.History.Returned (List.mem v final),
              horizon + (2 * k) + 2 ))
          keys
      in
      Vbl_spec.History.of_list (seed @ recorded_entries @ probes)
    in
    { Explore.bodies; history; invariants = p.invariants }
  in
  { Explore.make }

(** A range-read exploration scenario: thread 0 runs [range_query lo hi]
    while thread [i] (1..n) runs the [i]-th op sequence of [ops] in
    order, so one thread's ops are ordered in real time.  Single-key
    verdicts cannot judge a multi-key read, so the whole history goes
    through {!Vbl_spec.Multikey.check} instead: every operation is
    recorded as a multikey event against a logical clock (plain refs —
    ticks ride along with the adjacent instrumented step, like the
    history recorder's clock), and the verdict runs in the [invariants]
    closure at quiescence, after the structural check.  The bool-op history
    handed to the per-key checker is left empty; the multikey search
    subsumes it.  σ̄-style trailing contains probes against the actual
    final contents are appended so lost updates stay visible. *)
let explore_range_scenario (module S : Vbl_lists.Set_intf.S) ~initial
    ~range:(lo, hi) ~(ops : Ll_abstract.opspec list list) : Explore.scenario =
  let make () =
    let t =
      Instr.run_sequential (fun () ->
          let t = S.create () in
          List.iter (fun v -> ignore (S.insert t v)) initial;
          t)
    in
    let clock = ref 0 in
    let tick () =
      incr clock;
      !clock
    in
    let events = ref [] in
    let record thread op f =
      let invoked_at = tick () in
      let result = f () in
      let returned_at = tick () in
      events :=
        { Vbl_spec.Multikey.thread; op; result; invoked_at; returned_at }
        :: !events
    in
    let bodies =
      (fun () ->
        record 0
          (Vbl_spec.Multikey.Range { lo; hi })
          (fun () -> Vbl_spec.Multikey.Values (S.range_query t lo hi)))
      :: List.mapi
           (fun i thread_ops () ->
             List.iter
               (fun (spec : Ll_abstract.opspec) ->
                 record (i + 1)
                   (Vbl_spec.Multikey.Single (Ll_abstract.spec_to_model spec))
                   (fun () -> Vbl_spec.Multikey.Bool (run_op (module S) t spec)))
               thread_ops)
           ops
    in
    let invariants () =
      match Instr.run_sequential (fun () -> S.check_invariants t) with
      | Error _ as e -> e
      | Ok () ->
          let final = Instr.run_sequential (fun () -> S.to_list t) in
          let horizon = !clock in
          let keys =
            List.sort_uniq compare
              (List.map
                 (fun (spec : Ll_abstract.opspec) -> spec.Ll_abstract.v)
                 (List.concat ops)
              @ initial @ final)
          in
          let probes =
            List.mapi
              (fun k v ->
                {
                  Vbl_spec.Multikey.thread = 2000 + k;
                  op = Vbl_spec.Multikey.Single (Vbl_spec.Set_model.Contains v);
                  result = Vbl_spec.Multikey.Bool (List.mem v final);
                  invoked_at = horizon + (2 * k) + 1;
                  returned_at = horizon + (2 * k) + 2;
                })
              keys
          in
          let history = List.rev_append !events probes in
          if Vbl_spec.Multikey.check ~initial history then Ok ()
          else
            Error
              (Format.asprintf
                 "@[<h>range history not linearizable: %a@]"
                 (Format.pp_print_list
                    ~pp_sep:(fun ppf () -> Format.fprintf ppf " ")
                    Vbl_spec.Multikey.pp_event)
                 history)
    in
    {
      Explore.bodies;
      history = (fun () -> Vbl_spec.History.of_list []);
      invariants;
    }
  in
  { Explore.make }
