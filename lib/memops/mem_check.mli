(** Backend conformance checks.

    Compile-time: both backends must implement {!Mem_intf.S} (checked by
    module constraints, exporting nothing).

    Runtime: {!check_parity} pushes one mixed workload — covering every
    primitive of the signature, links and keys included, on nodes whose
    first field is their successor link and second their key — through {!Real_mem} and {!Instr_mem} (the
    latter under [run_sequential]) and diffs the resulting abstract sets
    and per-operation results. *)

type parity_report = {
  real_set : int list;
  instr_set : int list;
  mismatches : string list;  (** empty = backends agree *)
}

val check_parity : unit -> parity_report
