(* Compile-time check that both backends implement the shared signature.
   No code is generated; a mismatch is a build error here rather than a
   confusing one inside a list functor application. *)

module _ : Mem_intf.S = Real_mem
module _ : Mem_intf.S = Instr_mem

(* Runtime backend-parity check: the same mixed workload, expressed once
   as a functor over {!Mem_intf.S}, must leave the same abstract set
   behind on both backends.  The workload is a miniature sorted
   singly-linked set exercising every primitive of the signature — link,
   get_link, set_link and cas_link (taken and failed), and key, get_key
   and set_key (a node recycled under a new key), on nodes whose first
   field is their successor link and whose second is their key, as the
   list families lay them out; get, set and cas (taken and failed) on
   cells; touch, new_node,
   field, try_lock on a make_lock and a field_lock, blocking lock/unlock
   — so a backend whose primitive semantics drift (a cas that
   misreports, a set that is lost, a link or key read or written at the
   wrong field, lock state leaking between operations) produces a visible set
   difference rather than a subtle downstream failure.  [Instr_mem] runs
   it under [run_sequential]; [Real_mem] runs it directly on a single
   domain — both are sequential executions of the same program, so the
   results must agree exactly. *)

module Parity_workload (M : Mem_intf.S) = struct
  type node = Nil | Node of { next : node M.link; value : int M.key }

  (* [Nil] has no link: every link access checks its node first. *)
  let next_of = function Node n -> n.next | Nil -> assert false
  let key_of = function Node n -> n.value | Nil -> assert false
  let linked = function Node _ as n -> n | Nil -> assert false
  let next n = M.get_link (linked n) next_of

  let insert head v =
    let line = M.fresh_line () in
    let nm = if M.named then Printf.sprintf "P%d" v else "" in
    if M.named then M.new_node ~name:nm ~line;
    let rec walk prev =
      match next prev with
      | Node { value; _ } as curr when M.get_key value < v -> walk curr
      | Node { value; _ } when M.get_key value = v -> false
      | at ->
          let value = M.key nm ".val" ~line v in
          M.cas_link (linked prev) next_of at (Node { next = M.link nm ".next" ~line at; value })
    in
    walk head

  let remove head v =
    let rec walk prev =
      match next prev with
      | Node { value; _ } as curr when M.get_key value < v -> walk curr
      | Node { value; _ } as curr when M.get_key value = v ->
          M.set_link (linked prev) next_of (next curr);
          true
      | _ -> false
    in
    walk head

  (* Recycle the first node under the key [v], as the reclaiming inserts
     do: unlink it, rewrite its key and link while it is unreachable,
     then publish it at [v]'s place.  Dropped if [v] is present. *)
  let rekey head v =
    match next head with
    | Nil -> false
    | Node _ as x ->
        M.set_link head next_of (next x);
        let rec walk prev =
          match next prev with
          | Node { value; _ } as curr when M.get_key value < v -> walk curr
          | Node { value; _ } when M.get_key value = v -> false
          | at ->
              M.set_key x key_of v;
              M.set_link x next_of at;
              M.cas_link (linked prev) next_of at x
        in
        walk head

  let to_list head =
    let rec go acc = function
      | Nil -> List.rev acc
      | Node { value; _ } as n -> go (M.get_key value :: acc) (next n)
    in
    go [] (next head)

  (* One deterministic mixed run: interleaved inserts/removes, failed
     link and cell cas, lock-guarded mutation, and the bookkeeping
     primitives. *)
  let run () =
    let line = M.fresh_line () in
    let value = M.key "p" ".min" ~line 0 in
    let head = Node { next = M.link "p" ".head" ~line Nil; value } in
    M.touch ~line ~name:"p.touch";
    let lock = M.make_lock ~name:"p.lock" ~line () in
    let node_lock = M.field_lock "p" ".nlock" ~line () in
    let log = ref [] in
    let record op v r = log := (op, v, r) :: !log in
    List.iter
      (fun v -> record "insert" v (insert head v))
      [ 5; 3; 9; 3; 7; 1; 9 ];
    record "remove" 3 (remove head 3);
    record "remove" 4 (remove head 4);
    (* A link cas that must fail: insert 0 replaces the head's successor,
       so the earlier read is stale by the time the cas runs. *)
    let stale = next head in
    record "insert" 0 (insert head 0);
    record "cas-stale" 0 (M.cas_link head next_of stale Nil);
    (* Cell cas, taken then stale, and a plain store. *)
    let count = M.make ~name:"p.count" ~line 0 in
    record "cas-cell" 0 (M.cas count 0 1);
    record "cas-cell-stale" 0 (M.cas count 0 2);
    M.set count 3;
    record "set-cell" (M.get count) true;
    (* Lock-guarded update; also checks try_lock sees the held state. *)
    M.lock lock;
    record "trylock-held" 0 (M.try_lock lock);
    record "insert" 6 (insert head 6);
    M.unlock lock;
    record "trylock-free" 0 (M.try_lock lock);
    M.unlock lock;
    record "field-trylock-free" 0 (M.try_lock node_lock);
    record "field-trylock-held" 0 (M.try_lock node_lock);
    M.unlock node_lock;
    record "remove" 9 (remove head 9);
    record "rekey" 8 (rekey head 8);
    record "rekey" 5 (rekey head 5);
    (to_list head, List.rev !log)
end

module Parity_real = Parity_workload (Real_mem)
module Parity_instr = Parity_workload (Instr_mem)

type parity_report = {
  real_set : int list;
  instr_set : int list;
  mismatches : string list;  (** empty = backends agree *)
}

(** Run the workload through both backends and diff the resulting abstract
    sets and per-operation results. *)
let check_parity () =
  let real_set, real_log = Parity_real.run () in
  let instr_set, instr_log = Instr_mem.run_sequential Parity_instr.run in
  let mismatches = ref [] in
  if real_set <> instr_set then
    mismatches :=
      Printf.sprintf "final sets differ: real {%s} vs instr {%s}"
        (String.concat ", " (List.map string_of_int real_set))
        (String.concat ", " (List.map string_of_int instr_set))
      :: !mismatches;
  (try
     List.iter2
       (fun (op_r, v_r, res_r) (op_i, v_i, res_i) ->
         if (op_r, v_r, res_r) <> (op_i, v_i, res_i) then
           mismatches :=
             Printf.sprintf "op result differs: real %s(%d)=%b vs instr %s(%d)=%b" op_r v_r
               res_r op_i v_i res_i
             :: !mismatches)
       real_log instr_log
   with Invalid_argument _ ->
     mismatches := "operation logs have different lengths" :: !mismatches);
  { real_set; instr_set; mismatches = List.rev !mismatches }
