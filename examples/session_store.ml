(* Session store: the workload class the paper's 20%-update point models.

   A web tier tracks active session ids in a shared set: request handlers
   mostly *check* sessions (contains), login/logout traffic inserts and
   removes.  The paper calls 20% updates "the standard load on databases";
   this example runs exactly that mix on the VBL list and on the lazy list
   and reports what each sustained, plus the failed-update rates that
   explain why VBL's no-lock-on-failure matters: a failed login retry
   (insert of a live session) or a double logout (remove of a dead one)
   never touches a lock under VBL.

   Run with:  dune exec examples/session_store.exe                        *)

let sessions = 512 (* small id space: deliberately contended *)
let handlers = 4
let requests_per_handler = 30_000

type tally = { mutable checks : int; mutable logins : int; mutable logouts : int;
               mutable failed_updates : int }

let run_store name (impl : Vbl_lists.Registry.impl) =
  let module S = (val impl) in
  let store = S.create () in
  (* Half the session ids are live at the start. *)
  let rng = Vbl_util.Rng.create ~seed:2024L () in
  for id = 1 to sessions do
    if Vbl_util.Rng.bool rng then ignore (S.insert store id)
  done;
  let worker h () =
    let rng = Vbl_util.Rng.create ~seed:(Int64.of_int (1000 + h)) () in
    let t = { checks = 0; logins = 0; logouts = 0; failed_updates = 0 } in
    for _ = 1 to requests_per_handler do
      let id = 1 + Vbl_util.Rng.int rng sessions in
      let roll = Vbl_util.Rng.int rng 100 in
      if roll < 10 then begin
        t.logins <- t.logins + 1;
        if not (S.insert store id) then t.failed_updates <- t.failed_updates + 1
      end
      else if roll < 20 then begin
        t.logouts <- t.logouts + 1;
        if not (S.remove store id) then t.failed_updates <- t.failed_updates + 1
      end
      else begin
        t.checks <- t.checks + 1;
        ignore (S.contains store id)
      end
    done;
    t
  in
  let started = Unix.gettimeofday () in
  let tallies = List.map Domain.join (List.init handlers (fun h -> Domain.spawn (worker h))) in
  let elapsed = Unix.gettimeofday () -. started in
  let total f = List.fold_left (fun acc t -> acc + f t) 0 tallies in
  let updates = total (fun t -> t.logins) + total (fun t -> t.logouts) in
  Printf.printf "%-6s %8.0f req/s | %d checks, %d logins, %d logouts\n" name
    (float_of_int (handlers * requests_per_handler) /. elapsed)
    (total (fun t -> t.checks)) (total (fun t -> t.logins)) (total (fun t -> t.logouts));
  Printf.printf "       failed updates: %d of %d (%.0f%%) — each one is a lock VBL never took\n"
    (total (fun t -> t.failed_updates))
    updates
    (100. *. float_of_int (total (fun t -> t.failed_updates)) /. float_of_int updates);
  match S.check_invariants store with
  | Ok () -> Printf.printf "       store intact, %d live sessions\n\n" (S.size store)
  | Error msg -> failwith (name ^ ": " ^ msg)

let () =
  Printf.printf "session store: %d handlers x %d requests, %d session ids, 20%% updates\n\n"
    handlers requests_per_handler sessions;
  run_store "vbl" (module Vbl_lists.Registry.Vbl);
  run_store "lazy" (module Vbl_lists.Registry.Lazy)
