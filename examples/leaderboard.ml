(* Leaderboard: picking the right structure from the family.

   A game service tracks which score buckets are occupied.  Lookups
   dominate, the bucket space is large (10k), and the working set churns —
   the access pattern that separates the O(n) lists from the O(log n)
   structures, and the reason the paper's key-range axis matters.

   The example runs the same workload over four family members sharing one
   interface — the VBL list, the two skip lists and the VBL tree — and
   prints sustained throughput, demonstrating that the repository is a
   toolbox, not a single data structure.

   Run with:  dune exec examples/leaderboard.exe                          *)

let buckets = 10_000
let workers = 4
let requests = 25_000

let run_board name (impl : (module Vbl_lists.Set_intf.S)) =
  let module S = (val impl) in
  let board = S.create () in
  let rng = Vbl_util.Rng.create ~seed:99L () in
  let keys = Array.init buckets (fun i -> i + 1) in
  Vbl_util.Rng.shuffle rng keys;
  Array.iter (fun b -> if Vbl_util.Rng.bool rng then ignore (S.insert board b)) keys;
  let worker w () =
    let rng = Vbl_util.Rng.create ~seed:(Int64.of_int (500 + w)) () in
    for _ = 1 to requests do
      let b = 1 + Vbl_util.Rng.int rng buckets in
      let roll = Vbl_util.Rng.int rng 100 in
      if roll < 5 then ignore (S.insert board b)
      else if roll < 10 then ignore (S.remove board b)
      else ignore (S.contains board b)
    done
  in
  let started = Unix.gettimeofday () in
  List.iter Domain.join (List.init workers (fun w -> Domain.spawn (worker w)));
  let elapsed = Unix.gettimeofday () -. started in
  (match S.check_invariants board with
  | Ok () -> ()
  | Error msg -> failwith (name ^ ": " ^ msg));
  Printf.printf "  %-16s %8.0f req/s   (%d buckets occupied at the end)\n" name
    (float_of_int (workers * requests) /. elapsed)
    (S.size board)

let () =
  Printf.printf
    "leaderboard: %d workers x %d requests over %d buckets, 10%% updates\n\n"
    workers requests buckets;
  run_board "vbl (list)" (module Vbl_lists.Registry.Vbl);
  run_board "lazy-skiplist" (module Vbl_skiplists.Registry.Lazy_skip);
  run_board "vbl-skiplist" (module Vbl_skiplists.Registry.Vbl_skip);
  run_board "vbl-bst" (module Vbl_trees.Registry.Vbl_bst_impl);
  print_newline ();
  print_endline "(same Set_intf.S interface throughout; the log-depth structures win";
  print_endline " as soon as the key range dwarfs the contention hot-spots)"
