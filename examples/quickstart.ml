(* Quickstart: the VBL list as a concurrent integer set.

   Run with:  dune exec examples/quickstart.exe

   The public API is Vbl_lists.Registry (pre-instantiated algorithms on the
   real Atomic backend) or any Vbl_lists.*.Make functor applied to
   Vbl_memops.Real_mem.                                                   *)

module Set = Vbl_lists.Registry.Vbl

let () =
  (* Single-threaded basics. *)
  let s = Set.create () in
  assert (Set.insert s 42);
  assert (not (Set.insert s 42)) (* duplicate: no lock was even taken *);
  assert (Set.contains s 42);
  assert (Set.remove s 42);
  assert (not (Set.contains s 42));

  (* Concurrent use: just share the set across domains. *)
  let keys = 1_000 in
  let domains =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            let rng = Vbl_util.Rng.create ~seed:(Int64.of_int (7 * (d + 1))) () in
            let hits = ref 0 in
            for _ = 1 to 20_000 do
              let v = 1 + Vbl_util.Rng.int rng keys in
              match Vbl_util.Rng.int rng 10 with
              | 0 | 1 -> ignore (Set.insert s v)
              | 2 | 3 -> ignore (Set.remove s v)
              | _ -> if Set.contains s v then incr hits
            done;
            !hits))
  in
  let hits = List.map Domain.join domains in
  Printf.printf "4 domains ran 80k mixed operations; contains hits per domain: %s\n"
    (String.concat ", " (List.map string_of_int hits));

  (* The structure is intact and sorted afterwards. *)
  (match Set.check_invariants s with
  | Ok () -> Printf.printf "invariants OK, final size = %d\n" (Set.size s)
  | Error msg -> failwith msg);

  (* Every algorithm of the family shares the same interface; the registry
     holds them all. *)
  let module Lazy_list = Vbl_lists.Registry.Lazy in
  let l = Lazy_list.create () in
  List.iter (fun v -> ignore (Lazy_list.insert l v)) [ 3; 1; 2 ];
  Printf.printf "lazy list contents: [%s]\n"
    (String.concat "; " (List.map string_of_int (Lazy_list.to_list l)))
