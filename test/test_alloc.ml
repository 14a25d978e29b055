(* Allocation tests for the real-backend hot paths.

   The zero-overhead claim of the real engine is concrete: with
   [Real_mem.named = false] and the closed top-level traversal loops, a
   [contains] allocates nothing on the minor heap, and an [insert]
   allocates exactly the node it links (its record plus the per-cell
   [Atomic.t]s; a list node's successor link and a node's key are fields
   of the record, not cells).  These tests pin that down with [Gc.minor_words], so a
   future refactor that reintroduces a per-operation closure, tuple or
   name string fails loudly rather than just benching slower.  Every
   registry set's fresh insert is pinned at the words it allocates: the
   node builders are written once for both backends ([M.field] with a
   name guarded on [M.named]), and a name or closure built outside that
   guard shows up here as extra words, where the lint's L2 rule sees
   only [Naming.*] mentions.

   Methodology: run the operation in a tight loop and divide the
   minor-words delta by the iteration count.  The constant overhead of the
   measurement itself (boxing the [Gc.minor_words] floats) is a handful of
   words in total, so with enough iterations a truly allocation-free loop
   measures well below one word per operation. *)

let iters = 20_000

(* Per-operation minor words of [f] applied to keys 1..n (cycled). *)
let minor_words_per_op ~range f =
  (* Warm up: promote the loop's code path and any lazy setup. *)
  for i = 1 to 100 do
    ignore (f ((i mod range) + 1))
  done;
  let before = Gc.minor_words () in
  for i = 1 to iters do
    ignore (f ((i mod range) + 1))
  done;
  let after = Gc.minor_words () in
  (after -. before) /. float_of_int iters

let find_impl = Vbl_harness.Sweep.find_real

(* Pre-populate with every odd key in [1, range], so the measured traffic
   sees both hits and misses. *)
let populate (type s) (module S : Vbl_lists.Set_intf.S with type t = s) (t : s) range =
  let v = ref 1 in
  while !v <= range do
    ignore (S.insert t !v);
    v := !v + 2
  done

(* [contains] over keys 1..128 with the odd ones present, so the
   measured traffic sees both hits and misses. *)
let contains_allocates name ~budget () =
  let range = 128 in
  let module S = (val find_impl name : Vbl_lists.Set_intf.S) in
  let t = S.create () in
  populate (module S) t range;
  let per_op = minor_words_per_op ~range (fun v -> S.contains t v) in
  if Float.abs (per_op -. budget) > 0.01 then
    Alcotest.failf "%s contains allocates %.3f minor words/op (budget %g)" name per_op budget

(* Insert fresh descending keys into an initially empty list: every insert
   links right behind the head, so the walk is O(1) and the only
   allocation should be the node itself.  [budget] is the node's footprint
   in words (block + one 2-word Atomic per cell; the link and the key
   are fields). *)
let insert_allocates_only_the_node name ~budget () =
  let impl = find_impl name in
  let module S = (val impl : Vbl_lists.Set_intf.S) in
  let t = S.create () in
  let n = 20_000 in
  for v = n + 100 downto n + 1 do
    ignore (S.insert t v)
  done;
  let before = Gc.minor_words () in
  for v = n downto 1 do
    ignore (S.insert t v)
  done;
  let after = Gc.minor_words () in
  let per_op = (after -. before) /. float_of_int n in
  if per_op > float_of_int budget +. 0.1 then
    Alcotest.failf "%s insert allocates %.2f minor words/op (node budget %d)" name per_op
      budget

(* Keys in a fixed shuffled order, so the trees stay shallow and every
   skiplist tower height is drawn in the same sequence. *)
let warmup = 200 and measured = 4_000

let shuffled_keys () =
  let keys = Array.init (warmup + measured) (fun i -> i + 1) in
  let rng = Random.State.make [| 7 |] in
  for i = Array.length keys - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let k = keys.(i) in
    keys.(i) <- keys.(j);
    keys.(j) <- k
  done;
  keys

(* [op] on the first [warmup] keys, then its minor words per call over
   the next [measured]. *)
let words_per_key op keys =
  for i = 0 to warmup - 1 do
    ignore (op keys.(i) : bool)
  done;
  let before = Gc.minor_words () in
  for i = warmup to warmup + measured - 1 do
    ignore (op keys.(i) : bool)
  done;
  let after = Gc.minor_words () in
  (after -. before) /. float_of_int measured

(* Fresh inserts in the shuffled order.  The walks allocate nothing, so
   this is the node plus whatever the algorithm's insert path builds
   around it (towers, search arrays, descriptors).  A name string or
   closure built on the real backend shows up as extra words. *)
let fresh_insert_words name =
  let module S = (val find_impl name : Vbl_lists.Set_intf.S) in
  let t = S.create () in
  words_per_key (S.insert t) (shuffled_keys ())

(* Removes of present keys, in the shuffled order they were inserted. *)
let present_remove_words name =
  let module S = (val find_impl name : Vbl_lists.Set_intf.S) in
  let keys = shuffled_keys () in
  let t = S.create () in
  Array.iter (fun k -> ignore (S.insert t k : bool)) keys;
  words_per_key (S.remove t) keys

let insert_allocates name ~budget () =
  let per_op = fresh_insert_words name in
  if Float.abs (per_op -. budget) > 0.1 then
    Alcotest.failf "%s fresh insert allocates %.2f minor words (budget %.2f)" name per_op
      budget

let remove_allocates name ~budget () =
  let per_op = present_remove_words name in
  if Float.abs (per_op -. budget) > 0.1 then
    Alcotest.failf "%s present remove allocates %.2f minor words (budget %.2f)" name per_op
      budget

(* Failed updates take the value-check early exit without locking — and,
   on this engine, without allocating. *)
let failed_updates_are_allocation_free name () =
  let range = 128 in
  let module S = (val find_impl name : Vbl_lists.Set_intf.S) in
  let t = S.create () in
  populate (module S) t range;
  (* Insert of a present key / remove of an absent key: keys 1,3,5.. are
     present, 2,4,6.. absent. *)
  let per_op =
    minor_words_per_op ~range (fun v ->
        if v land 1 = 1 then S.insert t v (* present: returns false *)
        else S.remove t v (* absent: returns false *))
  in
  if per_op > 0.01 then
    Alcotest.failf "%s failed updates allocate %.3f minor words/op (expected 0)" name
      per_op

(* The reclaiming backend's claim is the inverse of the node budget
   above: once a churn warm-up has aged retired nodes into the domain's
   free-list, an insert is served by reinitializing a recycled node and
   allocates (nearly) nothing — against the 9-word budget of a fresh
   vbl node.  "Nearly": the first few measured inserts may miss while
   the final bags age out, each miss costing one fresh node. *)
let recycled_insert_reuses_nodes () =
  let module S = Vbl_lists.Registry.Vbl_reclaim in
  let t = S.create () in
  let n = 20_000 in
  (* Descending inserts and ascending removes both hit right behind the
     head, so the warm-up is O(n) and retires 2n nodes. *)
  for _round = 1 to 2 do
    for v = n downto 1 do
      ignore (S.insert t v : bool)
    done;
    for v = 1 to n do
      ignore (S.remove t v : bool)
    done
  done;
  let before = Gc.minor_words () in
  for v = n downto 1 do
    ignore (S.insert t v : bool)
  done;
  let after = Gc.minor_words () in
  let per_op = (after -. before) /. float_of_int n in
  if per_op > 1.0 then
    Alcotest.failf
      "vbl-reclaim recycled insert allocates %.2f minor words/op (expected < 1, \
       fresh node is 9)"
      per_op

(* Every skiplist insert draws its tower height first; the draw is a
   counter bump and a splitmix64 step in registers. *)
let next_level_is_allocation_free () =
  let g = Vbl_util.Level_gen.create () in
  let per_op = minor_words_per_op ~range:1 (fun _ -> Vbl_util.Level_gen.next_level g) in
  if per_op > 0.01 then
    Alcotest.failf "Level_gen.next_level allocates %.3f minor words/op (expected 0)" per_op

(* Every registry set but the sharded frontends, at the words its
   [contains] allocates (the rows are checked against the registries
   below).  The walks are closed recursions, so a membership test
   allocates nothing, save on four sets whose [contains] still builds
   its traversal's state: [hand-over-hand] and [fomitchev-ruppert] 9
   words, [optimistic] 19, and [lockfree-skiplist] its search arrays and
   the closures of its [find], 116. *)
let contains_budgets =
  [
    ("vbl", 0.);
    ("lazy", 0.);
    ("harris-michael", 0.);
    ("harris-michael-tagged", 0.);
    ("vbl-reclaim", 0.);
    ("sequential", 0.);
    ("coarse", 0.);
    ("vbl-bst", 0.);
    ("lockfree-bst", 0.);
    ("lazy-bst", 0.);
    ("sequential-bst", 0.);
    ("coarse-bst", 0.);
    ("lazy-reclaim", 0.);
    ("harris-michael-reclaim", 0.);
    ("vbl-postlock", 0.);
    ("vbl-versioned", 0.);
    ("lazy-skiplist", 0.);
    ("vbl-skiplist", 0.);
    ("hand-over-hand", 9.);
    ("optimistic", 19.);
    ("fomitchev-ruppert", 9.);
    ("lockfree-skiplist", 116.);
  ]

(* The names of every registered set but the sharded frontends, sorted:
   a set registered without a row would go unmeasured. *)
let unsharded_names () =
  let name (module S : Vbl_lists.Set_intf.S) = S.name in
  let sharded = List.map name Vbl_shard.Registry.all in
  List.sort compare (List.filter (fun n -> not (List.mem n sharded)) Vbl_harness.Sweep.names)

let contains_cases =
  List.map
    (fun (name, budget) ->
      let what =
        if budget = 0. then "allocates nothing" else Printf.sprintf "allocates %g words" budget
      in
      Alcotest.test_case
        (Printf.sprintf "%s: contains %s" name what)
        `Quick (contains_allocates name ~budget))
    contains_budgets
  @ [
      Alcotest.test_case "the rows name every set but the sharded ones" `Quick (fun () ->
          Alcotest.(check (list string))
            "contains rows" (unsharded_names ())
            (List.sort compare (List.map fst contains_budgets)));
    ]

(* vbl / lazy node: 5-word record (header + next/value/deleted/lock) plus
   two 2-word cells (deleted, lock) = 9 words. *)
let insert_cases =
  [
    Alcotest.test_case "vbl: insert allocates only the node" `Quick
      (insert_allocates_only_the_node "vbl" ~budget:9);
    Alcotest.test_case "lazy: insert allocates only the node" `Quick
      (insert_allocates_only_the_node "lazy" ~budget:9);
    Alcotest.test_case "vbl-reclaim: recycled insert allocates no node" `Quick
      recycled_insert_reuses_nodes;
  ]

(* Every registry set but the sharded frontends, at the words its insert
   allocates today (the rows are checked against the registries below).
   The skiplist figures are exact for the shuffled order above (tower
   heights are drawn from a per-set counter); their fraction is the mean
   tower.  A lazy-skiplist or vbl-skiplist insert is its node (record,
   two cells, lock and tower: about 19 words) plus its two search
   arrays (34 words); the retry loop is a closed recursion.  A tree
   insert allocates only what it links: a 23-word node on vbl-bst; a
   2-word leaf and a 14-word router on sequential-bst and lazy-bst; on
   lockfree-bst a 2-word leaf, a 17-word internal node (its
   record, three cells, its clean stamp and the [Internal] box), the
   6-word flag descriptor and the unflag's 4-word clean stamp.  A list
   node's successor and a node's key are fields of its record, not
   cells: a sequential node is 3 words, and the sequential walks are
   closed, so that is the whole insert.  The coarse sets add nothing to
   the sequential set they lock: coarse-bst is sequential-bst's 16, and
   coarse is sequential's 3. *)
let budgets =
  [
    ("sequential", 3.);
    ("coarse", 3.);
    ("hand-over-hand", 15.);
    ("optimistic", 25.);
    ("harris-michael", 16.);
    ("harris-michael-reclaim", 16.);
    ("harris-michael-tagged", 12.);
    ("fomitchev-ruppert", 33.);
    ("vbl-postlock", 22.);
    ("vbl-versioned", 26.);
    ("vbl", 9.);
    ("lazy", 9.);
    ("vbl-reclaim", 9.);
    ("lazy-reclaim", 9.);
    ("lazy-skiplist", 53.02);
    ("vbl-skiplist", 53.02);
    ("lockfree-skiplist", 238.04);
    ("sequential-bst", 16.);
    ("coarse-bst", 16.);
    ("lazy-bst", 16.);
    ("lockfree-bst", 29.);
    ("vbl-bst", 23.);
  ]

let budgets_name_every_unsharded_set () =
  Alcotest.(check (list string))
    "budget rows" (unsharded_names ())
    (List.sort compare (List.map fst budgets))

let budget_cases =
  List.map
    (fun (name, budget) ->
      Alcotest.test_case
        (Printf.sprintf "%s: fresh insert allocates %g words" name budget)
        `Quick (insert_allocates name ~budget))
    budgets
  @ [
      Alcotest.test_case "the rows name every set but the sharded ones" `Quick
        budgets_name_every_unsharded_set;
    ]

(* A skiplist remove of a present key, in the shuffled order.  On
   lazy-skiplist and vbl-skiplist it is the two [max_level] search arrays
   (17 words each): the search, the victim selection, the lock, the mark
   and the splice are closed helpers.  lockfree-skiplist adds a third
   search array and the closures of its [find] and [remove] loops. *)
let remove_budgets =
  [ ("lazy-skiplist", 34.); ("vbl-skiplist", 34.); ("lockfree-skiplist", 382.04) ]

let remove_budget_cases =
  List.map
    (fun (name, budget) ->
      Alcotest.test_case
        (Printf.sprintf "%s: present remove allocates %g words" name budget)
        `Quick (remove_allocates name ~budget))
    remove_budgets

let () =
  Alcotest.run "alloc"
    [
      ("contains", contains_cases);
      ("insert", insert_cases);
      ("insert-budgets", budget_cases);
      ("remove-budgets", remove_budget_cases);
      ( "failed-updates",
        [
          Alcotest.test_case "vbl: value-check early exits allocate nothing" `Quick
            (failed_updates_are_allocation_free "vbl");
          Alcotest.test_case "vbl-bst: failed updates allocate nothing" `Quick
            (failed_updates_are_allocation_free "vbl-bst");
        ] );
      ( "tower-heights",
        [
          Alcotest.test_case "Level_gen.next_level allocates nothing" `Quick
            next_level_is_allocation_free;
        ] );
    ]
