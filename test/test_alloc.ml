(* Allocation tests for the real-backend hot paths.

   The zero-overhead claim of the real engine is concrete: with
   [Real_mem.named = false] and the closed top-level traversal loops, a
   [contains] allocates nothing on the minor heap, and an [insert]
   allocates exactly the node it links (its record plus the per-cell
   [Atomic.t]s; a list node's successor link and a node's key are fields
   of the record, not cells).  These tests pin that down with [Gc.minor_words], so a
   future refactor that reintroduces a per-operation closure, tuple or
   name string fails loudly rather than just benching slower.  Every
   registry set's operations are pinned at the words they allocate: the
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

(* [op contains insert remove] over keys 1..128 cycled, on a set holding
   the odd ones. *)
let on_odd_keys name op =
  let range = 128 in
  let module S = (val find_impl name : Vbl_lists.Set_intf.S) in
  let t = S.create () in
  populate (module S) t range;
  minor_words_per_op ~range (op (S.contains t) (S.insert t) (S.remove t))

(* A hit or a miss; an insert of an odd (present) key; a remove of an
   even (absent) one. *)
let contains_words name = on_odd_keys name (fun contains _ _ v -> contains v)
let failed_insert_words name = on_odd_keys name (fun _ insert _ v -> insert ((v - 1) lor 1))

let absent_remove_words name =
  on_odd_keys name (fun _ _ remove v -> remove ((v + 1) land lnot 1))

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

(* Descending inserts, each right behind the head: the walk is one hop,
   so the words per insert are the node and nothing a longer walk could
   hide behind the shuffled measure's averaging. *)
let insert_allocates_only_the_node name ~budget () =
  let module S = (val find_impl name : Vbl_lists.Set_intf.S) in
  let t = S.create () in
  let n = 20_000 in
  for v = n + 100 downto n + 1 do
    ignore (S.insert t v : bool)
  done;
  let before = Gc.minor_words () in
  for v = n downto 1 do
    ignore (S.insert t v : bool)
  done;
  let after = Gc.minor_words () in
  let per_op = (after -. before) /. float_of_int n in
  if per_op > float_of_int budget +. 0.1 then
    Alcotest.failf "%s insert allocates %.2f minor words/op (node budget %d)" name per_op
      budget

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

(* Every registry set but the sharded frontends, at the minor words per
   operation of its [contains], fresh insert, failed insert (of a present
   key), present remove and absent remove.  The rows are checked against
   the registries below.

   The walks of vbl, lazy, vbl-postlock, vbl-versioned, the sequential
   and coarse sets and the BSTs but lockfree-bst are closed recursions,
   so every operation of theirs allocates nothing but the node an insert
   links and, on a reclaiming set, the Pool's two cons cells (6 words)
   per node a remove retires.  The other sets still build a traversal's
   state: a closure, a tuple of the window, search arrays (the
   lock-based skip lists' two [max_level] arrays are 17 words each) or a
   deletion descriptor.

   A fresh insert is the node plus whatever its insert path builds
   around it.  A list node's successor and a node's key are fields of
   its record, not cells: a sequential node is 3 words, a vbl, lazy or
   vbl-postlock node 9 (a 5-word record and two 2-word cells, deleted
   and lock), and a vbl-versioned node 12 (a third cell, its version, in
   a 6-word record).  The coarse sets add nothing to the sequential set
   they lock.  The skiplist figures are exact for the shuffled order
   above (tower heights are drawn from a per-set counter); their
   fraction is the mean tower.  A lazy-skiplist or vbl-skiplist insert is its node (record,
   two cells, lock and tower: about 19 words) plus its two search
   arrays.  A tree insert allocates only what it links: a 23-word node
   on vbl-bst; a 2-word leaf and a 14-word router on sequential-bst and
   lazy-bst; on lockfree-bst a 2-word leaf, a 17-word internal node (its
   record, three cells, its clean stamp and the [Internal] box), the
   6-word flag descriptor and the unflag's 4-word clean stamp. *)
let table =
  [
    ("sequential", 0., 3., 0., 0., 0.);
    ("coarse", 0., 3., 0., 0., 0.);
    ("hand-over-hand", 9., 15., 9., 9., 9.);
    ("optimistic", 19., 25., 19., 19., 19.);
    ("harris-michael", 0., 16., 5., 13., 5.);
    ("harris-michael-reclaim", 0., 16., 5., 19., 5.);
    ("harris-michael-tagged", 0., 12., 5., 9., 5.);
    ("fomitchev-ruppert", 9., 33., 23., 20., 9.);
    ("vbl-postlock", 0., 9., 0., 0., 0.);
    ("vbl-versioned", 0., 12., 0., 0., 0.);
    ("vbl", 0., 9., 0., 0., 0.);
    ("lazy", 0., 9., 0., 0., 0.);
    ("vbl-reclaim", 0., 9., 0., 6., 0.);
    ("lazy-reclaim", 0., 9., 0., 6., 0.);
    ("lazy-skiplist", 0., 53.02, 34., 34., 34.);
    ("vbl-skiplist", 0., 53.02, 34., 34., 34.);
    ("lockfree-skiplist", 116., 238.04, 220., 382.04, 207.);
    ("sequential-bst", 0., 16., 0., 0., 0.);
    ("coarse-bst", 0., 16., 0., 0., 0.);
    ("lazy-bst", 0., 16., 0., 0., 0.);
    ("lockfree-bst", 0., 29., 0., 14., 0.);
    ("vbl-bst", 0., 23., 0., 0., 0.);
  ]

(* The names of every registered set but the sharded frontends, sorted:
   a set registered without a row would go unmeasured. *)
let unsharded_names () =
  let name (module S : Vbl_lists.Set_intf.S) = S.name in
  let sharded = List.map name Vbl_shard.Registry.all in
  List.sort compare (List.filter (fun n -> not (List.mem n sharded)) Vbl_harness.Sweep.names)

let rows_name_every_set =
  Alcotest.test_case "the rows name every set but the sharded ones" `Quick (fun () ->
      Alcotest.(check (list string))
        "table rows" (unsharded_names ())
        (List.sort compare (List.map (fun (name, _, _, _, _, _) -> name) table)))

(* One group per column of [table]: [what] names the operation,
   [measure] gives its words per call on a set, and [pick] the row's
   budget.  The cycled measures average 20 000 calls and are held to
   0.01 words, the shuffled ones 4 000 calls and 0.1 words. *)
let column what measure ~tolerance pick =
  List.map
    (fun ((name, _, _, _, _, _) as row) ->
      let budget = pick row in
      let allocates =
        if budget = 0. then "allocates nothing" else Printf.sprintf "allocates %g words" budget
      in
      Alcotest.test_case (Printf.sprintf "%s: %s %s" name what allocates) `Quick (fun () ->
          let per_op = measure name in
          if Float.abs (per_op -. budget) > tolerance then
            Alcotest.failf "%s %s allocates %.3f minor words/op (budget %g)" name what per_op
              budget))
    table

let () =
  Alcotest.run "alloc"
    [
      ( "contains",
        column "contains" contains_words ~tolerance:0.01 (fun (_, w, _, _, _, _) -> w)
        @ [ rows_name_every_set ] );
      ( "insert",
        [
          Alcotest.test_case "vbl: insert allocates only the node" `Quick
            (insert_allocates_only_the_node "vbl" ~budget:9);
          Alcotest.test_case "lazy: insert allocates only the node" `Quick
            (insert_allocates_only_the_node "lazy" ~budget:9);
          Alcotest.test_case "vbl-reclaim: recycled insert allocates no node" `Quick
            recycled_insert_reuses_nodes;
        ] );
      ( "insert-budgets",
        column "fresh insert" fresh_insert_words ~tolerance:0.1 (fun (_, _, w, _, _, _) -> w)
        @ [ rows_name_every_set ] );
      ( "failed-insert",
        column "failed insert" failed_insert_words ~tolerance:0.01 (fun (_, _, _, w, _, _) -> w)
      );
      ( "remove-budgets",
        column "present remove" present_remove_words ~tolerance:0.1 (fun (_, _, _, _, w, _) -> w)
      );
      ( "absent-remove",
        column "absent remove" absent_remove_words ~tolerance:0.01 (fun (_, _, _, _, _, w) -> w)
      );
      ( "tower-heights",
        [
          Alcotest.test_case "Level_gen.next_level allocates nothing" `Quick
            next_level_is_allocation_free;
        ] );
    ]
