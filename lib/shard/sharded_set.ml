(** Hash-sharded set frontend.

    The paper's VBL list is concurrency-optimal {e within one list}
    (§3-4), but a single chain of nodes is still one traversal path and
    one contention domain.  The standard scale-out move — the one
    synchrobench-style evaluations use to separate contention cost from
    traversal cost — is to hash-partition the key space across [2^bits]
    independent instances and route every operation to its shard.

    Design points:

    - {b routing} is a splitmix64 finalizer over the key, reduced to the
      shard index by masking.  The finalizer runs on native ints (63-bit
      truncated constants), so the route computation is straight integer
      arithmetic: no [Int64] boxing, nothing allocated — the
      [contains]-only fast path is [[@hot]] and lint-clean under L1-L4;
    - {b striped sizes}: each shard owns a cache-line-padded counter cell
      ({!Vbl_memops.Mem_intf.S.make_padded}) bumped by a CAS loop on every
      successful update, so [size] is O(shards) instead of O(n) and two
      domains updating different shards never false-share a counter line;
    - {b batching}: {!S.apply_batch} stably groups an operation array by
      shard (a counting sort over the shard index — two O(n) integer
      passes) and drains each shard's group in one pass, so consecutive
      operations revisit a traversal path that is already cache-hot;
    - the frontend is itself a functor over the memory backend [M], so a
      sharded set runs on real atomics or under the instrumented
      schedule machinery exactly like the underlying algorithm does.

    Linearizability is inherited: keys are partitioned, every operation
    on a key touches exactly one shard, and each shard is a linearizable
    set, so the composition is a linearizable set (the shard's
    linearization point serves for the whole structure). *)

module Probe = Vbl_obs.Probe
module C = Vbl_obs.Metrics
module Prof = Vbl_obs.Contention

type op = Insert of int | Remove of int | Contains of int

module type CONFIG = sig
  val shard_bits : int
  (** log2 of the shard count; the functor rejects values outside
      [\[0, 16\]]. *)
end

module type S = sig
  include Vbl_lists.Set_intf.S

  val shard_count : int

  val shard_of : int -> int
  (** The shard index an operation on this key routes to. *)

  val apply_batch : t -> op array -> bool array
  (** Apply a batch, grouped by shard, one shard at a time.  Results line
      up with the input positions.  Operations on the same key keep their
      array order; operations on different keys in different shards are
      applied shard-by-shard, which is indistinguishable from some
      sequential order because shards are disjoint.  Quiescent batches
      (no concurrent callers mutating the same keys) therefore see the
      same results as applying the array left to right. *)

  val shard_sizes : t -> int array
  (** Per-shard striped-counter readings, index = shard.  Quiescent use:
      counters are bumped after the shard operation commits, so a
      concurrent reading may transiently miss an update. *)
end

module Make (C_ : CONFIG) (B : Vbl_lists.Set_intf.MAKER) (M : Vbl_memops.Mem_intf.S) :
  S = struct
  module Backend = B (M)

  let () =
    if C_.shard_bits < 0 || C_.shard_bits > 16 then
      invalid_arg "Sharded_set.Make: shard_bits must be in [0, 16]"

  let shard_count = 1 lsl C_.shard_bits
  let mask = shard_count - 1
  let name = Backend.name ^ "-sharded-" ^ string_of_int shard_count

  (* splitmix64's finalizer on the native int (the two multiplicative
     constants lose their top bit to the 63-bit representation, which
     perturbs the avalanche but keeps it far better than enough for a
     16-way split).  Literals above [max_int] do not parse, so the
     constants are assembled with [lsl]/[lor]; everything here is
     unboxed integer arithmetic. *)
  let[@hot] mix v =
    let v = v lxor (v lsr 30) in
    let v = v * ((0xBF58476D lsl 32) lor 0x1CE4E5B9) in
    let v = v lxor (v lsr 27) in
    let v = v * ((0x94D049BB lsl 32) lor 0x133111EB) in
    v lxor (v lsr 31)

  let[@hot] shard_of v = mix v land mask

  type t = { shards : Backend.t array; sizes : int M.cell array }

  let create () =
    let shards = Array.init shard_count (fun _ -> Backend.create ()) in
    let sizes =
      Array.init shard_count (fun s ->
          let name = if M.named then Vbl_lists.Naming.size_stripe s else "" in
          M.make_padded ~name ~line:(M.fresh_line ()) 0)
    in
    { shards; sizes }

  (* Striped-counter bump: CAS loop through the backend-abstract cell, so
     it is correct under real domains and schedulable under the
     instrumented backend. *)
  let rec bump cell d =
    let old = M.get cell in
    if not (M.cas cell old (old + d)) then bump cell d

  (* Profiled stripe bump: the CAS loop's total latency is the stripe's
     contention signal (retries inflate it), attributed to the
     [Shard_stripe] site. *)
  let bump_profiled cell d =
    let t0 = Prof.now_ns () in
    bump cell d;
    Prof.record_wait Prof.Shard_stripe (Prof.now_ns () - t0)

  let insert t v =
    let s = shard_of v in
    if !Prof.profiling then Prof.shard_op s;
    let ok = Backend.insert (Array.unsafe_get t.shards s) v in
    if ok then
      if !Prof.profiling then bump_profiled (Array.unsafe_get t.sizes s) 1
      else bump (Array.unsafe_get t.sizes s) 1;
    ok

  let remove t v =
    let s = shard_of v in
    if !Prof.profiling then Prof.shard_op s;
    let ok = Backend.remove (Array.unsafe_get t.shards s) v in
    if ok then
      if !Prof.profiling then bump_profiled (Array.unsafe_get t.sizes s) (-1)
      else bump (Array.unsafe_get t.sizes s) (-1);
    ok

  (* The membership fast path: route and delegate, nothing allocated on
     top of the backend's own wait-free traversal; the profiler hook is
     one load-and-branch when disabled. *)
  let[@hot] contains t v =
    let s = shard_of v in
    if !Prof.profiling then Prof.shard_op s;
    Backend.contains (Array.unsafe_get t.shards s) v

  let size t =
    let total = ref 0 in
    for s = 0 to shard_count - 1 do
      total := !total + M.get t.sizes.(s)
    done;
    !total

  let shard_sizes t = Array.init shard_count (fun s -> M.get t.sizes.(s))

  (* Shards partition by hash, not by range, so the per-shard sorted
     lists must be re-sorted after concatenation. *)
  let to_list t =
    List.sort compare
      (List.concat_map Backend.to_list (Array.to_list t.shards))

  (* Ordered traversal = gather-and-sort: shards partition by hash, so no
     single shard walk yields ascending order. *)
  let fold f init t = List.fold_left f init (to_list t)
  let iter f t = List.iter f (to_list t)

  (* Per-shard windows are each snapshot/best-effort per the backend's
     contract; the composition is only per-shard atomic (two shards are
     collected at different moments), which is the documented best-effort
     semantics of the sharded frontend. *)
  let range_query t lo hi =
    if lo > hi then []
    else
      List.sort compare
        (List.concat_map
           (fun sh -> Backend.range_query sh lo hi)
           (Array.to_list t.shards))

  (* O(shards): the striped counters already are an approximate size. *)
  let approx_size = size

  let key_of = function Insert v | Remove v | Contains v -> v

  let apply_batch t (ops : op array) : bool array =
    let n = Array.length ops in
    let results = Array.make n false in
    if n > 0 then begin
      Probe.count C.Shard_batches;
      if !Probe.enabled then Probe.add C.Shard_batch_ops n;
      (* Stable counting sort of the operation indices by shard. *)
      let counts = Array.make shard_count 0 in
      for i = 0 to n - 1 do
        let s = shard_of (key_of ops.(i)) in
        counts.(s) <- counts.(s) + 1
      done;
      let cursor = Array.make shard_count 0 in
      let acc = ref 0 in
      for s = 0 to shard_count - 1 do
        cursor.(s) <- !acc;
        acc := !acc + counts.(s)
      done;
      let order = Array.make n 0 in
      for i = 0 to n - 1 do
        let s = shard_of (key_of ops.(i)) in
        order.(cursor.(s)) <- i;
        cursor.(s) <- cursor.(s) + 1
      done;
      (* Drain shard by shard: consecutive operations revisit the same
         (cache-hot) chain. *)
      for k = 0 to n - 1 do
        let i = order.(k) in
        results.(i) <-
          (match ops.(i) with
          | Insert v -> insert t v
          | Remove v -> remove t v
          | Contains v -> contains t v)
      done
    end;
    results

  let check_invariants t =
    let rec shards_ok s =
      if s = shard_count then Ok ()
      else
        match Backend.check_invariants t.shards.(s) with
        | Error e -> Error (Printf.sprintf "shard %d: %s" s e)
        | Ok () ->
            (* Partition: every key a shard holds must route to it. *)
            let stray =
              List.find_opt (fun v -> shard_of v <> s) (Backend.to_list t.shards.(s))
            in
            (match stray with
            | Some v -> Error (Printf.sprintf "shard %d holds stray key %d (routes to %d)" s v (shard_of v))
            | None ->
                let actual = Backend.size t.shards.(s) in
                let counted = M.get t.sizes.(s) in
                if actual <> counted then
                  Error
                    (Printf.sprintf "shard %d striped count %d <> actual size %d" s
                       counted actual)
                else shards_ok (s + 1))
    in
    shards_ok 0
end
