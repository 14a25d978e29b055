(* The layered, self-checking benchmark for VBL and its structure family.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   Every workload is a closed loop: [domains] clients share one set, and
   each issues its next operation as soon as the previous one returns.
   Keys are owned: client [d] only ever touches keys [k] with
   [(k - 1) mod domains = d].  Each return value can therefore be checked
   exactly against that client's share of a presence model, while the
   clients still contend on the shared nodes and locks between
   neighbouring keys.  A range query is checked on the caller's own keys,
   which no other client can change while it runs.

   The last line of stdout is one JSON object with the keys [correct],
   [attempted], [failed] and [metrics].  With [--trace 0] the metrics are
   end to end: throughput, p50/p99 operation latency and set-up time.
   With [--trace 1] the metrics probe is installed for a shorter run of
   the same workload, followed by a single-thread ladder that times each
   layer of the operation path on its own; the metrics are per layer. *)

module Set_intf = Vbl_lists.Set_intf
module Metrics = Vbl_obs.Metrics
module Probe = Vbl_obs.Probe

let now_ns = Vbl_obs.Contention.now_ns
let domains = 2

(* ------------------------------------------------------------------ *)
(* Inputs                                                               *)
(* ------------------------------------------------------------------ *)

(* Splitmix-style generator on native ints.  [Vbl_util.Rng] keeps boxed
   int64 state, whose garbage would land in every measured operation. *)
type gen = { mutable s : int }

let gen ~seed ~stream = { s = (seed * 0x2545F4914F6CDD1D) + (stream * 0x1E3779B97F4A7C15) }

let draw g bound =
  g.s <- g.s + 0x1E3779B97F4A7C15;
  let z = g.s in
  let z = (z lxor (z lsr 30)) * 0x3F58476D1CE4E5B9 in
  let z = (z lxor (z lsr 27)) * 0x14D049BB133111EB in
  ((z lxor (z lsr 31)) land max_int) mod bound

type workload = {
  name : string;
  impl : (module Set_intf.S);
  key_range : int;  (** keys are [1..key_range], a multiple of [domains] *)
  insert_pct : int;
  remove_pct : int;
  range_pct : int;  (** the remaining operations are [contains] *)
  range_width : int;
}

let workloads =
  [
    (* The paper's Figure 1 point: a 50-key VBL list at 20% updates.
       Traversals are short, so the value-aware try-lock, its validation
       failures and the restarts they cause are a large share of each
       operation. *)
    {
      name = "list-contended";
      impl = (module Vbl_lists.Registry.Vbl);
      key_range = 50;
      insert_pct = 10;
      remove_pct = 10;
      range_pct = 0;
      range_width = 0;
    };
    (* The churn preset on the reclaiming VBL: 90% updates over 256 keys.
       Nodes cycle through retire and recycle, and every operation pays
       an epoch bracket. *)
    {
      name = "list-churn";
      impl = (module Vbl_lists.Registry.Vbl_reclaim);
      key_range = 256;
      insert_pct = 45;
      remove_pct = 45;
      range_pct = 0;
      range_width = 0;
    };
    (* The versioned-lock BST under point operations plus 5% range
       queries of 64 keys.  Range queries are derived from a whole-tree
       fold today, so they dominate the time and the tail. *)
    {
      name = "tree-range";
      impl = (module Vbl_trees.Registry.Vbl_bst_impl);
      key_range = 1024;
      insert_pct = 10;
      remove_pct = 10;
      range_pct = 5;
      range_width = 64;
    };
  ]

(* Each key present with probability 1/2, in a seeded random insertion
   order: a sorted order would build a degenerate BST. *)
let initial_keys ~key_range ~seed =
  let g = gen ~seed ~stream:domains in
  let keys = List.filter (fun _ -> draw g 2 = 1) (List.init key_range (fun i -> i + 1)) in
  let a = Array.of_list keys in
  for i = Array.length a - 1 downto 1 do
    let j = draw g (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* ------------------------------------------------------------------ *)
(* Statistics                                                           *)
(* ------------------------------------------------------------------ *)

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0. else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* A smoothed quantile of sorted integer samples: the mean of the samples
   ranked in [lo, hi) (fractions of the count).  Nanosecond latencies are
   integers, and an order statistic alone would often read the same on
   every run. *)
let band_mean sorted ~lo ~hi =
  let n = Array.length sorted in
  let i0 = int_of_float (lo *. float n) in
  let i1 = max (i0 + 1) (int_of_float (Float.ceil (hi *. float n))) in
  let i1 = min n i1 in
  if i0 >= i1 then 0.
  else begin
    let s = ref 0 in
    for i = i0 to i1 - 1 do
      s := !s + sorted.(i)
    done;
    float !s /. float (i1 - i0)
  end

(* ------------------------------------------------------------------ *)
(* The measured closed loop                                             *)
(* ------------------------------------------------------------------ *)

type kind = Insert | Remove | Contains | Range

let kind_code = function Insert -> 0 | Remove -> 1 | Contains -> 2 | Range -> 3

(* A run is [rounds] rounds, each on a freshly built set with freshly
   spawned workers, and reports medians over rounds: node placement and
   core assignment differ between rounds, and one process otherwise keeps
   whichever it drew. *)
let rounds = 24
let setup_reps = 5
let warm_ns = 100_000_000

(* Every [time_every]-th operation is timed; that timestamp also starts
   the measured window and ends the round. *)
let time_every = 16
let sample_capacity = 1 lsl 16

type worker = {
  rank : int;
  g : gen;
  mutable ops : int;
  mutable failed : int;
  mutable ops_at_start : int;  (** [-1] until the measured window opens *)
  samples : int array;  (** [latency_ns * 4 + kind code] *)
  mutable nsamples : int;
  mutable keep_shift : int;  (** keep one timed operation in [2^keep_shift] *)
  mutable timed : int;
}

let make_worker ~seed rank =
  {
    rank;
    g = gen ~seed ~stream:rank;
    ops = 0;
    failed = 0;
    ops_at_start = -1;
    samples = Array.make sample_capacity 0;
    nsamples = 0;
    keep_shift = 0;
    timed = 0;
  }

(* A full buffer keeps every other sample and halves the sampling rate, so
   the samples always cover the whole window evenly. *)
let sample w v =
  w.timed <- w.timed + 1;
  if w.timed land ((1 lsl w.keep_shift) - 1) = 0 then begin
    if w.nsamples = sample_capacity then begin
      for i = 0 to (sample_capacity / 2) - 1 do
        w.samples.(i) <- w.samples.(2 * i)
      done;
      w.nsamples <- sample_capacity / 2;
      w.keep_shift <- w.keep_shift + 1
    end;
    w.samples.(w.nsamples) <- v;
    w.nsamples <- w.nsamples + 1
  end

let owner k = (k - 1) mod domains
let present model k = Bytes.unsafe_get model k <> '\000'
let set_present model k b = Bytes.unsafe_set model k (if b then '\001' else '\000')

(* A range answer must be strictly ascending inside [lo, hi] and hold
   exactly the caller's present keys of the window. *)
let range_ok model rank lo hi res =
  let rec walk prev own = function
    | [] -> Some own
    | k :: rest ->
        if k <= prev || k > hi then None
        else if owner k <> rank then walk k own rest
        else if present model k then walk k (own + 1) rest
        else None
  in
  match walk (lo - 1) 0 res with
  | None -> false
  | Some own ->
      let first = lo + ((((rank + 1 - lo) mod domains) + domains) mod domains) in
      let expected = ref 0 in
      let k = ref first in
      while !k <= hi do
        if present model !k then incr expected;
        k := !k + domains
      done;
      own = !expected

(* Operations from the worker's stream until [t_end]; the window
   [t0, t_end) is measured, what runs before it warms up. *)
let drive (type s) (module S : Set_intf.S with type t = s) (t : s) wl model w ~t0 ~t_end =
  let own_keys = wl.key_range / domains in
  let range_cut = wl.range_pct in
  let insert_cut = range_cut + wl.insert_pct in
  let remove_cut = insert_cut + wl.remove_pct in
  let fail () = w.failed <- w.failed + 1 in
  let step () =
    let r = draw w.g 100 in
    if r < range_cut then begin
      let lo = 1 + draw w.g (wl.key_range - wl.range_width + 1) in
      let hi = lo + wl.range_width - 1 in
      if not (range_ok model w.rank lo hi (S.range_query t lo hi)) then fail ();
      Range
    end
    else begin
      let k = 1 + w.rank + (domains * draw w.g own_keys) in
      let was = present model k in
      if r < insert_cut then begin
        if S.insert t k = was then fail ();
        set_present model k true;
        Insert
      end
      else if r < remove_cut then begin
        if S.remove t k <> was then fail ();
        set_present model k false;
        Remove
      end
      else begin
        if S.contains t k <> was then fail ();
        Contains
      end
    end
  in
  let rec loop () =
    if w.ops mod time_every <> 0 then begin
      ignore (step ());
      w.ops <- w.ops + 1;
      loop ()
    end
    else begin
      let a = now_ns () in
      let kind = step () in
      let b = now_ns () in
      w.ops <- w.ops + 1;
      if w.ops_at_start < 0 && b >= t0 then w.ops_at_start <- w.ops;
      if a >= t0 then sample w (((b - a) lsl 2) lor kind_code kind);
      if b < t_end then loop ()
    end
  in
  loop ()

(* Worker 0 runs on the calling domain; the others are spawned.  All of
   them start together, warm up for [warm_ns] and are then measured for
   [window_ns]. *)
let run_workers (type s) (module S : Set_intf.S with type t = s) (t : s) wl model ~seed ~window_ns =
  let workers = Array.init domains (make_worker ~seed) in
  let start = Atomic.make 0 in
  let body w () =
    let rec wait () =
      let t0 = Atomic.get start in
      if t0 = 0 then begin
        Domain.cpu_relax ();
        wait ()
      end
      else t0
    in
    let t0 = wait () in
    drive (module S) t wl model w ~t0 ~t_end:(t0 + window_ns)
  in
  let spawned = Array.init (domains - 1) (fun i -> Domain.spawn (body workers.(i + 1))) in
  Atomic.set start (now_ns () + warm_ns);
  body workers.(0) ();
  Array.iter Domain.join spawned;
  workers

let latencies samples = Array.map (fun v -> v lsr 2) samples

(* The latency band around the median of one kind of operation. *)
let kind_median sorted kind =
  let code = kind_code kind in
  let mine = List.filter (fun v -> v land 3 = code) (Array.to_list sorted) in
  band_mean (latencies (Array.of_list mine)) ~lo:0.49 ~hi:0.51

type round = {
  setup : float array;  (** seconds per build of the initial set *)
  throughput : float;  (** ops/s over the measured window *)
  p50 : float;
  p99 : float;
  kinds : float array;  (** median ns of insert, remove, contains *)
  ops : int;
  failed : int;
  ok : bool;  (** initial and final contents and invariants checked out *)
}

(* One round: build the initial set [setup_reps] times (the last copy is
   measured), run the workers, then check the final state. *)
let round (type s) (module S : Set_intf.S with type t = s) wl ~seed ~window_ns =
  Gc.full_major ();
  let keys = initial_keys ~key_range:wl.key_range ~seed in
  let setup = Array.make setup_reps 0. in
  let t = ref (S.create ()) in
  for i = 0 to setup_reps - 1 do
    let a = now_ns () in
    let s = S.create () in
    Array.iter (fun k -> ignore (S.insert s k)) keys;
    setup.(i) <- float (now_ns () - a) *. 1e-9;
    t := s
  done;
  let t = !t in
  let model = Bytes.make (wl.key_range + 1) '\000' in
  Array.iter (fun k -> set_present model k true) keys;
  let contents () = List.filter (present model) (List.init wl.key_range (fun i -> i + 1)) in
  let built_ok = S.to_list t = contents () in
  let workers = run_workers (module S) t wl model ~seed ~window_ns in
  let ok = built_ok && S.check_invariants t = Ok () && S.to_list t = contents () in
  let measured = Array.fold_left (fun n (w : worker) -> n + w.ops - w.ops_at_start) 0 workers in
  let sorted =
    Array.concat (Array.to_list (Array.map (fun (w : worker) -> Array.sub w.samples 0 w.nsamples) workers))
  in
  Array.sort compare sorted;
  let lat = latencies sorted in
  {
    setup;
    throughput = float measured /. (float window_ns *. 1e-9);
    p50 = band_mean lat ~lo:0.49 ~hi:0.51;
    p99 = band_mean lat ~lo:0.985 ~hi:0.995;
    kinds = Array.map (kind_median sorted) [| Insert; Remove; Contains |];
    ops = Array.fold_left (fun n (w : worker) -> n + w.ops) 0 workers;
    failed = Array.fold_left (fun n (w : worker) -> n + w.failed) 0 workers;
    ok;
  }

(* ------------------------------------------------------------------ *)
(* The layer ladder (--trace 1)                                         *)
(* ------------------------------------------------------------------ *)

(* Runs [call] (which performs [per_call] operations) until [budget_ns]
   has passed; the median ns per operation over calls.  Words per
   operation come from one extra call on its own, so the timing loop's
   bookkeeping is not counted. *)
let rung ~budget_ns ~per_call call =
  call ();
  let w0 = Gc.minor_words () in
  call ();
  let words = (Gc.minor_words () -. w0) /. float per_call in
  let times = ref [] in
  let stop = now_ns () + budget_ns in
  let rec go () =
    let a = now_ns () in
    call ();
    let b = now_ns () in
    times := (float (b - a) /. float per_call) :: !times;
    if b < stop then go ()
  in
  go ();
  (median (Array.of_list !times), words)

let ladder_keys ~seed ~key_range =
  let g = gen ~seed ~stream:(domains + 1) in
  Array.init 1024 (fun _ -> 1 + draw g key_range)

let populated (type s) (module S : Set_intf.S with type t = s) ~seed ~key_range =
  let t = S.create () in
  Array.iter (fun k -> ignore (S.insert t k)) (initial_keys ~key_range ~seed);
  t

(* One call: an insert, a contains and a remove per key, so the set keeps
   its size. *)
let triples (type s) (module S : Set_intf.S with type t = s) (t : s) keys () =
  let n = Array.length keys in
  for i = 0 to n - 1 do
    let v = keys.(i) in
    ignore (S.insert t v);
    ignore (S.contains t keys.(n - 1 - i));
    ignore (S.remove t v)
  done

let set_rung ~budget_ns ~seed ~key_range (module S : Set_intf.S) =
  let keys = ladder_keys ~seed ~key_range in
  let t = populated (module S) ~seed ~key_range in
  rung ~budget_ns ~per_call:(3 * Array.length keys) (triples (module S) t keys)

module Vbl_sharded_1 =
  Vbl_shard.Sharded_set.Make
    (struct
      let shard_bits = 0
    end)
    (Vbl_lists.Vbl_list.Make)
    (Vbl_memops.Real_mem)

(* The recorder is fed by the caller around each operation, as the
   harness runner does. *)
module Recorded (S : Set_intf.S) = struct
  include S

  module R = Vbl_obs.Recorder

  let recorded kind f t v =
    let t0 = now_ns () in
    let ok = f t v in
    R.record ~thread:0 ~kind ~key:v ~shard:(-1) ~ok ~restarts:0 ~t0_ns:t0 ~t1_ns:(now_ns ());
    ok

  let insert = recorded R.Insert S.insert
  let remove = recorded R.Remove S.remove
  let contains = recorded R.Contains S.contains
end

let primitive ~budget_ns f =
  let n = 10_000 in
  fst (rung ~budget_ns ~per_call:n (fun () -> f n))

let ladder ~budget_ns ~seed =
  let list_rung name impl =
    let ns, words = set_rung ~budget_ns ~seed ~key_range:200 impl in
    [ (name ^ "_ns", ns, "ns"); (name ^ "_words", words, "words/op") ]
  in
  let vbl = (module Vbl_lists.Registry.Vbl : Set_intf.S) in
  let l1 = list_rung "l1_vbl_direct" (module Vbl_direct) in
  let l2 = list_rung "l2_vbl_functor" vbl in
  Metrics.reset ();
  Probe.install (Probe.metrics ());
  let l3 = list_rung "l3_probes" vbl in
  Probe.uninstall ();
  let l4 = list_rung "l4_reclaim" (module Vbl_lists.Registry.Vbl_reclaim) in
  let l5 = list_rung "l5_sharded1" (module Vbl_sharded_1) in
  Vbl_obs.Recorder.reset ();
  Vbl_obs.Recorder.set_enabled true;
  let l6 = list_rung "l6_recorder" (module Recorded (Vbl_lists.Registry.Vbl)) in
  Vbl_obs.Recorder.set_enabled false;
  Vbl_obs.Recorder.reset ();
  let module R = Vbl_memops.Real_mem in
  let cell = R.make ~line:0 0 in
  let mem_get =
    primitive ~budget_ns (fun n ->
        let s = ref 0 in
        for _ = 1 to n do
          s := !s + R.get cell
        done;
        ignore (Sys.opaque_identity !s))
  in
  let mem_cas =
    primitive ~budget_ns (fun n ->
        for _ = 1 to n do
          let v = R.get cell in
          ignore (R.cas cell v (v + 1))
        done)
  in
  let tl = Vbl_sync.Try_lock.create () in
  let trylock =
    primitive ~budget_ns (fun n ->
        for _ = 1 to n do
          ignore (Vbl_sync.Try_lock.try_lock tl);
          Vbl_sync.Try_lock.unlock tl
        done)
  in
  let vl = Vbl_sync.Value_lock.create () in
  let valid () = R.get cell >= 0 in
  let value_lock =
    primitive ~budget_ns (fun n ->
        for _ = 1 to n do
          if Vbl_sync.Value_lock.lock_when vl ~validate:valid then Vbl_sync.Value_lock.unlock vl
        done)
  in
  let epoch =
    primitive ~budget_ns (fun n ->
        for _ = 1 to n do
          ignore (Vbl_reclaim.Epoch.enter ());
          Vbl_reclaim.Epoch.leave ()
        done)
  in
  (* Cost per traversal hop: contains-only on a 2048-key list, divided by
     the hops the probes count for the same keys. *)
  let hop_ns =
    let module S = Vbl_lists.Registry.Vbl in
    let keys = ladder_keys ~seed ~key_range:2048 in
    let t = populated (module S) ~seed ~key_range:2048 in
    let call () = Array.iter (fun k -> ignore (S.contains t k)) keys in
    let ns, _ = rung ~budget_ns ~per_call:(Array.length keys) call in
    Metrics.reset ();
    Probe.install (Probe.metrics ());
    call ();
    Probe.uninstall ();
    let hops = Metrics.get (Metrics.snapshot ()) Metrics.Traversal_steps in
    ns /. (float hops /. float (Array.length keys))
  in
  let bst = (module Vbl_trees.Registry.Vbl_bst_impl : Set_intf.S) in
  let bst_point, _ = set_rung ~budget_ns ~seed ~key_range:4096 bst in
  let bst_range =
    let module S = Vbl_trees.Registry.Vbl_bst_impl in
    let t = populated (module S) ~seed ~key_range:4096 in
    let los = Array.sub (ladder_keys ~seed ~key_range:(4096 - 63)) 0 32 in
    fst
      (rung ~budget_ns ~per_call:(Array.length los) (fun () ->
           Array.iter (fun lo -> ignore (S.range_query t lo (lo + 63))) los))
  in
  l1 @ l2 @ l3 @ l4 @ l5 @ l6
  @ [
      ("mem_get_ns", mem_get, "ns");
      ("mem_cas_ns", mem_cas, "ns");
      ("trylock_ns", trylock, "ns");
      ("value_lock_ns", value_lock, "ns");
      ("epoch_bracket_ns", epoch, "ns");
      ("hop_ns", hop_ns, "ns");
      ("bst_point_ns", bst_point, "ns");
      ("bst_range64_ns", bst_range, "ns");
    ]

(* ------------------------------------------------------------------ *)
(* A run                                                                *)
(* ------------------------------------------------------------------ *)

type result = { correct : bool; attempted : int; failed : int; metrics : (string * float * string) list }

let run wl ~seed ~seconds ~trace =
  let module S = (val wl.impl) in
  (* A traced run gives 6/10 of its time to the workload and the rest to
     the ladder. *)
  let measured_ns = seconds * 1_000_000_000 * (if trace then 6 else 10) / 10 in
  let window_ns = measured_ns / rounds in
  let gc0 = Gc.quick_stat () in
  if trace then begin
    Metrics.reset ();
    Probe.install (Probe.metrics ())
  end;
  let rs = Array.init rounds (fun r -> round (module S) wl ~seed:((seed * rounds) + r) ~window_ns) in
  if trace then Probe.uninstall ();
  let gc1 = Gc.quick_stat () in
  let across f = median (Array.map f rs) in
  let attempted = Array.fold_left (fun n (r : round) -> n + r.ops) 0 rs in
  let failed = Array.fold_left (fun n (r : round) -> n + r.failed) 0 rs in
  let correct = failed = 0 && Array.for_all (fun r -> r.ok) rs in
  let metrics =
    if not trace then
      [
        ("throughput", across (fun r -> r.throughput), "ops/s");
        ("p50_ns", across (fun r -> r.p50), "ns");
        ("p99_ns", across (fun r -> r.p99), "ns");
        ("setup_s", median (Array.concat (Array.to_list (Array.map (fun r -> r.setup) rs))), "s");
      ]
    else begin
      let snap = Metrics.snapshot () in
      let ops = float attempted in
      let per_op c = float (Metrics.get snap c) /. ops in
      let per_kop c = 1000. *. per_op c in
      [
        ("traced_throughput", across (fun r -> r.throughput), "ops/s");
        ("insert_ns", across (fun r -> r.kinds.(kind_code Insert)), "ns");
        ("remove_ns", across (fun r -> r.kinds.(kind_code Remove)), "ns");
        ("contains_ns", across (fun r -> r.kinds.(kind_code Contains)), "ns");
        ("hops_per_op", per_op Metrics.Traversal_steps, "hops/op");
        ("lock_acquisitions_per_op", per_op Metrics.Lock_acquisitions, "count/op");
        ("restarts_per_kop", per_kop Metrics.Restarts, "count/kop");
        ("lock_next_at_failures_per_kop", per_kop Metrics.Lock_next_at_failures, "count/kop");
        ( "lock_next_at_value_failures_per_kop",
          per_kop Metrics.Lock_next_at_value_failures,
          "count/kop" );
        ("lock_contended_per_kop", per_kop Metrics.Lock_contended, "count/kop");
        ("reclaim_retired_per_kop", per_kop Metrics.Reclaim_retired, "count/kop");
        ("reclaim_recycled_per_kop", per_kop Metrics.Reclaim_recycled, "count/kop");
        ("epoch_advances_per_kop", per_kop Metrics.Reclaim_epoch_advances, "count/kop");
        ("minor_words_per_op", (gc1.minor_words -. gc0.minor_words) /. ops, "words/op");
        ( "minor_gcs_per_mop",
          1e6 *. float (gc1.minor_collections - gc0.minor_collections) /. ops,
          "count/Mop" );
      ]
      (* The ladder has fourteen rungs. *)
      @ ladder ~budget_ns:(seconds * 1_000_000_000 * 4 / 10 / 14) ~seed
    end
  in
  { correct; attempted; failed; metrics }

(* ------------------------------------------------------------------ *)
(* Command line                                                         *)
(* ------------------------------------------------------------------ *)

let json_of r =
  let metric (name, v, unit) =
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed
    (String.concat ", " (List.map metric r.metrics))

let usage () =
  Printf.eprintf "usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1\n  workloads: %s\n"
    (String.concat ", " (List.map (fun w -> w.name) workloads));
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((k, v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int_arg k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let wl =
    match List.find_opt (fun w -> w.name = get "--workload") workloads with
    | Some w -> w
    | None -> usage ()
  in
  let seed = int_arg "--seed" in
  let seconds = int_arg "--seconds" in
  let trace = match get "--trace" with "0" -> false | "1" -> true | _ -> usage () in
  if seconds < 1 || seconds > 120 then usage ();
  print_endline (json_of (run wl ~seed ~seconds ~trace))
