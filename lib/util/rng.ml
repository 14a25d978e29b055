module Splitmix = struct
  type t = { mutable state : int64 }

  let create seed = { state = seed }

  (* splitmix64: one 64-bit add per step, output mixed by two xor-shifts.
     Constants are from the reference implementation. *)
  let gamma = 0x9E3779B97F4A7C15L

  (* The output for an advanced state.  Inlined, so its [Int64]s stay
     unboxed in both callers. *)
  let[@inline] mix z =
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let next t =
    t.state <- Int64.add t.state gamma;
    mix t.state

  let first_int seed = Int64.to_int (mix (Int64.add (Int64.of_int seed) gamma))
end

type t = { mutable s0 : int64; mutable s1 : int64; mutable s2 : int64; mutable s3 : int64 }

let default_seed = 0x9E3779B97F4A7C15L

let of_splitmix sm =
  (* xoshiro256** must not start from the all-zero state; splitmix64 never
     yields four zero outputs in a row, so this is safe. *)
  let s0 = Splitmix.next sm in
  let s1 = Splitmix.next sm in
  let s2 = Splitmix.next sm in
  let s3 = Splitmix.next sm in
  { s0; s1; s2; s3 }

let create ?(seed = default_seed) () = of_splitmix (Splitmix.create seed)

let rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let next_int64 t =
  let result = Int64.mul (rotl (Int64.mul t.s1 5L) 7) 9L in
  let tmp = Int64.shift_left t.s1 17 in
  t.s2 <- Int64.logxor t.s2 t.s0;
  t.s3 <- Int64.logxor t.s3 t.s1;
  t.s1 <- Int64.logxor t.s1 t.s2;
  t.s0 <- Int64.logxor t.s0 t.s3;
  t.s2 <- Int64.logxor t.s2 tmp;
  t.s3 <- rotl t.s3 45;
  result

let split t = of_splitmix (Splitmix.create (next_int64 t))

(* Weyl-style stream derivation: each index perturbs the seed by a distinct
   multiple of an odd constant (from splitmix64's gamma family), so streams
   are a pure function of (seed, index) — no shared state between the
   derivations, unlike [split]. *)
let stream ~seed ~index =
  if index < 0 then invalid_arg "Rng.stream: index must be >= 0";
  of_splitmix
    (Splitmix.create
       (Int64.logxor seed (Int64.mul (Int64.of_int (index + 1)) 0xD1B54A32D192ED03L)))

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling on the top bits keeps the draw exactly uniform. *)
  let rec draw () =
    let r = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
    let v = r mod bound in
    if r - v > max_int - bound + 1 then draw () else v
  in
  draw ()

let bool t = Int64.compare (Int64.logand (next_int64 t) 1L) 0L <> 0

let float t =
  let bits = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  bits *. 0x1.0p-53

let in_range t ~lo ~hi =
  if lo >= hi then invalid_arg "Rng.in_range: need lo < hi";
  lo + int t (hi - lo)

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
