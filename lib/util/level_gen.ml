(** Geometric tower-height generation for skip lists.

    Heights follow the classic p = 1/2 geometric distribution, capped at
    {!max_level}.  Randomness comes from splitmix64 applied to a private
    monotonic counter, which keeps runs deterministic under the
    instrumented backend (heights depend only on the order in which
    inserts draw them) and contention-cheap under the real one (a single
    fetch-and-add, no shared RNG state beyond it). *)

let max_level = 16

type t = { counter : int Atomic.t }

let create () = { counter = Atomic.make 1 }

(* Count trailing ones of the mixed word: P(level > k) = 2^-k. *)
let rec trailing_ones k z =
  if k + 1 >= max_level then k
  else if z land 1 = 1 then trailing_ones (k + 1) (z lsr 1)
  else k

(* The first output of a splitmix64 generator seeded with the counter,
   drawn without a generator record or a boxed [Int64]. *)
let next_level t =
  1 + trailing_ones 0 (Rng.Splitmix.first_int (Atomic.fetch_and_add t.counter 1))
