(** Deterministic pseudo-random number generation.

    The benchmark harness needs one independent stream per thread so that
    key choice never becomes a synchronisation point, and the whole
    reproduction must be replayable from a single seed.  We implement
    splitmix64 (used to seed streams) and xoshiro256** (the per-stream
    generator), both from Blackman & Vigna's reference designs. *)

module Splitmix : sig
  type t

  val create : int64 -> t
  (** [create seed] makes a splitmix64 generator. *)

  val next : t -> int64
  (** [next t] returns the next 64-bit value and advances [t]. *)

  val first_int : int -> int
  (** [first_int seed] is [Int64.to_int (next (create (Int64.of_int seed)))],
      computed without allocating: a stateless hash of [seed]. *)
end

type t
(** A xoshiro256** stream.  Not thread-safe; use one stream per thread. *)

val create : ?seed:int64 -> unit -> t
(** [create ?seed ()] builds a stream from [seed] (default [0x9E3779B97F4A7C15L])
    via splitmix64 state expansion. *)

val split : t -> t
(** [split t] derives an independent stream; [t] advances.  Used to hand a
    private stream to each worker thread. *)

val stream : seed:int64 -> index:int -> t
(** [stream ~seed ~index] is the [index]-th worker stream for [seed]: a
    pure function of its two arguments (unlike {!split}, which advances a
    shared parent).  Distinct indexes give distinct, independent streams;
    the benchmark runner uses [index = domain rank].  [index] must be
    non-negative. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive.
    Uses rejection sampling, so the distribution is exactly uniform. *)

val bool : t -> bool
(** Uniform coin flip. *)

val float : t -> float
(** Uniform in [\[0, 1)] with 53 bits of precision. *)

val in_range : t -> lo:int -> hi:int -> int
(** [in_range t ~lo ~hi] is uniform in [\[lo, hi)].  Requires [lo < hi]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
