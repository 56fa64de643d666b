(** Vitter's reservoir sampling (Algorithm R).

    The statistics-collector operator keeps a uniform sample of each
    histogram column of an intermediate result, from which a histogram is
    built — exactly the technique the paper takes from Vitter [24] /
    Poosala-Ioannidis [19].  It does not feed a reservoir value by value:
    a default-seeded reservoir's replacement draws do not depend on the
    values, so {!positions} says which ordinals it would hold, and the
    collector reads those. *)

type 'a t

(** [rng] defaults to a fresh generator of one fixed seed, the same for
    every reservoir. *)
val create : ?rng:Rng.t -> capacity:int -> unit -> 'a t

val add : 'a t -> 'a -> unit

(** Number of elements offered so far (not the sample size). *)
val seen : 'a t -> int

(** Current sample, in insertion-replacement order. *)
val sample : 'a t -> 'a array

(** [positions ~capacity n] is, slot by slot, the 0-based ordinals of
    the elements that a reservoir made by [create ~capacity ()] (default
    generator) holds after [n] adds: [sample r] is
    [Array.map (Array.get xs) (positions ~capacity n)] when [r] was fed
    [xs] in order, whatever [xs] holds.

    The draws come from a process-wide schedule per capacity that only
    grows, under a lock: the first call for [n] past the largest [n]
    asked so far draws once for each add in between, every call then
    replays the draws that landed in a slot, about
    [capacity * ln (n / capacity)] of them, each kept as two ints.
    Raises [Invalid_argument] when [capacity < 1]. *)
val positions : capacity:int -> int -> int array
