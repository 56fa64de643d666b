(** Generalized Zipfian distribution (Zipf [27], as used by the paper's
    skew experiments via the Wisconsin technical report [18]).

    Rank [i] of [n] has probability proportional to [1 / i^z]; [z = 0] is
    uniform, larger [z] is more skewed.  The paper uses [z = 0.3] and
    [z = 0.6]. *)

type t

val create : n:int -> z:float -> t

(** Probability of rank [i] (1-based). *)
val prob : t -> int -> float

(** [sample_index t rng] is [sample t rng - 1], for 0-based tables. *)
val sample_index : t -> Rng.t -> int
