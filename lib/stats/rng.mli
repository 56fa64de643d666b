(** Deterministic splitmix64 random-number generator.

    Every randomized component (data generation, reservoir sampling, FM
    sketches) takes an explicit [Rng.t] so runs are reproducible. *)

type t

val create : int -> t

(** Uniform in [0, bound). *)
val int : t -> int -> int

(** Uniform in [0, 1). *)
val float : t -> float

(** Independent generator seeded from this one. *)
val split : t -> t
