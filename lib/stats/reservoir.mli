(** Vitter's reservoir sampling (Algorithm R).

    The statistics-collector operator feeds every tuple of an intermediate
    result through a reservoir; when the stream ends, the reservoir is a
    uniform sample from which a histogram is built — exactly the technique
    the paper takes from Vitter [24] / Poosala-Ioannidis [19]. *)

type 'a t

val create : ?rng:Rng.t -> capacity:int -> unit -> 'a t

val add : 'a t -> 'a -> unit

(** Number of elements offered so far (not the sample size). *)
val seen : 'a t -> int

(** Current sample, in insertion-replacement order. *)
val sample : 'a t -> 'a array
