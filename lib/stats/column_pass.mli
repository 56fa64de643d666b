(** One read of each value of a column feeds every statistic kept on it.

    [add] offers a value to the running min/max, then to every distinct
    counter of the pass, in the order given; a null is only counted.
    min/max equal a [Value.min_value] / [Value.max_value] fold — the
    first value of an extreme wins ties — but two values of the same
    constructor are compared directly (Int and Date as ints, Float by
    [Float.compare], String by [String.compare]); other pairs go through
    [Value.compare].  Offering a non-null value with the constructor and
    bits of one offered before changes nothing, so a caller may offer
    each such value once; each null must be offered for {!nulls} to
    count it. *)

type t

val create : ?distincts:Distinct.t list -> unit -> t

val add : t -> Mqr_storage.Value.t -> unit

(** The nulls offered so far. *)
val nulls : t -> int

(** (min, max) of the values added; [None] when all were null. *)
val range : t -> (Mqr_storage.Value.t * Mqr_storage.Value.t) option
