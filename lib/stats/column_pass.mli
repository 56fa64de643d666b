(** One read of each value of a column feeds every statistic kept on it.

    [add] offers a value to the running min/max, then to the pass's
    distinct counter, if it has one; a null is only counted.
    min/max equal a [Value.min_value] / [Value.max_value] fold — the
    first value of an extreme wins ties — but two values of the same
    constructor are compared directly (Int and Date as ints, Float by
    [Float.compare], String by [String.compare]); other pairs go through
    [Value.compare].  Offering a non-null value with the constructor and
    bits of one offered before changes nothing, so a caller may offer
    each such value once; each null must be offered for {!nulls} to
    count it.

    A column held as unboxed [Int] payloads is fed through
    {!add_payload} instead: min/max are kept as ints, the distinct
    counter gets the payload's [Value.hash] through
    {!Distinct.add_hash}, and only {!range} builds boxes.  The
    statistics are those [add] of each payload's box would give. *)

type t

val create : ?distinct:Distinct.t -> unit -> t

val add : t -> Mqr_storage.Value.t -> unit

(** [add_payload t x] is [add t (Int x)], without the box.  A pass fed
    this way takes every value through it: it is never offered a
    non-null value by [add]. *)
val add_payload : t -> int -> unit

(** The nulls offered so far. *)
val nulls : t -> int

(** (min, max) of the values added; [None] when all were null.  After
    {!add_payload}, two fresh boxes. *)
val range : t -> (Mqr_storage.Value.t * Mqr_storage.Value.t) option
