(** One read of each value of a column feeds every statistic kept on it.

    [add] offers a value to the running min/max, then to every reservoir
    and every distinct counter of the pass, in the order given; nulls are
    skipped.  min/max equal a [Value.min_value] / [Value.max_value] fold
    — the first value of an extreme wins ties — but two values of the same
    constructor are compared directly (Int and Date as ints, Float by
    [Float.compare], String by [String.compare]); other pairs go through
    [Value.compare]. *)

type t

val create :
  ?reservoirs:Mqr_storage.Value.t Reservoir.t list ->
  ?distincts:Distinct.t list -> unit -> t

val add : t -> Mqr_storage.Value.t -> unit

(** [add_repeat t v] is [add t v] for a [v] with the constructor and bits
    of a value added before: min/max and the distinct counters already
    hold it, so only the reservoirs draw. *)
val add_repeat : t -> Mqr_storage.Value.t -> unit

(** (min, max) of the values added; [None] when all were null. *)
val range : t -> (Mqr_storage.Value.t * Mqr_storage.Value.t) option
