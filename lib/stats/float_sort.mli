(** Sorting float keys that carry an int payload.

    [sort ~descending keys payload] is stdlib [Array.sort]'s ternary
    heapsort made monomorphic: it sorts [keys] by [Float.compare]
    (reversed when [descending]) and moves [payload.(i)] along with
    [keys.(i)].  It makes the same comparisons in the same order as
    [Array.sort] on the pairs with a comparator that reads only the keys,
    so it yields the same permutation — ties, NaN and [-0.0]/[0.0]
    included — without boxing a float per comparison.
    @raise Invalid_argument when the arrays differ in length. *)
val sort : descending:bool -> float array -> int array -> unit

(** [ascending keys] sorts [keys] ascending by [Float.compare], leaving
    exactly the array [sort ~descending:false keys payload] leaves.  A
    sample with no NaN and no [-0.0] has only one correct ascending order,
    which a quicksort finds; any other sample goes through [sort]. *)
val ascending : float array -> unit
