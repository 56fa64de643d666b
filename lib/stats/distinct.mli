(** Distinct-value estimation for streams.

    Two estimators, as cited by the paper: the probabilistic counting
    sketch of Flajolet–Martin [6] (PCSA with stochastic averaging) for
    unbounded streams, and an exact counter (the paper's "bitmap
    approach", here an open-addressing set of 63-bit value hashes) that is
    cheap when the number of distinct values is small — the statistics
    collector uses the exact counter up to a budget and falls back to the
    sketch beyond it. *)

(** Adaptive counter: exact until [exact_limit] distinct values, sketch
    afterwards. *)
type t

val create : ?exact_limit:int -> unit -> t
val add : t -> Mqr_storage.Value.t -> unit

(** [add_hash t h] is [add t v] for a [v] whose [Mqr_storage.Value.hash]
    is [h]: a counter sees a value only through that hash, so a caller
    holding an unboxed [Int] payload feeds
    [Mqr_storage.Value.hash_payload] of it, builds no box, and counts as
    the box would. *)
val add_hash : t -> int -> unit
val estimate : t -> float

(** Whether the estimate is still exact. *)
val is_exact : t -> bool
