(** The join DP's Pareto sets, one bucket per subset of relations, kept
    in place.

    A bucket keeps the cheapest entry overall and the cheapest provider of
    each interesting order (System R's interesting orders).  Offering an
    entry runs one retention pass over the entrant followed by the
    bucket's entries in list order: the cheapest overall and the cheapest
    provider of each order win, a tie or a NaN total going to the earlier
    entry.  The pass lists the provider of the highest order first, each
    entry once, and the cheapest overall last.

    Each bucket also carries cost floors: its least total overall and per
    order, NaN totals skipped.  A candidate of total [ms] delivering some
    orders loses exactly when every one of those floors is below [ms]
    (not {!admits}); the DP does not offer it, so a rejection leaves the
    bucket as it was.  Without a NaN total an entrant only lowers floors,
    so entering costs one pass over at most [n_orders + 1] entries. *)

type 'a t

(** [create ~buckets ~n_orders ~dummy]: [buckets] empty buckets over
    orders [0 .. n_orders - 1]; [dummy] fills unused slots. *)
val create : buckets:int -> n_orders:int -> dummy:'a -> 'a t

(** Offer an entry of total [total] delivering [orders]. *)
val enter : 'a t -> int -> 'a -> total:float -> orders:int list -> unit

(** [admits t m ms orders]: would bucket [m] keep a candidate of total
    [ms] delivering [orders]?  Reads the floors only.  If not, it keeps no
    candidate of a larger total delivering some of [orders] or none. *)
val admits : 'a t -> int -> float -> int list -> bool

val length : 'a t -> int -> int
val is_empty : 'a t -> int -> bool

(** The [i]th entry of bucket [m] in list order, its total and its
    orders. *)
val item : 'a t -> int -> int -> 'a
val total : 'a t -> int -> int -> float
val orders : 'a t -> int -> int -> int list

(** The least total of bucket [m] as a bound below every entry: NaN when
    some total is NaN, infinity when the bucket is empty. *)
val lower : 'a t -> int -> float

val to_list : 'a t -> int -> 'a list
