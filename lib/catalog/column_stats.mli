(** Per-column catalog statistics.

    Statistics can be degraded for the experiments (histogram dropped,
    marked stale, cardinalities falsified) — these are the error sources
    the paper's footnote 2 lists.  String columns carry a dictionary that
    maps each string to an ordinal in sort order, so histograms over the
    ordinal domain support both equality and range estimation. *)

open Mqr_storage

type t = {
  min_v : Value.t option;
  max_v : Value.t option;
  distinct : float option;
  histogram : Mqr_stats.Histogram.t option;
  stale : bool;  (** significant update activity since the stats were built *)
  dict : (string * float) list option;  (** string -> ordinal, sorted *)
  is_key : bool;  (** values are unique (declared key) *)
}

val empty : t

(** [analyze ?kind ?buckets ?is_key values] computes full statistics from a
    column's values (nulls skipped).  Strings are dictionary-encoded.
    [kind] defaults to [Maxdiff], [buckets] to 32. *)
val analyze :
  ?kind:Mqr_stats.Histogram.kind -> ?buckets:int -> ?is_key:bool ->
  Value.t list -> t

(** [of_values ?kind ?buckets ?is_key non_null] is [analyze] of the
    values of [non_null], in order; it holds no [Null]. *)
val of_values :
  ?kind:Mqr_stats.Histogram.kind -> ?buckets:int -> ?is_key:bool ->
  Value.t array -> t

(** [of_counts ?kind ?buckets ?is_key boxes counts] is [analyze] of a
    column holding [counts.(i) > 0] copies of each non-null [boxes.(i)],
    where no two boxes have the same constructor and bits and the values
    first meet [boxes.(i)] before [boxes.(i + 1)], wherever the other
    copies lie.  It touches each box once, not each copy.  [None] when
    the copies' places could change the result: two boxes map to
    histogram values that [Float.compare] equates but whose bits differ
    (NaN payloads, [-0.0] and [0.0]), and which of them the histogram
    keeps depends on the order of the copies; [analyze] must then see
    them all. *)
val of_counts :
  ?kind:Mqr_stats.Histogram.kind -> ?buckets:int -> ?is_key:bool ->
  Value.t array -> int array -> t option

(** [encode values] maps non-null values onto the histogram domain, in
    order: strings become their ordinal among the distinct strings present
    in sort order, the dictionary returned with them ([None] when no
    string occurs). *)
val encode : Value.t array -> float array * (string * float) list option

(** Map a typed value onto the histogram domain ([None] for nulls and for
    strings missing from the dictionary). *)
val to_domain : t -> Value.t -> float option

(** Degradations. *)
val drop_histogram : t -> t
val mark_stale : t -> t
