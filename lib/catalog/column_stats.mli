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
