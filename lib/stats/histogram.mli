(** Histograms over a numeric domain.

    The four kinds the paper's rules distinguish:
    - [Serial] (end-biased): exact frequencies for the most frequent values
      plus one bucket for the remainder — the "low inaccuracy" class;
    - [Maxdiff] (Poosala et al. [19]) — what Paradise stores in its
      catalogs;
    - [Equi_width] and [Equi_depth] — the "medium inaccuracy" class.

    Histograms are built over floats; the catalog layer maps typed column
    values (dates, dictionary-encoded strings) onto this domain.  All
    estimators return *fractions of rows* in [0, 1]. *)

type kind = Equi_width | Equi_depth | Maxdiff | Serial

val kind_to_string : kind -> string

type bucket = {
  lo : float;
  hi : float;        (** inclusive; [lo = hi] for singleton buckets *)
  rows : float;
  distinct : float;
}

type t

val kind : t -> kind
val buckets : t -> bucket list
val total_rows : t -> float
val distinct : t -> float

(** [build kind ~buckets data] constructs a histogram with at most
    [buckets] buckets over [data].  An empty [data] yields an empty
    histogram whose estimators return 0. *)
val build : kind -> buckets:int -> float array -> t

(** [of_counts kind ~buckets values counts] is the histogram [build]
    makes of a sample holding [counts.(i) > 0] copies of [values.(i)],
    given [values] ascending and distinct under [Float.compare] (all
    NaNs one value, [-0.0] and [0.0] one value): [build] sorts its
    sample into that table, keeping the first of each group's bit
    patterns in sorted order, then calls it.
    @raise Invalid_argument when the arrays differ in length. *)
val of_counts : kind -> buckets:int -> float array -> int array -> t

(** [scale t rows] linearly rescales row counts so [total_rows] becomes
    [rows] — used to extrapolate a reservoir-sample histogram to the full
    stream the sample came from. *)
val scale : t -> float -> t

(** Fraction of rows equal to [v]. *)
val est_eq : t -> float -> float

(** Fraction of rows in the interval; bounds are [(value, inclusive?)];
    [None] means unbounded. *)
val est_range : t -> lo:(float * bool) option -> hi:(float * bool) option -> float

(** Join selectivity between two attribute distributions: estimated
    fraction of the cross product satisfying equality, via bucket-overlap
    alignment with per-bucket containment. *)
val est_join_selectivity : t -> t -> float
