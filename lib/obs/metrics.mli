(** Engine-wide metrics registry: counters, gauges, and log-scale
    histograms.

    Everything is in-memory and zero-I/O: recording a sample never touches
    the simulated clock or the filesystem, so metrics can stay enabled in
    production paths without perturbing a query's measured cost.  Export
    views ({!counters}, {!gauges}, {!histograms}) return
    deterministically-sorted association lists so reports and golden files
    are byte-stable.

    Memory is bounded: each histogram series keeps a fixed-capacity
    reservoir (Vitter's Algorithm R over a name-seeded deterministic rng)
    plus exact streaming n/min/max/sum, so a long-lived service can
    observe forever without growing.  Quantiles ({!summary.p50} ...) are
    nearest-rank over the reservoir sample: exact while the series is
    short, a uniform-sample estimate once it saturates.

    Histograms are log-scale: samples are binned over [log2 v] using the
    {!Mqr_stats.Histogram} machinery (an equi-width histogram over the log
    domain is exactly a log-scale histogram over the raw domain), which
    suits the engine's heavy-tailed series — elapsed milliseconds, queue
    waits, filter selectivities. *)

type t

val create : unit -> t

(** Add [by] (default 1) to a named counter, creating it at 0. *)
val incr : t -> ?by:int -> string -> unit

(** Current value of a counter (0 when never incremented). *)
val counter : t -> string -> int

(** Set a named gauge to its latest value. *)
val set_gauge : t -> string -> float -> unit

(** Record one sample into a named log-scale histogram series.  O(1) and
    O(capacity) memory: the sample lands in the series reservoir (or
    replaces a slot once the reservoir is full) and updates the exact
    running n/min/max/sum. *)
val observe : t -> string -> float -> unit

(** [quantile sorted q] is the nearest-rank [q]-quantile of an ascending
    array, 0 when it is empty: the convention of every percentile the
    engine reports. *)
val quantile : float array -> float -> float

(** Summary of one histogram series.  [n]/[min]/[max]/[sum] are exact over
    the whole stream; [p50]/[p95]/[p99] are nearest-rank quantiles of the
    reservoir sample; [buckets] are [(lo, hi, count)] in the raw domain
    with power-of-two boundaries over the reservoir sample; samples
    [<= 0] are clamped to the smallest positive bucket. *)
type summary = {
  n : int;
  min : float;
  max : float;
  sum : float;
  p50 : float;
  p95 : float;
  p99 : float;
  buckets : (float * float * int) list;
}

(** Sorted by name, for deterministic reports. *)
val counters : t -> (string * int) list

val gauges : t -> (string * float) list
val histograms : t -> (string * summary) list

val pp : Format.formatter -> t -> unit

(** Prometheus text exposition of the whole registry: families sorted by
    mangled name ([mqr_] prefix, non-alphanumerics folded to [_]), one
    [# TYPE] line per family, histogram buckets cumulative and closed by
    [+Inf] = exact stream count.  Deterministic: same registry state,
    same bytes. *)
val to_prometheus : t -> string
