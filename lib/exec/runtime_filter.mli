(** Runtime join filters (sideways information passing).

    When a hash join finishes its build phase — or a merge join its left
    input — the set of join-key values it just saw is itself a statistic:
    a probe-side tuple whose key is absent can never contribute to the
    join's output.  The dispatcher wraps that set as a bloom filter plus
    min-max bounds and pushes it down into the probe-side scan pipeline,
    dropping non-qualifying tuples for a per-tuple cost of
    {!Mqr_storage.Sim_clock.rf_probe_tuple_ms} before they incur the
    join's hashing, sorting, spill I/O or collector work.

    Filters are one-sided: a bloom filter has false positives but no false
    negatives, min-max pruning is exact, and null probe keys never satisfy
    an equi-join — so applying a filter never changes the join's result,
    only the work done to produce it.

    The observed pass rate ({!observed_sel}) is reported back to the
    dispatcher, which compares it against the optimizer's estimate: a
    large deviation marks the remaining estimates suspect and can force a
    re-optimization of the remainder (see {!Mqr_core.Reopt_policy}). *)

open Mqr_storage

type t

(** Bitmap pages needed for a bloom filter over [keys] build values at
    10 bits each; 0 when the build side is empty. *)
val pages_for : keys:int -> int

(** [create ctx ~source ~build_col ~target_col ~est_sel ~max_pages
    ~key_idx rows] builds a filter from column [key_idx] of the build
    rows, charging {!Mqr_storage.Sim_clock.rf_build_tuple_ms} per row.
    [max_pages] caps the bloom bitmap (fewer pages = higher
    false-positive rate); [max_pages = 0] degrades to min-max bounds
    only.  [source] names the publishing join
    for display; [est_sel] is the optimizer's estimated pass fraction. *)
val create :
  Exec_ctx.t -> source:string -> build_col:string -> target_col:string ->
  est_sel:float -> max_pages:int -> key_idx:int -> Tuple.t array -> t

(** Column index of [target_col] in [schema], or [None] when the filter
    does not apply there (column absent or ambiguous). *)
val applicable : t -> Schema.t -> int option

(** Can this key value possibly join?  False for nulls, values outside the
    build side's [min, max], and bloom misses; never falsely negative. *)
val admits : t -> Value.t -> bool

(** Filter the rows on column [idx], charging
    {!Mqr_storage.Sim_clock.rf_probe_tuple_ms} per input
    row and recording the pass rate. *)
val apply : Exec_ctx.t -> t -> idx:int -> Tuple.t array -> Tuple.t array

val target_col : t -> string
val source : t -> string
val est_sel : t -> float

(** Bitmap pages actually held (0 for a min-max-only filter). *)
val pages : t -> int

val probed : t -> int
val passed : t -> int
val dropped : t -> int
val has_bloom : t -> bool

(** Observed pass fraction; the estimate when nothing was probed yet. *)
val observed_sel : t -> float
