(** The statistics-collector operator (paper Section 2.2 / 3.1).

    A streamed operator that examines the tuples of an intermediate result
    without modifying, copying or spilling them: cardinality, and min/max
    over the spec's columns, are maintained as running values; requested
    histograms are built from a one-page reservoir sample (Vitter [24],
    applied as in Poosala–Ioannidis [19]); requested distinct counts use
    probabilistic counting (Flajolet–Martin [6]) with an exact fast path.
    The statistics are computed one tracked column at a time: one read
    of the column's cells feeds its {!Mqr_stats.Column_pass}, which
    offers each value to the column's min/max and distinct counter, and
    counts its nulls.  A
    histogram column's sample is then read from the rows at the ordinals
    {!Mqr_stats.Reservoir.positions} schedules for its non-null count:
    the sample a reservoir fed those values in order would hold.  Only
    what a reader consumes is computed: ranges of columns outside the
    spec and the average tuple size are not.

    A collector charges {!Mqr_storage.Sim_clock.collect_base_tuple_ms} per
    tuple whatever the spec, plus
    {!Mqr_storage.Sim_clock.collect_stat_tuple_ms} per tuple per tracked
    statistic; {!estimated_cost_ms} prices the same, so the
    statistics-collectors insertion algorithm can budget collectors against
    the [mu] overhead bound. *)

open Mqr_storage

(** Histograms are MaxDiff with 32 buckets, built from a reservoir
    sample of [Heap_file.page_size_bytes / 8] values. *)
type spec = {
  hist_cols : string list;      (** qualified columns needing histograms *)
  distinct_cols : string list;  (** columns needing distinct counts *)
}

val spec : ?hist_cols:string list -> ?distinct_cols:string list -> unit -> spec

(** Every column the spec tracks (histograms then distincts). *)
val spec_columns : spec -> string list

type observed = {
  rows : int;
  col_ranges : (string * (Value.t * Value.t)) list;
      (** per spec column: observed (min, max) over non-null values *)
  histograms : (string * Mqr_stats.Histogram.t) list;
      (** per requested column, scaled to the full stream *)
  distincts : (string * float) list;
  dicts : (string * (string * float) list) list;
      (** string-valued histogram columns: dictionary from the sample *)
}

(** Run the collector over a drained intermediate result, charging its CPU
    cost to the clock.  A column coded in the leaf feeds its min/max and
    distinct counters once per code, at the code's first row, and reads
    only its codes on later rows; the observation is that of
    [Leaf.of_rows (Leaf.rows leaf)]. *)
val collect : Exec_ctx.t -> Schema.t -> spec -> Leaf.t -> observed

(** [collect_table ctx schema spec table] is [collect ctx schema spec
    (Leaf.of_heap table.heap)], the collector over a full scan of a base
    table ([schema] is the scan's), computed once per version of the
    table's rows.  What the observation says of a column depends only on
    the heap's rows, so each column's pieces (range and null count,
    distinct estimate, histogram with its dictionary) are reused from
    the table's {!Mqr_catalog.Catalog.scan_summary}, keyed by the
    column's position in the heap, so two aliases of one table share
    them; a piece missing from it, or the whole summary when the heap's
    {!Heap_file.generation} moved, is computed now, by [collect]'s own
    per-column code, and kept.  The charge is [collect]'s, made whether
    or not a piece was reused: the simulated clock, the observation and
    everything derived from it are those of [collect]; only wall time
    differs. *)
val collect_table :
  Exec_ctx.t -> Schema.t -> spec -> Mqr_catalog.Catalog.table -> observed

(** [ranges schema ~columns rows]: (min, max) over the non-null values of
    each named column (qualified, as in a spec), in [Value.min_value] /
    [Value.max_value] order — ties keep the earlier row.  Columns not in
    [schema], or with only nulls, are absent.  Charges nothing. *)
val ranges :
  Schema.t -> columns:string list -> Tuple.t array ->
  (string * (Value.t * Value.t)) list

(** Estimated collection cost in milliseconds for [rows] tuples under
    [spec] — used by the insertion algorithm's budget. *)
val estimated_cost_ms : spec -> rows:float -> float

(** Turn an observation into catalog statistics for one column (used when
    a re-optimized remainder sees the materialized intermediate as a base
    table). *)
val column_stats_of_observed :
  observed -> column:string -> Mqr_catalog.Column_stats.t
