(** The statistics-collector operator (paper Section 2.2 / 3.1).

    A streamed operator that examines the tuples of an intermediate result
    without modifying, copying or spilling them, and reports what the
    re-optimizer consumes: catalog statistics, one
    {!Mqr_catalog.Column_stats.t} per spec column, built by one rule
    (see {!collect}).  Min/max are running values; requested
    histograms are built from a one-page reservoir sample (Vitter [24],
    applied as in Poosala–Ioannidis [19]); requested distinct counts use
    probabilistic counting (Flajolet–Martin [6]) with an exact fast path.
    The statistics are computed one tracked column at a time: one read
    of the column's cells (its codes or payloads where the scan leaf has
    them) feeds its {!Mqr_stats.Column_pass}, which offers each value to
    the column's min/max and distinct counter, and counts its nulls.  A
    histogram column's sample is then read from the rows at the ordinals
    {!Mqr_stats.Reservoir.positions} schedules for its non-null count:
    the sample a reservoir fed those values in order would hold.  Only
    what a reader consumes is computed: columns outside the spec and
    the average tuple size are not.

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

(** Run the collector over a drained intermediate result, charging its CPU
    cost to the clock: one {!Mqr_catalog.Column_stats.t} per
    [spec_columns spec] entry, in that order, duplicates kept, each name
    resolved by {!Schema.index_of} and each column summarized once.  The
    record holds min/max over the non-null values; the histogram (scaled
    to the stream) and its dictionary only if the name is in [hist_cols];
    the distinct estimate if it is in [distinct_cols], else the
    histogram's.  A column coded in the leaf feeds its counters once per
    code, with the code's box from the dictionary, and one with payloads
    once per run of equal payloads, as ints
    ({!Mqr_stats.Column_pass.add_payload}): the pass over either reads
    no row.  A coded column that held no null when the leaf was built
    ({!Heap_file.null_seen}) stops at the first row by which every code
    has been seen.  The result is that of [Leaf.of_rows (Leaf.rows
    leaf)]. *)
val collect :
  Exec_ctx.t -> Schema.t -> spec -> Leaf.t ->
  (string * Mqr_catalog.Column_stats.t) list

(** [collect_table ctx schema spec table] is [collect ctx schema spec
    (Leaf.of_heap table.heap)] over a base table's full scan ([schema] is
    the scan's), bit for bit, charge included.  Each column's summary
    (range, null count, distinct estimate, histogram with dictionary) is
    reused from the table's {!Mqr_catalog.Catalog.scan_summary}, keyed by
    heap position, so aliases share it; a missing piece, or every piece
    once the heap's {!Heap_file.generation} moved, is computed now and
    kept.  A kept piece the spec does not ask for is masked.  Only wall
    time differs. *)
val collect_table :
  Exec_ctx.t -> Schema.t -> spec -> Mqr_catalog.Catalog.table ->
  (string * Mqr_catalog.Column_stats.t) list

(** [ranges schema ~columns rows]: for each named column (qualified, the
    first of that name), in order, statistics holding only the (min, max)
    of its non-null values by [Value.min_value] / [Value.max_value] (ties
    keep the earlier row); a column not in [schema] or all null is absent.
    Charges nothing. *)
val ranges :
  Schema.t -> columns:string list -> Tuple.t array ->
  (string * Mqr_catalog.Column_stats.t) list

(** Estimated collection cost in milliseconds for [rows] tuples under
    [spec] — used by the insertion algorithm's budget. *)
val estimated_cost_ms : spec -> rows:float -> float
