(** System catalog: named tables, their storage, indexes and statistics.

    The catalog's *believed* cardinality of a table is kept separately from
    the heap file's true size so experiments can make the optimizer work
    from stale numbers, as real catalogs do. *)

open Mqr_storage

(** A secondary B+-tree index on one column of a table.  An index is
    built or stale.  A DELETE that removes rows ({!delete_rows}) makes
    every index of its table stale: it drops its tree, since a DELETE
    reassigns rids, and is rebuilt only when a reader asks for it through
    {!index_tree}, the one way to read a tree.  INSERT and COPY append
    through {!insert_row}, which extends only built trees. *)
type index

(** One column's statistics over every row of a table's heap, in rid
    order, as a statistics collector computes them
    ({!Mqr_exec.Collector.collect_table}): the (min, max) of its non-null
    values, its null count and, once a collector asked for them, its
    distinct estimate and its histogram (scaled to the non-null count)
    with the sample's string dictionary.  It holds no row. *)
type scan_summary = {
  range : (Value.t * Value.t) option;
  nulls : int;
  distinct : float option;
  histogram : (Mqr_stats.Histogram.t * (string * float) list option) option;
}

(** The summaries of a table's columns, for one generation of its heap. *)
type summaries

type table = {
  name : string;
  heap : Heap_file.t;
  mutable believed_rows : int;
  mutable believed_pages : int;
  mutable stats : Column_stats.t array;  (** per column position *)
  mutable indexes : index list;
  mutable updates_since_analyze : int;
      (** rows inserted/deleted since statistics were last collected; the
          inaccuracy rules treat heavily-updated tables' statistics as
          stale (paper Section 2.5) *)
  mutable stats_epoch : int;
      (** bumped every time ANALYZE refreshes the table's statistics;
          consumers holding results derived from the old statistics
          (cached plans, workload-level observed-statistics overlays)
          compare epochs to detect that the ground shifted under them *)
  temp : bool;
      (** an executed unit's result, registered by {!add_temp} for the
          rest of its query; its statistics are the free ones of an
          intermediate result (exact cardinality, min/max) or inherited
          from a sample-based collector, so their bucket and distinct
          counts are not exact *)
  mutable summaries : summaries;  (** see {!scan_summary} *)
}

type t

val create : unit -> t

(** [add_table t name heap] registers a table with empty statistics;
    believed cardinality starts at the true size. *)
val add_table : t -> string -> Heap_file.t -> table

(** [add_temp t name heap] is [add_table] for an executed unit's result:
    the table's [temp] flag is set.  The run that registered it drops it
    with {!drop_table} when it ends, however it ends. *)
val add_temp : t -> string -> Heap_file.t -> table

val find : t -> string -> table option
val find_exn : t -> string -> table
val drop_table : t -> string -> unit
val tables : t -> table list

(** [version tbl] is [(updates_since_analyze, stats_epoch)]: the pair a
    consumer of results derived from the table (a cached plan, an observed
    statistic) records, and compares later to see whether the table's
    contents or statistics moved since. *)
val version : table -> int * int

(** [scan_summary table i] is heap column [i]'s summary, when one was
    kept at the heap's current {!Heap_file.generation}. *)
val scan_summary : table -> int -> scan_summary option

(** [keep_scan_summary table i s] keeps [s] as heap column [i]'s summary
    at the heap's current generation, dropping first every summary kept
    at an earlier one. *)
val keep_scan_summary : table -> int -> scan_summary -> unit

(** Recompute every column's statistics (and believed sizes) from the heap.
    [kind] picks the histogram kind stored for all columns (default
    MaxDiff, as in Paradise).  Each column gets exactly
    {!Column_stats.analyze} of its values listed from the last rid down.
    A column with codes ({!Heap_file.codes}) is read through them: one
    pass counts the rows of each live code, and the statistics are built
    from one box per code ({!Column_stats.of_counts}); other columns are
    read from the rows. *)
val analyze_table :
  ?kind:Mqr_stats.Histogram.kind -> ?buckets:int -> ?keys:string list ->
  t -> string -> unit

(** Build a secondary B+-tree index on a column; returns it. *)
val create_index : t -> table:string -> column:string -> index

(** [index_tree table ix] is the tree of [ix], an index of [table].  A
    stale index is rebuilt first, from [table]'s heap as it is now, with
    the calls {!create_index} makes: one [Btree.insert] per non-null cell
    in rid order.  Every built tree was made by that sequence of calls
    over its heap (an INSERT appends the next rid), so the tree returned
    is the one an index created on the table now would hold: the same
    nodes, node ids, rid lists and probe charges. *)
val index_tree : table -> index -> Btree.t

(** [insert_row table tuple] appends [tuple] to the table's heap and
    inserts its non-null key into every built index; a stale index skips
    it, and its rebuild reads it from the heap. *)
val insert_row : table -> Tuple.t -> unit

(** [delete_rows table keep] keeps exactly the rows satisfying [keep]
    ({!Heap_file.retain}) and returns how many it deleted.  When it
    deleted any, the rids moved, and every index of the table becomes
    stale; otherwise the heap and its indexes are left as they were. *)
val delete_rows : table -> (Tuple.t -> bool) -> int

(** Record update activity (insertions/deletions) on a table. *)
val note_updates : t -> table:string -> int -> unit

(** Fraction of the table updated since last ANALYZE. *)
val update_ratio : table -> float

(** The table's index on [column], if it has one.  It reads no tree: an
    existence check that leaves a stale index stale. *)
val find_index : table -> column:string -> index option

(** Column statistics by (table, bare column name). *)
val column_stats : table -> string -> Column_stats.t option

(** Degradations for experiments. *)
val degrade_drop_histogram : t -> table:string -> column:string -> unit

(** Remove every statistic for a column (as if it was never analyzed);
    the optimizer falls back to its default guesses. *)
val degrade_drop_column_stats : t -> table:string -> column:string -> unit
val degrade_mark_stale : t -> table:string -> column:string -> unit
val degrade_scale_cardinality : t -> table:string -> float -> unit
val degrade_set_histogram_kind :
  t -> table:string -> kind:Mqr_stats.Histogram.kind -> unit
