(** Cross-query statistics feedback cache.

    The paper remarks (Section 2.6) that statistics collected while one
    query runs can outlive it.  This cache is that idea at workload
    scope: histograms, distinct counts and exact cardinalities observed
    by one query's collectors are published here keyed by *table* (not by
    the query's aliases), and overlaid onto the estimation environment of
    every later query that touches the same tables — so the workload's
    tail optimizes with observed rather than estimated statistics.

    Entries are tagged with the table's update counter and stats epoch at
    publish time and are dropped as soon as either moves: DML on the
    table (the observation no longer describes the data) or ANALYZE (the
    catalog caught up; the overlay is superseded). *)

type t

val create : unit -> t

(** [publish t catalog query report] stores the report's observed column
    statistics and full-scan cardinalities, resolving the query's aliases
    to table names.  Statistics for intermediate (temp) tables are
    skipped. *)
val publish :
  t -> Mqr_catalog.Catalog.t -> Mqr_sql.Query.t ->
  Mqr_core.Dispatcher.report -> unit

(** [overlay t catalog query env] installs every still-valid cached
    statistic relevant to [query]'s relations into [env] (column-stats
    overrides and believed-cardinality overrides), dropping entries whose
    table saw DML or ANALYZE since publication. *)
val overlay :
  t -> Mqr_catalog.Catalog.t -> Mqr_sql.Query.t -> Mqr_opt.Stats_env.t ->
  unit

(** Statistics published / overlaid so far. *)
val published : t -> int
val applied : t -> int
