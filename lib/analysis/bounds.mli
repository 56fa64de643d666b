(** Cardinality-bound abstract interpretation over annotated plans.

    Propagates *provable* row-count and page intervals [[lo, hi]] bottom-up
    over a {!Mqr_opt.Plan.t}, anchored on ground truth the engine can
    actually prove rather than on the catalog's believed cardinalities:

    - scans start from the heap file's true tuple count; histogram buckets,
      min/max windows and string dictionaries give hard bounds for
      range/equality predicates (inclusion-exclusion combines conjuncts);
    - proven-unique columns ([distinct = rows] under fresh statistics — the
      per-column [is_key] flag alone is {e not} trusted, composite keys set
      it on non-unique columns) and per-bucket frequency caps bound join
      fan-out and group counts; a unique {e dense} integer key column whose
      probe side provably stays inside its [min, max] window makes a
      foreign-key join exact (every probe row matches exactly one build
      row);
    - everything else is capped by the cross product.

    Widening is explicit: any stale, dropped or update-invalidated
    statistic widens the affected interval up to [[0, n]] (or [[0, +inf)]
    past a join), and tables for which bucket/distinct counts are not
    trustworthy — temp tables whose statistics were inherited from a
    sample-based collector — keep only their min/max window reasoning.
    Plans carrying runtime-filter annotations have the lower bound of every
    prunable leaf widened to 0, since filters may remove rows before they
    are counted.

    Soundness contract: for every node, the number of rows the executor
    actually produces for that node lies within the node's interval.  The
    sanitizer enforces this at run time (BND-OBSERVED). *)

type interval = { lo : float; hi : float }

val pp_interval : Format.formatter -> interval -> unit

(** Membership with a half-row tolerance for float rounding. *)
val contains : interval -> float -> bool

(** Does the column name resolve in the schema?  An ambiguous name counts
    as resolving. *)
val resolves : Mqr_storage.Schema.t -> string -> bool

(** Analysis environment: ground truth per table, read from the catalog.
    A base table's bucket/distinct counts describe its contents exactly
    while its statistics are fresh.  A temp table's
    ({!Mqr_catalog.Catalog.table}[.temp]) may have been inherited from a
    reservoir-sample collector: its min/max windows stay usable (observed
    exactly over every row) but its counts do not. *)
type env

val env : Mqr_catalog.Catalog.t -> env

(** Result of one analysis run, keyed by plan-node id. *)
type t

val analyze : env -> Mqr_opt.Plan.t -> t

(** Provable row-count interval of a node ([None] for unknown ids). *)
val rows : t -> int -> interval option

(** Provable size in pages of a node's output (derived from the row
    interval and the annotated average tuple width). *)
val pages : t -> int -> interval option

(** Interval on the plan's total cost at the {!Mqr_storage.Sim_clock}
    rates: each node is priced by the optimizer's own
    {!Mqr_opt.Cost_model} function for its shape, called once per end.
    The lower end passes the low ends of the node's row and page
    intervals, an ample grant and no runtime filter, then splits evenly
    [max_dop] ways; it drops the runtime-filter
    overhead on purpose, because adaptive retirement can cut a probe
    short.  The upper end passes the high ends, a one-page grant
    (worst-case spilling) and every runtime filter, plus parallel
    startup/exchange slack when [max_dop > 1].  The two ends bracket the
    node's price at any quantities inside the intervals because every
    price is monotone in rows and pages and antitone in the grant; the
    lower end does not yet bound what the executor charges, since it
    prices every page read as a buffer-pool miss.  Read
    by the bound-checked re-optimization mode (switch only when the
    candidate's upper end beats the current plan's lower end) and by
    progress's ETA. *)
val cost_interval : env -> ?max_dop:int -> Mqr_opt.Plan.t -> interval

(** Provably-dominated access-path choice: [Some message] when a serial
    sequential scan is provably beaten by an available index path (its
    worst-case cost is below the sequential scan's exact cost), or when
    an index scan's provable minimum number of matches makes it cost more
    than scanning the table outright.  Both sides are the
    {!Mqr_opt.Cost_model} scan prices, filter CPU included. *)
val dominated_scan : env -> Mqr_opt.Plan.t -> string option
