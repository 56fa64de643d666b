(** System-R-style dynamic-programming query optimizer.

    Enumerates join orders (bushy, with an ordered build/probe choice per
    split), access paths (sequential vs B+-tree range scan) and join
    algorithms (hash join, indexed nested loops, block nested loops as a
    cross-product fallback), costing each candidate with {!Cost_model}
    under the current {!Stats_env}.  The winning plan is returned fully
    annotated — every node carries the estimates the run-time compares
    observations against.

    Join enumeration is cost-first: a candidate whose children's totals
    already lose to the Pareto set it would enter is skipped unpriced (a
    merge join also when its merge pass alone loses), one whose priced
    total loses is skipped unbuilt, and a candidate that enters the set
    becomes a plan node only when a plan containing it is asked for.
    Pricing a candidate allocates nothing: it reads quantities each set
    entry computed once.  Whether a total loses is read off the set's
    cost floors (its least total overall and per interesting order).  The floors also skip candidates wholesale: an
    outer entry whose total plus the inner side's floor loses gives up
    every pair it would join, and a split whose two sides' floors lose
    together (with each outer entry's indexed nested-loops bound) gives
    up all its candidates before its predicates and selectivities are
    prepared.  On Q8, 92% of the 49151 candidates never enter a set, and
    63% are counted without being looked at.  The winning plan, its ids
    and its estimates are those of building every candidate.

    The number of candidates the DP considers is reported (and charged to
    the simulated clock when one is supplied): it is the basis of the
    paper's [T_opt,estimated] calibration. *)

open Mqr_storage

type options = {
  enable_index_join : bool;
  enable_merge_join : bool;
  enable_bushy : bool;   (** false restricts the right side to singletons *)
  enable_runtime_filters : bool;
  (** annotate hash/merge joins with candidate runtime-filter sites
      ({!Plan.rf}) and credit the filtered probe cardinality in their
      cost; the dispatcher then builds and pushes the filters down. *)
  planning_mem_pages : int;
  (** memory a consumer is assumed to receive when costing candidate plans
      (before the Memory Manager has run).  Finite, so that build-side
      choice and spill risk influence plan selection, as in System R.
      Granted memory (set on plan nodes) always takes precedence. *)
  max_dop : int;
  (** maximum degree of parallelism per operator.  Candidate degrees are
      powers of two up to this cap; each operator gets the degree its
      {!Cost_model} price makes cheapest (exchange + startup vs divided
      work).  1 (the default) disables parallel planning entirely: plans,
      costs and traces are byte-identical to a serial build. *)
}

val default_options : options

type result = {
  plan : Plan.t;
  plans_enumerated : int;
  (** every candidate the optimizer considered: access paths plus each
      join candidate of the DP, whether it was built, only priced, or
      skipped by its children's lower bound.  The count, and so the
      simulated optimizer charge, does not depend on how many were
      skipped. *)
}

exception Planning_error of string

(** [optimize ?options ?clock ~env query] plans the bound query.
    When [clock] is given, optimizer time ([plans * opt_per_plan_ms]) is
    charged to it.  [model] is ignored: it is kept only because the frozen
    benchmark harness (bench/perf) still passes it (see
    {!Mqr_storage.Sim_clock}'s kept names). *)
val optimize :
  ?options:options -> ?clock:Sim_clock.t -> ?model:Sim_clock.model ->
  env:Stats_env.t -> Mqr_sql.Query.t -> result

(** Equi-join selectivities by ordered column pair, kept across
    {!recost} calls.  An entry is served only while both columns'
    statistics are physically the records it was estimated from, so a
    statistics override (which installs a new record) is never served a
    stale estimate.  Without one, each call estimates afresh. *)
type memo

val memo : unit -> memo

(** Recompute every annotation of an existing plan bottom-up under
    (possibly improved) statistics, *keeping the structure and the memory
    grants*: the result's [total_ms] is the paper's [T_cur-plan,improved]
    when [env] carries observed overrides.  Memory demands are refreshed
    from the new size estimates; granted memory is re-used where positive,
    otherwise the maximum demand is assumed.  [max_dop] lets the re-cost
    re-choose each operator's degree of parallelism from the improved
    statistics — the mechanism by which a decision point repairs a skewed
    partitioning.  A [Materialized] leaf costs nothing and is kept as
    built.  [memo] carries equi-join selectivities from earlier calls. *)
val recost :
  ?planning_mem:int -> ?max_dop:int -> ?memo:memo -> env:Stats_env.t ->
  Plan.t -> Plan.t

(** Calibrated worst-case (star join) optimization time for a query with
    [relations] relations — the paper's [T_opt,estimated]. *)
val estimated_opt_ms : relations:int -> float
