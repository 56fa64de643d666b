(** Public facade: a database engine with Dynamic Re-Optimization.

    Typical use:
    {[
      let catalog = Mqr_catalog.Catalog.create () in
      (* ... load tables, analyze, create indexes ... *)
      let engine = Engine.create catalog in
      let report = Engine.run_sql engine "select ... from ... where ..." in
      Engine.print_summary report
    ]} *)

open Mqr_storage

type t

(** [create catalog] builds an engine that prices work at the
    {!Mqr_storage.Sim_clock} rate card, with re-optimization parameters
    ({!Reopt_policy.default_params}; see {!with_params}).  [pool_pages] is
    the buffer-pool capacity (default 2048), [budget_pages] the
    memory-manager budget (default 512).  [runtime_filters] turns on bloom/min-max runtime join
    filters (sideways information passing, see
    {!Mqr_exec.Runtime_filter}); it overrides the flag inside
    [opt_options] when both are given.  [plan_cache] enables the
    static-plan store of the paper's Section 2.6: repeated queries skip
    optimization and collector insertion until their tables drift (see
    {!Plan_cache}).  [verify_plans] enables the static plan verifier
    (see {!Mqr_analysis.Verifier}): [Pre] analyses every instrumented
    plan before execution and refuses to run one with error-severity
    findings; [Sanitize] additionally re-verifies the remainder plan at
    every decision point and after every mid-query plan switch.  [trace]
    attaches an observability collector (see {!Mqr_obs.Trace}): every
    query run through the engine opens a scope in it (labelled with its
    truncated SQL) and stamps operator spans, decision-point ledger
    entries and metrics — pure observation that never charges the
    simulated clock.  [parallel] (default 1) enables intra-query
    parallelism: the optimizer may assign operators a degree of
    parallelism up to [parallel], which the simulated clock charges as a
    partitioned parallel machine (see {!Mqr_exec.Parallel}; the workers
    themselves run inline).  When [opt_options] is given, its [max_dop]
    governs and [parallel] has no effect. *)
val create :
  ?pool_pages:int ->
  ?budget_pages:int ->
  ?opt_options:Mqr_opt.Optimizer.options ->
  ?runtime_filters:bool ->
  ?plan_cache:bool ->
  ?verify_plans:Mqr_analysis.Verifier.mode ->
  ?trace:Mqr_obs.Trace.t ->
  ?parallel:int ->
  Mqr_catalog.Catalog.t -> t

(** Does nothing: an engine holds no resources beyond the garbage
    collector's reach.  Kept only for callers written against the
    earlier API that had one to release. *)
val shutdown : t -> unit

val catalog : t -> Mqr_catalog.Catalog.t

(** The verifier mode queries inherit unless a dispatcher config
    overrides it. *)
val verify_mode : t -> Mqr_analysis.Verifier.mode

(** The engine's global memory-manager budget. *)
val budget_pages : t -> int

(** Build a {!Dispatcher.config} from the engine's settings (its budget
    and verifier mode, no start-time sampling) — the hook a workload
    manager uses to run queries through {!Dispatcher.start} with its own
    memory broker, statistics overlay, and temp-table namespace
    ([temp_prefix] must be unique per in-flight query). *)
val dispatcher_config :
  t ->
  mode:Dispatcher.mode ->
  ?broker:(min_pages:int -> max_pages:int -> int) ->
  ?env_overlay:(Mqr_sql.Query.t -> Mqr_opt.Stats_env.t -> unit) ->
  ?temp_prefix:string ->
  ?trace:Mqr_obs.Trace.scope ->
  ?progress:Mqr_obs.Progress.t ->
  unit -> Dispatcher.config

(** (hits, misses, entries) when the plan cache is enabled. *)
val plan_cache_stats : t -> (int * int * int) option
val params : t -> Reopt_policy.params

(** Replace the re-optimization parameters (mu, theta1, theta2) — used by
    the sensitivity experiments. *)
val with_params : t -> Reopt_policy.params -> t

val with_budget : t -> budget_pages:int -> t

(** Register a user-defined function usable in SQL predicates.  It
    declares no selectivity, so the optimizer falls back to its default
    guess and the inaccuracy-potential rules treat predicates using the
    function as [High]. *)
val register_udf : t -> name:string -> (Value.t list -> Value.t) -> unit

(** Parse, bind, optimize and execute under the given re-optimization mode
    (default [Full]).  [probe_rows] enables start-time selectivity sampling
    of uncertain predicates with that many probed rows per relation (the
    hybrid strategy; see {!Sampling}).  [progress] attaches a progress/ETA
    estimator the dispatcher updates at every decision point (pure
    observation; zero simulated cost).  With the plan cache enabled, a
    SQL text already run under [mode] reuses its cached plan. *)
val run_sql :
  t -> ?mode:Dispatcher.mode -> ?probe_rows:int ->
  ?progress:Mqr_obs.Progress.t -> string -> Dispatcher.report

(** Statement-level entry point: SELECT runs as {!run_sql} does (plan
    cache included) and returns a report, INSERT/DELETE return the
    affected-row count.  Update activity is tracked and makes
    the table's statistics progressively less trustworthy until
    {!analyze} is run (the paper's update-activity rule). *)
type exec_result =
  | Rows of Dispatcher.report
  | Modified of { table : string; count : int }
  | Created of string   (** table or index name *)
  | Analyzed of string

exception Dml_error of string

val execute :
  t -> ?mode:Dispatcher.mode -> ?probe_rows:int -> string -> exec_result

(** Recollect a table's statistics (ANALYZE), clearing its update
    counter. *)
val analyze :
  t -> ?kind:Mqr_stats.Histogram.kind -> ?buckets:int -> ?keys:string list ->
  string -> unit

(** Run an already-bound query block, bypassing the plan cache.  [label]
    names the query's trace scope when the engine was created with
    [?trace]. *)
val run_query :
  t -> ?mode:Dispatcher.mode -> ?label:string ->
  ?progress:Mqr_obs.Progress.t -> Mqr_sql.Query.t -> Dispatcher.report

(** Parse and bind without executing. *)
val bind_sql : t -> string -> Mqr_sql.Query.t

(** Optimize without executing: the annotated plan. *)
val explain : t -> string -> Mqr_opt.Plan.t

(** Static analysis without execution: build the plan the dispatcher
    would start from under [mode] (default [Full]; see
    {!Dispatcher.initial_plan}) and run every verifier pass over it.  Returns the analysed plan and the
    findings, errors first. *)
val lint :
  t -> ?mode:Dispatcher.mode -> string ->
  Mqr_opt.Plan.t * Mqr_analysis.Diagnostic.t list

val print_summary : Dispatcher.report -> unit
