(** The scheduler/dispatcher with Dynamic Re-Optimization (paper Figure 9).

    A plan executes as a sequence of units (a join together with the scan
    pipelines feeding it, then the final aggregate/sort stack), each run
    by the plan interpreter {!Interp}.  When a unit completes, the
    statistics its collectors gathered become available, the remainder of
    the plan is re-costed under the improved estimates, and the
    dispatcher

    - re-invokes the Memory Manager with the improved estimates (dynamic
      resource re-allocation) when {!Reopt_policy.reallocates}, then
    - applies the verdict of {!Reopt_policy.decide}, Section 2.4's
      composition: the optimizer re-invoked on the remainder of the query
      (posed over the materialized intermediate, as in the paper's
      Figure 6), and a plan switch when the new plan wins even after
      paying the materialization and re-optimization overheads.

    [mode] isolates the two mechanisms for the Figure 11 experiment. *)

(** The re-optimization modes, documented at {!Reopt_policy.mode}. *)
type mode = Reopt_policy.mode =
  | Off | Memory_only | Plan_only | Full | Bound_checked

val mode_to_string : mode -> string

(** The run's configuration, the events it emits and its report:
    declared and documented once, in {!Interp.Types}. *)
include module type of struct include Interp.Types end

(** The plan {!start} would begin executing: optimized, instrumented with
    collectors unless [mode] is [Off], granted memory and re-costed under
    the grant.  Nothing executes, and every charge goes to a throwaway
    clock.  [sanitize], [trace] and [progress] are not consulted. *)
val initial_plan : config -> Mqr_sql.Query.t -> Mqr_opt.Plan.t

(** Execute a bound query under the configuration.  [prepared] supplies a
    cached static plan (with its collector count) and skips optimization
    and collector insertion — see {!Plan_cache}. *)
val run :
  ?prepared:Mqr_opt.Plan.t * int -> config -> Mqr_sql.Query.t -> report

(** {2 Stepwise execution}

    A workload manager interleaves many queries over the simulated clock:
    [start] optimizes and instruments the query without executing it, and
    each [step] runs exactly one execution unit (one ready join together
    with the pipelines feeding it, or the final aggregate/sort stack, which
    completes the query).  [run] is [start] followed by [step] to
    completion. *)

type run

(** A [start] that raises (a rejected plan, a failing start-time probe)
    leaves no open trace span and no temp table, as a raising {!step}. *)
val start :
  ?prepared:Mqr_opt.Plan.t * int -> config -> Mqr_sql.Query.t -> run

(** [step r] executes the next unit; returns the report once the query
    finished (repeat calls keep returning it).  If a unit raises
    (executor failure, sanitizer rejection, a broken UDF) the run is
    torn down exactly like {!abort} before the exception propagates —
    no leaked temp tables, no leaked transient broker pages — and
    further [step] calls raise [Invalid_argument]. *)
val step : run -> report option

(** Cancel a run mid-query: releases transient broker pages, drops the
    run's temp tables from the shared catalog, and closes its open trace
    spans.  Idempotent; no-op once the report exists.  The run's memory
    lease itself belongs to whoever created the broker hook and must be
    released there. *)
val abort : run -> unit

(** The run was torn down by {!abort} or by an exception inside {!step}. *)
val aborted : run -> bool

(** Simulated milliseconds this run has consumed so far. *)
val run_elapsed_ms : run -> float

(** Transient pages the run currently holds: bloom bitmaps plus buffer-pool
    slices leased to parallel workers.  Filters live strictly inside one
    execution unit and worker slices inside one operator, so this is 0
    whenever the run is observable from outside a [step] — at every
    decision point, after a mid-query plan switch, and at completion
    (leased pages always return to the broker). *)
val transient_pages_held : run -> int

(** Re-negotiate the run's memory lease against its broker and re-allocate
    over the remaining plan — lets the workload manager re-grant pages
    freed by a finished query to one still in flight.  No-op on finished
    runs or broker-less configurations (the fixed budget cannot change). *)
val refresh_memory : run -> unit

val pp_event : Format.formatter -> event -> unit

(** Full EXPLAIN ANALYZE over the report's initial plan: estimated vs
    observed cardinalities and per-operator simulated time. *)
val pp_explain_analyze : Format.formatter -> report -> unit
