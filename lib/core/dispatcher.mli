(** The scheduler/dispatcher with Dynamic Re-Optimization (paper Figure 9).

    A plan executes as a sequence of units (a join together with the scan
    pipelines feeding it, then the final aggregate/sort stack).  When a
    unit completes, the statistics its collectors gathered become
    available, the remainder of the plan is re-costed under the improved
    estimates, and — per {!Reopt_policy} — the dispatcher either

    - re-invokes the Memory Manager with the improved estimates (dynamic
      resource re-allocation), and/or
    - re-invokes the optimizer on the remainder of the query (posed over
      the materialized intermediate, as in the paper's Figure 6), and
      switches plans when the new plan wins even after paying the
      materialization and re-optimization overheads.

    [mode] isolates the two mechanisms for the Figure 11 experiment. *)

open Mqr_storage

type mode =
  | Off           (** baseline: no collectors, no re-optimization *)
  | Memory_only   (** improved estimates only drive memory re-allocation *)
  | Plan_only     (** improved estimates only drive plan modification *)
  | Full
  | Bound_checked
      (** [Full], but a plan switch is additionally admitted only when the
          candidate's provable worst-case remaining cost (upper bound of
          {!Mqr_analysis.Bounds.cost_interval}, collection overhead and
          materialization included) beats the current plan's provable
          best-case remaining cost — switching cannot lose to estimation
          error ({!Reopt_policy.accept_bound_checked}) *)

val mode_to_string : mode -> string

type config = {
  catalog : Mqr_catalog.Catalog.t;
  model : Sim_clock.model;
  pool_pages : int;
  budget_pages : int;   (** memory-manager budget *)
  params : Reopt_policy.params;
  opt_options : Mqr_opt.Optimizer.options;
  mode : mode;
  start_sampling : int option;
      (** probe uncertain local predicates on this many sampled rows
          before the first optimization (the hybrid strategy of
          Sections 4-5); [None] disables *)
  broker : (min_pages:int -> max_pages:int -> int) option;
      (** when set, [budget_pages] is ignored after start-up: every
          (re-)allocation asks the broker for a lease bounded by the
          remaining plan's aggregate memory demand, so a workload manager
          can shift pages between concurrent queries (the paper's dynamic
          resource re-allocation lifted to the workload level) *)
  env_overlay : (Mqr_sql.Query.t -> Mqr_opt.Stats_env.t -> unit) option;
      (** applied to every freshly built estimation environment before
          this query's own observed statistics; used by the workload
          manager's cross-query statistics feedback *)
  temp_prefix : string;
      (** disambiguates intermediate-result table names when several
          in-flight queries share one catalog; [""] for a solo query *)
  verify : Mqr_analysis.Verifier.mode;
      (** static plan verification (see {!Mqr_analysis.Verifier}): [Pre]
          analyses the instrumented plan before execution and
          {!start}/{!run} raise {!Mqr_analysis.Verifier.Rejected} on any
          error-severity finding; [Sanitize] additionally re-verifies the
          remainder plan at every decision point and after every
          mid-query plan switch, and asserts the runtime-filter lease
          invariant ([filter_pages_held = 0]) there.  Verification is
          pure analysis — it never touches the simulated clock. *)
  trace : Mqr_obs.Trace.scope option;
      (** when set, the run stamps operator/unit/query spans,
          decision-point audit-ledger entries and metrics into the scope's
          trace (see {!Mqr_obs.Trace}).  Tracing is pure observation: it
          never charges the simulated clock, so a traced run's elapsed
          time and result rows are identical to an untraced one *)
  progress : Mqr_obs.Progress.t option;
      (** when set, the run records a progress/ETA sample into the
          estimator at start, at every decision point, after every plan
          switch and on completion, combining the remainder plan's Eq.1
          cost estimate with its provable remaining-cost interval from
          {!Mqr_analysis.Bounds}.  Like tracing, progress is pure
          observation: it never charges the simulated clock, so a run
          with progress attached has bit-identical elapsed time and
          byte-identical rows *)
}

type event =
  | Ev_unit_done of { op : string; est_rows : float; actual_rows : int }
  | Ev_collected of { cid : int; alias : string; columns : string list }
  | Ev_realloc of { grants : Mqr_memman.Memory_manager.grant list }
  | Ev_considered of {
      decision : Reopt_policy.decision;
      t_improved : float;
      t_optimizer : float;
      t_opt_estimated : float;
      forced : bool;
          (** a runtime-filter or skew surprise overrode Eq. 2's
              close-enough shortcut at this decision point *)
    }
  | Ev_switched of {
      t_new_total : float;
      t_improved : float;
      materialize_ms : float;
    }
  | Ev_rejected of { t_new_total : float; t_improved : float }
  | Ev_bound_check of {
      new_hi_ms : float;
          (** candidate's provable worst-case remaining cost *)
      cur_lo_ms : float;
          (** current plan's provable best-case remaining cost *)
      admitted : bool;  (** the worst case provably beats the best case *)
    }  (** emitted at every bound-checked switch consideration *)
  | Ev_sampled of Sampling.probe
  | Ev_parallel of {
      op : string;           (** operator executed with an exchange *)
      dop : int;             (** plan degree of parallelism *)
      want_pages : int;      (** pool-page slices requested for workers *)
      got_pages : int;       (** slices actually leased; a shortfall under
                                 a broker shows over-commit being clamped *)
      max_worker_ms : float; (** slowest worker (what the clock charged) *)
      avg_worker_ms : float; (** mean worker time — max/avg is the skew *)
    }  (** a parallel operator finished; emitted once per exchange *)
  | Ev_filter of {
      source : string;      (** publishing join *)
      target_col : string;  (** probe-side column pruned *)
      est_sel : float;      (** optimizer's estimated pass fraction *)
      observed_sel : float; (** actual pass fraction *)
      probed : int;
      dropped : int;
      pages : int;          (** bloom bitmap pages leased *)
    }  (** a runtime filter was retired after its probe side ran *)

type report = {
  rows : Tuple.t array;
  result_schema : Schema.t;
  elapsed_ms : float;
  counters : Sim_clock.counters;
  timed_events : (float * event) list;
      (** every event paired with the simulated time at which it was
          emitted, in emission order — the run's one record of what
          happened; [filters] and the trace's audit ledger are derived
          from it *)
  switches : int;
  collectors : int;  (** collectors inserted into the initial plan *)
  initial_plan : Mqr_opt.Plan.t;
  final_plan : Mqr_opt.Plan.t;
  actual_rows : (int * int) list;
      (** (plan-node id, observed output rows) for every executed node —
          the raw material of an EXPLAIN ANALYZE *)
  actual_ms : (int * float) list;
      (** (plan-node id, simulated milliseconds spent in that node alone) *)
  pool_hits : int;    (** buffer-pool page hits during execution *)
  pool_misses : int;  (** buffer-pool page misses during execution *)
  observed_stats : (string * Mqr_catalog.Column_stats.t) list;
      (** qualified column -> statistics gathered by this query's
          collectors; they can outlive the query (Section 2.6) and seed a
          workload-level statistics cache *)
  observed_cards : (string * int) list;
      (** alias -> exact cardinality for relations scanned in full *)
  filters : (string * float * float) list;
      (** (probe column, estimated selectivity, observed selectivity) of
          every [Ev_filter] event, in order — the sideways information
          passing audit trail *)
  filter_pages_peak : int;
      (** most bloom-bitmap pages held at once *)
  filter_pages_held : int;
      (** bloom-bitmap pages still leased at completion — always 0 (the
          lifetime invariant the sanitizer asserts; exposed so callers
          need not reach into dispatcher internals) *)
  worker_pages_peak : int;
      (** most buffer-pool pages leased to parallel workers at once; 0 on
          a fully serial run *)
  worker_pages_held : int;
      (** worker pool-slice pages still leased at completion — always 0
          (same lease discipline as filter pages, asserted by the
          sanitizer as [PAR-LIFETIME]) *)
  collector_ms : float;
      (** simulated CPU spent inside statistics collectors — what the
          paper's mu budget bounds *)
  verifications : int;
      (** plan-verification runs performed (0 when [verify = Off]) *)
}

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
