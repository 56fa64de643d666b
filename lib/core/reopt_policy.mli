(** Re-optimization decision heuristics (paper Section 2.4).

    With [T_cur,improved] the improved estimate for executing the remainder
    of the current plan, [T_cur,optimizer] the optimizer's original
    estimate for the same operators, and [T_opt,estimated] the calibrated
    worst-case cost of re-invoking the optimizer:

    - Equation 1 — only re-optimize when the remainder dwarfs the
      optimizer invocation: [T_opt,estimated <= theta1 * T_cur,improved]
      (theta1 ~ 0.05);
    - Equation 2 — only re-optimize when the plan looks sub-optimal:
      [(T_cur,improved - T_cur,optimizer) / T_cur,optimizer > theta2]
      (theta2 ~ 0.2).

    A re-optimized plan is accepted only if its total estimated time —
    including the already-spent optimization time and the materialization
    of the current intermediate result — beats the improved estimate of
    staying the course: [T_new-plan,total < T_cur-plan,improved].

    {!decide} is Section 2.4's composition at one decision point: the
    mode, the plan-switch bound, both equations, the surprise override of
    Eq. 2, the re-plan over the materialized intermediates (Figure 6),
    the acceptance test and, in [Bound_checked] mode, the provable-cost
    veto.  It computes a {!verdict} without applying it; the dispatcher
    emits the events, charges the optimizer time and switches. *)

type params = {
  mu : float;      (** max statistics-collection overhead fraction, ~0.05 *)
  theta1 : float;  (** Eq. 1 threshold, ~0.05 *)
  theta2 : float;  (** Eq. 2 threshold, ~0.2 *)
  max_switches : int;  (** safety bound on plan changes per query *)
}

val default_params : params

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
          error ({!accept_bound_checked}) *)

val mode_to_string : mode -> string

(** Does the mode re-allocate memory at a decision point?  Re-allocation
    is free, so it comes first and a switch must beat the re-allocated
    plan. *)
val reallocates : mode -> bool

type decision =
  | Too_cheap      (** Eq. 1 failed *)
  | Close_enough   (** Eq. 2 failed *)
  | Consider       (** both heuristics passed: re-invoke the optimizer *)

val should_consider :
  params -> t_opt_estimated:float -> t_improved:float -> t_optimizer:float ->
  decision

val accept_new_plan : t_new_total:float -> t_improved:float -> bool

(** Guaranteed-win acceptance for the dispatcher's bound-checked mode:
    admit the candidate only when its provable worst-case remaining cost
    [new_hi_ms] (finite, upper bound of {!Mqr_analysis.Bounds.cost_interval}
    plus collection overhead and materialization) is below the current
    plan's provable best-case remaining cost [cur_lo_ms]. *)
val accept_bound_checked : new_hi_ms:float -> cur_lo_ms:float -> bool

(** Is the deviation between a filter's estimated and observed selectivity
    large enough (a factor above 4 either way) to distrust the remaining
    plan?  A surprise forces the next decision point to consider
    re-optimization even when Eq. 2 says the plan looks close enough. *)
val filter_surprise : est:float -> obs:float -> bool

val decision_to_string : decision -> string

(** {2 The decision} *)

(** What {!decide} reads of a run.  [remainder] is the current plan with
    executed units folded into [Materialized] leaves, re-costed under the
    improved estimates; each leaf's result is a temp table of [catalog];
    [orig_op_ms] the optimizer's original estimate per plan-node id;
    [overrides] the statistics this query observed; [force] that a
    runtime-filter or skew surprise overrides Eq. 2 (never Eq. 1). *)
type view = {
  catalog : Mqr_catalog.Catalog.t;
  opt_options : Mqr_opt.Optimizer.options;
  params : params;
  mode : mode;
  env_overlay : (Mqr_sql.Query.t -> Mqr_opt.Stats_env.t -> unit) option;
  query : Mqr_sql.Query.t;
  remainder : Mqr_opt.Plan.t;
  orig_op_ms : int -> float option;
  overrides : (string * Mqr_catalog.Column_stats.t) list;
  switches : int;
  force : bool;
}

(** The Eq. 1/Eq. 2 terms of one consideration. *)
type terms = {
  decision : decision;
  t_improved : float;
  t_optimizer : float;
  t_opt_estimated : float;
  forced : bool;
}

(** Provable remaining costs: the candidate's worst case, the current
    plan's best case, and {!accept_bound_checked}'s answer. *)
type bound_check = { new_hi_ms : float; cur_lo_ms : float; admitted : bool }

(** A re-planned remainder, not yet instrumented, with the environment it
    was planned in.  [t_new_total] includes [materialize_ms]; [bound_check]
    is [Some] exactly in [Bound_checked] mode. *)
type candidate = {
  plan : Mqr_opt.Plan.t;
  env : Mqr_opt.Stats_env.t;
  plans_enumerated : int;
  materialize_ms : float;
  t_new_total : float;
  bound_check : bound_check option;
}

type verdict =
  | Keep of terms option
      (** [None]: nothing was considered (the mode does not re-plan, no
          join is left, or [max_switches] is reached) *)
  | Reject of terms * candidate
  | Switch of terms * candidate

(** Section 2.4 at one decision point.  Charges no clock (the optimizer
    runs without one), emits no event and writes no run state; its one
    effect is [env_overlay], called once per attempted re-plan. *)
val decide : view -> verdict
