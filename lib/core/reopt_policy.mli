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
    staying the course: [T_new-plan,total < T_cur-plan,improved]. *)

type params = {
  mu : float;      (** max statistics-collection overhead fraction, ~0.05 *)
  theta1 : float;  (** Eq. 1 threshold, ~0.05 *)
  theta2 : float;  (** Eq. 2 threshold, ~0.2 *)
  max_switches : int;  (** safety bound on plan changes per query *)
}

val default_params : params

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
