type params = {
  mu : float;
  theta1 : float;
  theta2 : float;
  max_switches : int;
}

let default_params =
  { mu = 0.05; theta1 = 0.05; theta2 = 0.2; max_switches = 4 }

type decision =
  | Too_cheap
  | Close_enough
  | Consider

let should_consider p ~t_opt_estimated ~t_improved ~t_optimizer =
  if t_opt_estimated > p.theta1 *. t_improved then Too_cheap
  else if
    t_optimizer <= 0.0
    || (t_improved -. t_optimizer) /. t_optimizer <= p.theta2
  then Close_enough
  else Consider

let accept_new_plan ~t_new_total ~t_improved = t_new_total < t_improved

(* Bound-checked switching: only admit a candidate whose *worst-case*
   remaining cost (upper bound of its provable cost interval, collection
   overhead and materialization included) beats the *best-case* remaining
   cost of staying the course.  An infinite upper bound — the analysis
   could not bound the candidate — never wins. *)
let accept_bound_checked ~new_hi_ms ~cur_lo_ms =
  Float.is_finite new_hi_ms && new_hi_ms < cur_lo_ms

(* A runtime filter whose observed pass rate deviates from the estimate by
   more than this factor in either direction means the join selectivity
   underlying the remaining plan is badly wrong. *)
let rf_surprise_factor = 4.0

let filter_surprise ~est ~obs =
  let est = Float.max 1e-6 est and obs = Float.max 1e-6 obs in
  let ratio = if est > obs then est /. obs else obs /. est in
  ratio > rf_surprise_factor

let decision_to_string = function
  | Too_cheap -> "too-cheap (Eq. 1)"
  | Close_enough -> "close-enough (Eq. 2)"
  | Consider -> "consider"
