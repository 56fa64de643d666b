open Mqr_storage
module Expr = Mqr_expr.Expr
module Query = Mqr_sql.Query
module Plan = Mqr_opt.Plan
module Optimizer = Mqr_opt.Optimizer
module Stats_env = Mqr_opt.Stats_env
module Bounds = Mqr_analysis.Bounds

type params = {
  mu : float;
  theta1 : float;
  theta2 : float;
  max_switches : int;
}

let default_params =
  { mu = 0.05; theta1 = 0.05; theta2 = 0.2; max_switches = 4 }

type mode = Off | Memory_only | Plan_only | Full | Bound_checked

let mode_to_string = function
  | Off -> "off"
  | Memory_only -> "memory-only"
  | Plan_only -> "plan-only"
  | Full -> "full"
  | Bound_checked -> "bound-checked"

let reallocates = function
  | Memory_only | Full | Bound_checked -> true
  | Off | Plan_only -> false

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

(* ------------------------------------------------------------------ *)
(* The decision at one decision point (Section 2.4's composition).     *)

type view = {
  catalog : Mqr_catalog.Catalog.t;
  model : Sim_clock.model;
  opt_options : Optimizer.options;
  params : params;
  mode : mode;
  env_overlay : (Query.t -> Stats_env.t -> unit) option;
  query : Query.t;
  remainder : Plan.t;
  orig_op_ms : int -> float option;
  overrides : (string * Mqr_catalog.Column_stats.t) list;
  switches : int;
  force : bool;
}

type terms = {
  decision : decision;
  t_improved : float;
  t_optimizer : float;
  t_opt_estimated : float;
  forced : bool;
}

type bound_check = { new_hi_ms : float; cur_lo_ms : float; admitted : bool }

type candidate = {
  plan : Plan.t;
  env : Stats_env.t;
  plans_enumerated : int;
  materialize_ms : float;
  t_new_total : float;
  bound_check : bound_check option;
}

type verdict =
  | Keep of terms option
  | Reject of terms * candidate
  | Switch of terms * candidate

let count_leaf_relations (p : Plan.t) =
  Plan.fold
    (fun acc (n : Plan.t) ->
       match n.Plan.node with
       | Plan.Seq_scan _ | Plan.Index_scan _ | Plan.Materialized _
       | Plan.Index_nl_join _ -> acc + 1
       | _ -> acc)
    0 p

(* Remainder-query reconstruction (paper Figure 6: SQL over Temp_i). *)
let remainder_query v : Query.t =
  let q = v.query in
  let relations = ref [] and conjuncts = ref [] in
  let add_relation r = relations := r :: !relations in
  let add_conjuncts cs = conjuncts := cs @ !conjuncts in
  let add_pred = Option.iter (fun e -> add_conjuncts (Expr.conjuncts e)) in
  let temp_relation name =
    { Query.table = name;
      alias = name;
      rel_schema =
        Heap_file.schema (Mqr_catalog.Catalog.find_exn v.catalog name).heap }
  in
  let original_relation alias =
    match
      List.find_opt (fun (r : Query.relation) -> r.Query.alias = alias)
        q.Query.relations
    with
    | Some r -> r
    | None ->
      (* a temp table introduced by an earlier plan switch: its heap schema
         already carries the original qualifiers *)
      temp_relation alias
  in
  let rec walk (p : Plan.t) =
    match p.Plan.node with
    | Plan.Materialized { name; _ } -> add_relation (temp_relation name)
    | Plan.Seq_scan { alias; filter; _ } | Plan.Index_scan { alias; filter; _ } ->
      add_relation (original_relation alias);
      add_pred filter
    | Plan.Hash_join { build = l; probe = r; keys; extra; _ }
    | Plan.Merge_join { left = l; right = r; keys; extra; _ } ->
      walk l;
      walk r;
      add_conjuncts
        (List.map (fun (a, b) -> Expr.Cmp (Expr.Eq, Expr.Col a, Expr.Col b)) keys);
      add_pred extra
    | Plan.Index_nl_join
        { outer; alias; outer_col = oc; inner_col; inner_filter; extra; _ } ->
      walk outer;
      add_relation (original_relation alias);
      add_conjuncts [ Expr.Cmp (Expr.Eq, Expr.Col oc, Expr.Col inner_col) ];
      add_pred inner_filter;
      add_pred extra
    | Plan.Block_nl_join { outer; inner; pred } ->
      walk outer;
      walk inner;
      add_pred pred
    | Plan.Aggregate { input; _ } | Plan.Sort { input; _ }
    | Plan.Project { input; _ } | Plan.Limit { input; _ }
    | Plan.Collect { input; _ } | Plan.Filter { input; _ } ->
      walk input
  in
  walk v.remainder;
  { q with
    Query.relations = List.rev !relations;
    conjuncts = List.rev !conjuncts }

(* Materialization overhead of switching: writing every in-memory
   intermediate of the current plan to disk. *)
let pending_materialize_ms v =
  Plan.fold
    (fun acc (n : Plan.t) ->
       match n.Plan.node with
       | Plan.Materialized { bytes; _ } ->
         let pages = float_of_int (Mqr_exec.Exec_ctx.pages_of_bytes bytes) in
         acc +. Mqr_opt.Cost_model.materialize_ms v.model ~pages
       | _ -> acc)
    0.0 v.remainder

(* Bound-checked mode: the candidate's provable worst-case remaining cost
   (collection overhead and the pending materialization included) must
   beat the current plan's provable best-case remaining cost — a switch is
   admitted only when it provably cannot lose. *)
let bound_check v ~materialize_ms plan =
  let interval =
    Bounds.cost_interval (Bounds.env v.catalog) ~model:v.model
      ~max_dop:v.opt_options.Optimizer.max_dop
  in
  let new_hi_ms =
    ((interval plan).Bounds.hi *. (1.0 +. v.params.mu)) +. materialize_ms
  in
  let cur_lo_ms = (interval v.remainder).Bounds.lo in
  { new_hi_ms;
    cur_lo_ms;
    admitted = accept_bound_checked ~new_hi_ms ~cur_lo_ms }

(* Re-optimize the remainder over the materialized intermediates: a fresh
   estimation environment, the configured overlay, then the statistics
   this query observed.  No clock: the caller charges the enumeration. *)
let replan v =
  let rq = remainder_query v in
  let env = Stats_env.create v.catalog rq.Query.relations in
  Option.iter (fun overlay -> overlay rq env) v.env_overlay;
  List.iter
    (fun (column, stats) -> Stats_env.override env ~column stats)
    v.overrides;
  match Optimizer.optimize ~options:v.opt_options ~model:v.model ~env rq with
  | exception Optimizer.Planning_error _ -> None
  | { Optimizer.plan; plans_enumerated } -> Some (plan, env, plans_enumerated)

let decide v =
  if
    v.mode = Off || v.mode = Memory_only
    || Plan.join_count v.remainder < 1
    || v.switches >= v.params.max_switches
  then Keep None
  else
    let t_improved = v.remainder.Plan.est.Plan.total_ms in
    let t_optimizer =
      List.fold_left
        (fun acc (n : Plan.t) ->
           match v.orig_op_ms n.Plan.id with
           | Some ms -> acc +. ms
           | None -> acc)
        0.0 (Plan.nodes v.remainder)
    in
    let t_opt_estimated =
      Optimizer.estimated_opt_ms ~model:v.model
        ~relations:(count_leaf_relations v.remainder)
    in
    let decision =
      should_consider v.params ~t_opt_estimated ~t_improved ~t_optimizer
    in
    let terms =
      { decision; t_improved; t_optimizer; t_opt_estimated; forced = v.force }
    in
    match decision with
    (* Eq. 1 is never overridden: when the remainder is cheap relative to
       the optimizer invocation, re-planning cannot pay off no matter how
       wrong the estimates are.  A surprise only overrides Eq. 2's "close
       enough" — the estimates it was judged by are now suspect. *)
    | Too_cheap -> Keep (Some terms)
    | Close_enough when not v.force -> Keep (Some terms)
    | Close_enough | Consider ->
      (match replan v with
       | None -> Keep (Some terms)
       | Some (plan, env, plans_enumerated) ->
         let materialize_ms = pending_materialize_ms v in
         (* reading the temp back is already in the new plan's scan costs *)
         let t_new_total = plan.Plan.est.Plan.total_ms +. materialize_ms in
         let bound_check =
           match v.mode with
           | Bound_checked -> Some (bound_check v ~materialize_ms plan)
           | Off | Memory_only | Plan_only | Full -> None
         in
         let c =
           { plan; env; plans_enumerated; materialize_ms; t_new_total;
             bound_check }
         in
         if
           accept_new_plan ~t_new_total ~t_improved
           && Option.fold ~none:true ~some:(fun b -> b.admitted) bound_check
         then Switch (terms, c)
         else Reject (terms, c))
