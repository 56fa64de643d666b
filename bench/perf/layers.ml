(* Simulated-clock and count metrics per layer, accumulated from the
   dispatcher reports of the untraced run.  They are exact: one seed gives
   the same values on every run. *)

module Dispatcher = Mqr_core.Dispatcher
module Reopt_policy = Mqr_core.Reopt_policy
module Plan = Mqr_opt.Plan

let op_kinds =
  [ "seq_scan"; "index_scan"; "hash_join"; "merge_join"; "index_nl_join";
    "aggregate"; "sort"; "collect"; "materialized"; "other"; "unmapped" ]

let kind (p : Plan.t) =
  match p.Plan.node with
  | Plan.Seq_scan _ -> "seq_scan"
  | Plan.Index_scan _ -> "index_scan"
  | Plan.Hash_join _ -> "hash_join"
  | Plan.Merge_join _ -> "merge_join"
  | Plan.Index_nl_join _ -> "index_nl_join"
  | Plan.Aggregate _ -> "aggregate"
  | Plan.Sort _ -> "sort"
  | Plan.Collect _ -> "collect"
  | Plan.Materialized _ -> "materialized"
  | Plan.Block_nl_join _ | Plan.Filter _ | Plan.Project _ | Plan.Limit _ ->
    "other"

type t = {
  mutable n : int;
  mutable elapsed : float;
  mutable opt_ms : float;
  mutable opt_inv : int;
  mutable considered : int;
  mutable switches : int;
  mutable collectors : int;
  mutable collector_ms : float;
  mutable reallocs : int;
  mutable bound_checks : int;
  mutable bound_admits : int;
  op_ms : (string, float) Hashtbl.t;
  mutable par_ops : int;
  mutable par_skew : float;
  mutable shortfall : int;
  mutable seq_reads : int;
  mutable rand_reads : int;
  mutable writes : int;
  mutable hits : int;
  mutable misses : int;
  mutable examined : int;
  mutable results : int;
}

let create () =
  { n = 0; elapsed = 0.0; opt_ms = 0.0; opt_inv = 0; considered = 0;
    switches = 0; collectors = 0; collector_ms = 0.0; reallocs = 0;
    bound_checks = 0; bound_admits = 0; op_ms = Hashtbl.create 16;
    par_ops = 0; par_skew = 0.0; shortfall = 0; seq_reads = 0;
    rand_reads = 0; writes = 0; hits = 0; misses = 0; examined = 0;
    results = 0 }

let add t (r : Dispatcher.report) =
  let c = r.Dispatcher.counters in
  t.n <- t.n + 1;
  t.elapsed <- t.elapsed +. r.Dispatcher.elapsed_ms;
  t.opt_ms <- t.opt_ms +. c.Mqr_storage.Sim_clock.opt_ms;
  t.opt_inv <- t.opt_inv + c.Mqr_storage.Sim_clock.opt_invocations;
  t.seq_reads <- t.seq_reads + c.Mqr_storage.Sim_clock.seq_reads;
  t.rand_reads <- t.rand_reads + c.Mqr_storage.Sim_clock.rand_reads;
  t.writes <- t.writes + c.Mqr_storage.Sim_clock.writes;
  t.switches <- t.switches + r.Dispatcher.switches;
  t.collectors <- t.collectors + r.Dispatcher.collectors;
  t.collector_ms <- t.collector_ms +. r.Dispatcher.collector_ms;
  t.hits <- t.hits + r.Dispatcher.pool_hits;
  t.misses <- t.misses + r.Dispatcher.pool_misses;
  t.results <- t.results + Array.length r.Dispatcher.rows;
  t.examined <-
    List.fold_left (fun a (_, n) -> a + n) t.examined r.Dispatcher.actual_rows;
  List.iter
    (fun (_, ev) ->
       match ev with
       | Dispatcher.Ev_considered { decision = Reopt_policy.Consider; _ } ->
         t.considered <- t.considered + 1
       | Dispatcher.Ev_realloc _ -> t.reallocs <- t.reallocs + 1
       | Dispatcher.Ev_bound_check { admitted; _ } ->
         t.bound_checks <- t.bound_checks + 1;
         if admitted then t.bound_admits <- t.bound_admits + 1
       | Dispatcher.Ev_parallel p ->
         t.par_ops <- t.par_ops + 1;
         t.par_skew <- t.par_skew +. Stat.ratio p.max_worker_ms p.avg_worker_ms;
         t.shortfall <- t.shortfall + (p.want_pages - p.got_pages)
       | _ -> ())
    r.Dispatcher.timed_events;
  (* node ids resolve through the final plan, then the initial plan
     (switched-in operators get fresh ids); operators of a plan that was
     itself replaced later are "unmapped" *)
  let kinds = Hashtbl.create 64 in
  List.iter
    (fun p -> Hashtbl.replace kinds p.Plan.id (kind p))
    (Plan.nodes r.Dispatcher.final_plan @ Plan.nodes r.Dispatcher.initial_plan);
  List.iter
    (fun (id, ms) ->
       let k = Option.value ~default:"unmapped" (Hashtbl.find_opt kinds id) in
       Hashtbl.replace t.op_ms k
         (ms +. Option.value ~default:0.0 (Hashtbl.find_opt t.op_ms k)))
    r.Dispatcher.actual_ms

(* (name, unit, value) per statement unless the unit says otherwise *)
let metrics t =
  let per x = Stat.ratio x (float_of_int t.n) in
  let peri x = per (float_of_int x) in
  [ ("opt.sim_ms", "sim_ms", per t.opt_ms);
    ("opt.invocations", "count", peri t.opt_inv);
    ("core.considered", "count", peri t.considered);
    ("core.switches", "count", peri t.switches);
    ("core.switch_ratio", "ratio",
     Stat.ratio (float_of_int t.switches) (float_of_int t.considered));
    ("core.collectors", "count", peri t.collectors);
    ("core.collector_share", "%", 100.0 *. Stat.ratio t.collector_ms t.elapsed);
    ("core.reallocs", "count", peri t.reallocs);
    ("analysis.bound_checks", "count", peri t.bound_checks);
    ("analysis.bound_admit_ratio", "ratio",
     Stat.ratio (float_of_int t.bound_admits) (float_of_int t.bound_checks)) ]
  @ List.map
    (fun k ->
       ("exec." ^ k, "sim_ms",
        per (Option.value ~default:0.0 (Hashtbl.find_opt t.op_ms k))))
    op_kinds
  @ [ ("exec.rows_per_result", "ratio",
       Stat.ratio (float_of_int t.examined) (float_of_int t.results));
      ("exec.par_ops", "count", peri t.par_ops);
      ("exec.par_skew", "ratio", Stat.ratio t.par_skew (float_of_int t.par_ops));
      ("exec.par_page_shortfall", "pages", peri t.shortfall);
      ("storage.seq_reads", "count", peri t.seq_reads);
      ("storage.rand_reads", "count", peri t.rand_reads);
      ("storage.writes", "count", peri t.writes);
      ("storage.pool_hit_ratio", "ratio",
       Stat.ratio (float_of_int t.hits) (float_of_int (t.hits + t.misses))) ]
