(* The plan interpreter of the scheduler/dispatcher (paper Figure 9):
   executes plan subtrees over the run state — operators, parallel
   workers, runtime filters and their transient page leases, the memory
   grant, and the registration of an executed unit as a temp table —
   stamping events, spans and observed cardinalities as it goes.  Which
   unit runs next, and what happens at a decision point, is
   [Dispatcher]'s job. *)

open Mqr_storage
module Catalog = Mqr_catalog.Catalog
module Column_stats = Mqr_catalog.Column_stats
module Expr = Mqr_expr.Expr
module Query = Mqr_sql.Query
module Plan = Mqr_opt.Plan
module Optimizer = Mqr_opt.Optimizer
module Stats_env = Mqr_opt.Stats_env
module Memory_manager = Mqr_memman.Memory_manager
module Exec_ctx = Mqr_exec.Exec_ctx
module Rows_ops = Mqr_exec.Rows_ops
module Join = Mqr_exec.Join
module Merge_join = Mqr_exec.Merge_join
module Aggregate = Mqr_exec.Aggregate
module Leaf = Mqr_exec.Leaf
module Collector = Mqr_exec.Collector
module Runtime_filter = Mqr_exec.Runtime_filter
module Parallel = Mqr_exec.Parallel
module Verifier = Mqr_analysis.Verifier
module Diagnostic = Mqr_analysis.Diagnostic
module Bounds = Mqr_analysis.Bounds
module Trace = Mqr_obs.Trace
module Metrics = Mqr_obs.Metrics
module Progress = Mqr_obs.Progress

(** The run's configuration, the events it emits (each paired with its
    simulated emission time in the report) and its report; {!Dispatcher}
    re-exports them. *)
module Types = struct
  type config = {
    catalog : Catalog.t;
    model : Sim_clock.model;
        (** unread; kept only for the frozen benchmark harness (see
            {!Mqr_storage.Sim_clock}'s kept names) *)
    pool_pages : int;
    budget_pages : int;   (** memory-manager budget *)
    params : Reopt_policy.params;
    opt_options : Optimizer.options;
    mode : Reopt_policy.mode;
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
    env_overlay : (Query.t -> Stats_env.t -> unit) option;
        (** applied to every freshly built estimation environment before
            this query's own observed statistics; used by the workload
            manager's cross-query statistics feedback *)
    temp_prefix : string;
        (** disambiguates intermediate-result table names when several
            in-flight queries share one catalog; [""] for a solo query *)
    sanitize : bool;
        (** the run's sanitizer (see {!Mqr_analysis.Verifier}), read only
            by {!Interp.observe}: it verifies the initial plan, re-verifies
            the plan after every switch and at every decision point, and
            raises {!Mqr_analysis.Verifier.Rejected} on any error-severity
            finding, on [BND-OBSERVED] (an observed cardinality outside its
            provable interval) after every unit and at completion, and on
            [RF-LIFETIME] or [PAR-LIFETIME] (bitmap or worker pool-slice
            pages still leased) at every decision point and at completion *)
    trace : Trace.scope option;
        (** operator/unit/query spans, audit-ledger entries and metrics go
            to this scope (see {!Mqr_obs.Trace}); read only by
            {!Interp.observe} and its span helpers *)
    progress : Progress.t option;
        (** a progress/ETA sample at start, after every switch, at every
            decision point and at completion: the remainder's Eq.1 estimate
            and its provable remaining-cost interval from
            {!Mqr_analysis.Bounds}; read only by {!Interp.observe} *)
    scratch : Exec_ctx.scratch;
        (** the engine's step-lived buffers, which every run's context
            borrows from (see {!Mqr_exec.Exec_ctx}); the dispatcher
            releases them at the end of each step *)
  }
  (** None of the three observers charges the simulated clock: attaching
      them leaves rows and simulated elapsed bit-identical. *)

  type event =
    | Ev_unit_done of { op : string; est_rows : float; actual_rows : int }
    | Ev_collected of { cid : int; alias : string; columns : string list }
    | Ev_realloc of { grants : Memory_manager.grant list }
    | Ev_considered of Reopt_policy.terms
        (** Eq. 1 and Eq. 2 were evaluated at a decision point *)
    | Ev_switched of {
        t_new_total : float;
        t_improved : float;
        materialize_ms : float;
        plans_enumerated : int;  (** what the re-plan's DP enumerated *)
        opt_ms : float;  (** the simulated time charged for it *)
      }
    | Ev_rejected of {
        t_new_total : float;
        t_improved : float;
        plans_enumerated : int;
        opt_ms : float;
      }
    | Ev_bound_check of Reopt_policy.bound_check
        (** emitted at every bound-checked switch consideration *)
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
            happened; the trace's audit ledger and EXPLAIN ANALYZE's filter
            lines are derived from it *)
    switches : int;
    collectors : int;  (** collectors inserted into the initial plan *)
    initial_plan : Plan.t;
    final_plan : Plan.t;
    actual_rows : (int * int) list;
        (** (plan-node id, observed output rows) for every executed node —
            the raw material of an EXPLAIN ANALYZE *)
    actual_ms : (int * float) list;
        (** (plan-node id, simulated milliseconds spent in that node alone) *)
    pool_hits : int;    (** buffer-pool page hits during execution *)
    pool_misses : int;  (** buffer-pool page misses during execution *)
    observed_stats : (string * Column_stats.t) list;
        (** qualified column -> statistics gathered by this query's
            collectors; they can outlive the query (Section 2.6) and seed a
            workload-level statistics cache *)
    observed_cards : (string * int) list;
        (** alias -> exact cardinality for relations scanned in full *)
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
        (** plan-verification runs performed (0 unless [sanitize]) *)
  }
end

include Types

(* ------------------------------------------------------------------ *)
(* Run state.                                                          *)

(* Pages one kind of transient consumer (bloom bitmaps, parallel workers'
   pool slices) holds right now, and its high-water mark. *)
type transient = { mutable held : int; mutable peak : int }

type state = {
  cfg : config;
  ctx : Exec_ctx.t;
  mutable memman : Memory_manager.t;
  mutable env : Stats_env.t;
  mutable current : Plan.t;
  (* observed column statistics, re-applied to every new Stats_env *)
  mutable overrides : (string * Column_stats.t) list;
  (* alias -> exact cardinality for full (unfiltered) scans *)
  mutable observed_cards : (string * int) list;
  (* (emission time, event), newest first: the run's only record of what
     happened, from which the report and the audit ledger are derived *)
  mutable events : (float * event) list;
  (* observed output cardinality per executed plan-node id *)
  actuals : (int, int) Hashtbl.t;
  (* simulated milliseconds spent inside each node (children excluded) *)
  actual_ms : (int, float) Hashtbl.t;
  (* runtime filters currently pushed down (publishing join's build side
     done, probe side executing); scans test their output against these *)
  mutable active_filters : Runtime_filter.t list;
  filter_pages : transient;
  (* a retired filter's pass rate deviated badly from the estimate: force
     the next decision point past the Eq. 2 close-enough shortcut *)
  mutable filter_surprise : bool;
  worker_pages : transient;
  (* a parallel operator's workers finished badly out of balance: force
     the next decision point so re-costing can re-pick degrees *)
  mutable skew_surprise : bool;
  (* simulated milliseconds spent inside statistics collectors *)
  mutable collector_ms : float;
  (* simulated milliseconds runtime filters spent testing probe rows *)
  mutable filter_probe_ms : float;
  (* the trace's query span, open from start to completion or abort *)
  mutable q_span : (Trace.scope * Trace.token) option;
  (* plan-verification runs performed *)
  mutable verifications : int;
  (* equi-join selectivities for every re-cost of this run *)
  sel_memo : Optimizer.memo;
}

(* ------------------------------------------------------------------ *)
(* Observability.  The dispatcher is observable at a few fixed points
   (paper Figure 9): the run starts, an event is emitted, a unit is done,
   a decision point opens, the plan switches, the verdict is applied, the
   run completes or aborts.  [observe] is the one reader of the config's
   [trace], [progress] and [sanitize]: the trace and its audit ledger, the
   metrics, the progress estimator and the sanitizer are its closed set of
   cases.  Pure observation — nothing here charges the simulated clock;
   the sanitizer is the one observer that may raise.                   *)

let now st = Sim_clock.elapsed_ms st.ctx.Exec_ctx.clock

let decision_metric = function
  | Reopt_policy.Too_cheap -> "decision.too_cheap"
  | Reopt_policy.Close_enough -> "decision.close_enough"
  | Reopt_policy.Consider -> "decision.consider"

(* Every decision entry carries the cardinality context of the execution
   unit that last finished: the newest [Ev_unit_done] in the stream, or
   none yet (e.g. a lease refresh before the first unit).  The kind's own
   args are named here and nowhere else: the Eq. 1/Eq. 2 terms of the
   paper (Section 2.4), so a decision can be replayed post-hoc. *)
let trace_event st scope ~ts ev =
  let m = Trace.scope_metrics scope in
  let instant cat name args =
    Trace.instant scope ~cat ~name ~args ~ts_ms:ts ()
  in
  let ledger kind args =
    let unit_op, est_rows, actual_rows =
      Option.value ~default:("", 0.0, 0)
        (List.find_map
           (function
             | _, Ev_unit_done { op; est_rows; actual_rows } ->
               Some (op, est_rows, actual_rows)
             | _ -> None)
           st.events)
    in
    Trace.decision scope ~ts_ms:ts ~unit_op ~est_rows ~actual_rows ~kind args
  in
  match ev with
  | Ev_unit_done _ -> ()
  | Ev_collected { cid; alias; columns } ->
    Metrics.incr m "collector.collections";
    instant "collector" (Printf.sprintf "collected#%d" cid)
      [ ("alias", Trace.Str alias);
        ("columns", Trace.Str (String.concat "," columns)) ]
  | Ev_realloc { grants } ->
    Metrics.incr m "decision.realloc";
    ledger "realloc"
      [ ("granted_pages",
         Trace.Int
           (List.fold_left
              (fun acc (g : Memory_manager.grant) ->
                 acc + g.Memory_manager.granted)
              0 grants));
        ("consumers", Trace.Int (List.length grants)) ]
  | Ev_considered { decision; t_improved; t_optimizer; t_opt_estimated; forced }
    ->
    Metrics.incr m "decision.considered";
    Metrics.incr m (decision_metric decision);
    ledger "considered"
      [ ("decision", Trace.Str (Reopt_policy.decision_to_string decision));
        ("t_improved_ms", Trace.Float t_improved);
        ("t_optimizer_ms", Trace.Float t_optimizer);
        ("t_opt_estimated_ms", Trace.Float t_opt_estimated);
        ("forced_by_filter_surprise", Trace.Bool forced) ]
  | Ev_switched
      { t_new_total; t_improved; materialize_ms; plans_enumerated; opt_ms } ->
    Metrics.incr m "plan.switched";
    ledger "switched"
      [ ("t_new_total_ms", Trace.Float t_new_total);
        ("t_improved_ms", Trace.Float t_improved);
        ("materialize_ms", Trace.Float materialize_ms);
        ("plans_enumerated", Trace.Int plans_enumerated);
        ("t_opt_charged_ms", Trace.Float opt_ms) ]
  | Ev_rejected { t_new_total; t_improved; plans_enumerated; opt_ms } ->
    Metrics.incr m "plan.rejected";
    ledger "rejected"
      [ ("t_new_total_ms", Trace.Float t_new_total);
        ("t_improved_ms", Trace.Float t_improved);
        ("plans_enumerated", Trace.Int plans_enumerated);
        ("t_opt_charged_ms", Trace.Float opt_ms) ]
  | Ev_bound_check { new_hi_ms; cur_lo_ms; admitted } ->
    Metrics.incr m (if admitted then "bounds.admitted" else "bounds.vetoed");
    instant "bounds" "bound_check"
      [ ("new_hi_ms", Trace.Float new_hi_ms);
        ("cur_lo_ms", Trace.Float cur_lo_ms);
        ("admitted", Trace.Bool admitted) ]
  | Ev_sampled p ->
    Metrics.incr m "sampling.probes";
    instant "sampling" ("probe:" ^ p.Sampling.alias)
      [ ("sampled", Trace.Int p.Sampling.sampled);
        ("matched", Trace.Int p.Sampling.matched);
        ("observed_sel", Trace.Float p.Sampling.observed_selectivity);
        ("estimated_sel", Trace.Float p.Sampling.estimated_selectivity) ]
  | Ev_parallel { op; dop; want_pages; got_pages; max_worker_ms; avg_worker_ms }
    ->
    Metrics.incr m "parallel.ops";
    Metrics.observe m "parallel.max_worker_ms" max_worker_ms;
    if avg_worker_ms > 0.0 then
      Metrics.observe m "parallel.skew" (max_worker_ms /. avg_worker_ms);
    instant "parallel" ("exchange:" ^ op)
      [ ("dop", Trace.Int dop);
        ("want_pages", Trace.Int want_pages);
        ("got_pages", Trace.Int got_pages);
        ("max_worker_ms", Trace.Float max_worker_ms);
        ("avg_worker_ms", Trace.Float avg_worker_ms) ]
  | Ev_filter { source; target_col; est_sel; observed_sel; probed; dropped;
                pages } ->
    Metrics.incr m "filter.built";
    Metrics.observe m "filter.est_sel" est_sel;
    Metrics.observe m "filter.observed_sel" observed_sel;
    instant "filter" ("rf:" ^ target_col)
      [ ("source", Trace.Str source);
        ("est_sel", Trace.Float est_sel);
        ("observed_sel", Trace.Float observed_sel);
        ("probed", Trace.Int probed);
        ("dropped", Trace.Int dropped);
        ("pages", Trace.Int pages) ]

(* Spans: no-ops without an attached trace.  A token carries its scope. *)
let span_open st ?(ts_ms = now st) ~cat name =
  Option.map
    (fun scope -> (scope, Trace.open_span scope ~cat ~name ~ts_ms ()))
    st.cfg.trace

let span_close st ?(args = []) tok =
  Option.iter
    (fun (scope, tok) -> Trace.close_span scope ~args ~ts_ms:(now st) tok)
    tok

(* One span per parallel worker, each on its own lane, from [t_start]. *)
let worker_spans st ~op ~t_start sims walls =
  Option.iter
    (fun scope ->
       Array.iteri
         (fun i sim_ms ->
            let lane = Trace.worker_lane scope i in
            let tok =
              Trace.open_span lane ~cat:"worker" ~name:op ~ts_ms:t_start ()
            in
            Trace.close_span lane ~ts_ms:(t_start +. sim_ms) tok
              ~args:
                [ ("sim_ms", Trace.Float sim_ms);
                  ("wall_ms", Trace.Float walls.(i)) ])
         sims)
    st.cfg.trace

(* The sanitizer's checks.  A plan re-verification counts toward the
   report's [verifications]; it is pure analysis of the plan against the
   catalog, the live memory budget and the mu collector bound. *)
let verify_plan st ~what plan =
  st.verifications <- st.verifications + 1;
  ignore
    (Verifier.check_exn ~what
       (Verifier.context ~budget_pages:(Memory_manager.budget_pages st.memman)
          ~mu:st.cfg.params.Reopt_policy.mu st.cfg.catalog)
       plan)

(* RF-LIFETIME and PAR-LIFETIME: bitmap pages and worker pool slices must
   both be back to zero whenever execution is observable from outside a
   unit. *)
let assert_filters_retired st ~what =
  let check (t : transient) ~pass ~code ~hint pages =
    if t.held <> 0 then
      raise
        (Verifier.Rejected
           { what;
             diags =
               [ Diagnostic.error ~pass ~code ~hint ~node_id:st.current.Plan.id
                   ~path:[ Plan.op_name st.current ]
                   (Printf.sprintf "%d %s still leased at a decision point"
                      t.held pages) ] })
  in
  check st.filter_pages ~pass:"resource" ~code:"RF-LIFETIME"
    ~hint:"runtime filters must retire within their unit" "bloom-bitmap pages";
  check st.worker_pages ~pass:"parallel" ~code:"PAR-LIFETIME"
    ~hint:"worker pool slices must release within their operator"
    "worker pool-slice pages"

(* BND-OBSERVED, the dynamic half of the bounds pass: every cardinality
   the executor just observed must lie inside its provable interval.  The
   analysis claims soundness, so any violation is a hard error.
   [subtree] limits the check to the nodes that actually ran — after a
   plan switch, retired node ids may collide with renumbered ones.  The
   catalog must still hold the run's temps: [Materialized] leaves are
   bounded by them. *)
let assert_observed_bounds st ~what subtree =
  let a = Bounds.analyze (Bounds.env st.cfg.catalog) st.current in
  let diags =
    List.filter_map
      (fun (n : Plan.t) ->
         match
           (Hashtbl.find_opt st.actuals n.Plan.id, Bounds.rows a n.Plan.id)
         with
         | Some obs, Some iv
           when not (Bounds.contains iv (float_of_int obs)) ->
           Some
             (Diagnostic.error ~pass:"bounds" ~code:"BND-OBSERVED"
                ~hint:
                  "a statistic the analysis trusted is wrong, or the \
                   analysis itself is unsound"
                ~node_id:n.Plan.id
                ~path:[ Plan.op_name n ]
                (Printf.sprintf
                   "%s produced %d rows, outside its provable interval %s"
                   (Plan.op_name n) obs
                   (Fmt.str "%a" Bounds.pp_interval iv)))
         | _ -> None)
      (Plan.nodes subtree)
  in
  if diags <> [] then raise (Verifier.Rejected { what; diags })

type point =
  | Started  (** the initial plan is ready; nothing has executed *)
  | Event of event  (** just recorded by {!emit} *)
  | Unit_done of Plan.t  (** the executed subtree, still in [current] *)
  | Decision_opened  (** before the decision point's first entry *)
  | Switched  (** [current] is the switched-to remainder *)
  | Verdict_applied  (** the decision point is over *)
  | Completed of report  (** the run's temps are still in the catalog *)
  | Aborted of string option  (** torn down; the error, if one raised *)

let observe st point =
  let trace f = Option.iter f st.cfg.trace in
  (* a progress sample: the remainder's Eq.1 estimate and its provable
     remaining-cost interval *)
  let progress label =
    Option.iter
      (fun p ->
         let iv =
           Bounds.cost_interval (Bounds.env st.cfg.catalog)
             ~max_dop:st.cfg.opt_options.Optimizer.max_dop st.current
         in
         ignore
           (Progress.update p ~label ~now_ms:(now st)
              ~remaining_est_ms:st.current.Plan.est.Plan.total_ms
              ~remaining_lo_ms:iv.Bounds.lo ~remaining_hi_ms:iv.Bounds.hi))
      st.cfg.progress
  in
  let sanitize = st.cfg.sanitize in
  match point with
  | Started ->
    (* the query span covers everything, optimization included *)
    trace (fun scope ->
        let name = "query:" ^ Trace.scope_label scope in
        st.q_span <- span_open st ~ts_ms:0.0 ~cat:"query" name);
    (* refuse to execute a plan that fails static analysis; poison
       released scratch, so a leaf that outlives its step fails *)
    if sanitize then begin
      Exec_ctx.poison st.ctx;
      verify_plan st ~what:"initial plan" st.current
    end;
    progress Progress.Start
  | Event ev -> trace (fun scope -> trace_event st scope ~ts:(now st) ev)
  | Unit_done j ->
    if sanitize then assert_observed_bounds st ~what:"executed unit" j
  | Decision_opened ->
    trace (fun scope ->
        ignore (Trace.new_decision_point scope);
        Metrics.incr (Trace.scope_metrics scope) "decision_points")
  | Switched ->
    if sanitize then verify_plan st ~what:"switched plan" st.current;
    progress Progress.Switch
  | Verdict_applied ->
    if sanitize then begin
      assert_filters_retired st ~what:"decision point";
      verify_plan st ~what:"remainder plan at decision point" st.current
    end;
    progress Progress.Decision
  | Completed rep ->
    if sanitize then begin
      assert_filters_retired st ~what:"query completion";
      assert_observed_bounds st ~what:"query completion" st.current
    end;
    span_close st st.q_span
      ~args:
        [ ("rows", Trace.Int (Array.length rep.rows));
          ("switches", Trace.Int rep.switches);
          ("collectors", Trace.Int rep.collectors);
          ("collector_ms", Trace.Float rep.collector_ms);
          ("pool_hits", Trace.Int rep.pool_hits);
          ("pool_misses", Trace.Int rep.pool_misses) ];
    trace (fun scope ->
        let m = Trace.scope_metrics scope in
        Metrics.incr m "queries";
        Metrics.incr m ~by:rep.collectors "collectors";
        Metrics.incr m ~by:rep.pool_hits "buffer_pool.hits";
        Metrics.incr m ~by:rep.pool_misses "buffer_pool.misses";
        let th = Metrics.counter m "buffer_pool.hits" in
        let tm = Metrics.counter m "buffer_pool.misses" in
        if th + tm > 0 then
          Metrics.set_gauge m "buffer_pool.hit_ratio"
            (float_of_int th /. float_of_int (th + tm));
        Metrics.observe m "query.elapsed_ms" rep.elapsed_ms;
        Metrics.observe m "query.collector_ms" rep.collector_ms);
    Option.iter
      (fun p -> ignore (Progress.finish p ~now_ms:rep.elapsed_ms))
      st.cfg.progress
  | Aborted error ->
    (* close every open span: the trace stays a well-formed forest *)
    trace (fun scope ->
        Trace.unwind scope ~ts_ms:(now st) ()
          ~args:
            (("aborted", Trace.Bool true)
             :: Option.fold error ~none:[]
                  ~some:(fun m -> [ ("error", Trace.Str m) ])))

(* Record an event: the run's one record of what happened, then its
   observers. *)
let emit st ev =
  st.events <- (now st, ev) :: st.events;
  observe st (Event ev)

(* ------------------------------------------------------------------ *)
(* Executing plan nodes.                                               *)

let heap_of st table = (Catalog.find_exn st.cfg.catalog table).Catalog.heap

let index_of (tbl : Catalog.table) col =
  match Catalog.find_index tbl ~column:(snd (Schema.split_ref col)) with
  | Some ix -> Catalog.index_tree tbl ix
  | None -> invalid_arg ("Interp: missing index on " ^ col)

(* --- transient page leases (runtime filters, parallel workers) ----- *)

(* Bloom bitmaps and parallel workers' buffer-pool slices are both
   transient working memory: leased from the broker on top of the
   remaining plan's demand while a unit runs, always back to zero at
   decision points and at query completion.  The broker sees one combined
   figure (filter pages + worker pages) so concurrent queries are charged
   for everything a unit really holds; without a broker each kind has its
   own cap ([no_broker_cap], checked against that kind's own holdings):
   a quarter of the budget for bitmaps, and the query's own pool for
   worker slices, which then merely subdivide it. *)
let transient_held st = st.filter_pages.held + st.worker_pages.held

(* Lease the remaining plan's demand plus [extra] pages from the broker;
   returns the pages granted and the plan's hard minimum. *)
let lease_plan st lease ~extra =
  let min_d, max_d = Memory_manager.plan_demand st.current in
  (lease ~min_pages:(min_d + extra) ~max_pages:(max_d + extra), min_d)

let acquire_pages st (kind : transient) ~no_broker_cap want =
  let got =
    if want <= 0 then 0
    else
      match st.cfg.broker with
      | None -> min want (max 0 (max 1 no_broker_cap - kind.held))
      | Some lease ->
        let held = transient_held st in
        let tentative = held + want in
        let budget, min_d = lease_plan st lease ~extra:tentative in
        (* pages the lease grants beyond the plan's hard minimum are
           available to transient consumers *)
        let covered = max 0 (budget - min_d) in
        let shortfall = max 0 (tentative - covered) in
        let got = max 0 (want - shortfall) in
        if got < want then
          (* shrink the lease back to what we actually hold *)
          ignore (lease_plan st lease ~extra:(held + got));
        got
  in
  kind.held <- kind.held + got;
  kind.peak <- max kind.peak kind.held;
  got

let release_pages st (kind : transient) n =
  if n > 0 then begin
    kind.held <- max 0 (kind.held - n);
    match st.cfg.broker with
    | None -> ()
    | Some lease -> ignore (lease_plan st lease ~extra:(transient_held st))
  end

(* Workers finishing more than this factor above the mean signal a skewed
   partitioning: the next decision point is forced past Eq. 2 so
   re-costing (with the now-better statistics) can re-pick degrees. *)
let skew_factor = 2.0

(* Run one operator at its plan degree.  At degree 1 (or below, which
   PAR-DOP rejects) [f] runs the serial operator in place: no lease, no
   worker span, no exchange event.  Above
   it, lease the workers' pool slices (clamped to what the broker grants —
   over-commit surfaces as a smaller slice, not an abort), stamp each
   worker's span onto its own trace lane, emit the exchange event, and
   flag skew.  [f] receives the degree, the per-worker slice, and the
   completion callback to pass through to [Parallel]. *)
let with_workers st (p : Plan.t) f =
  let dop = p.Plan.dop in
  if dop <= 1 then f ~degree:1 ~slice_pages:None ~on_worker:None
  else begin
    let op = Plan.op_name p in
    let want = dop * max 1 (st.cfg.pool_pages / dop) in
    let got =
      acquire_pages st st.worker_pages ~no_broker_cap:st.cfg.pool_pages want
    in
    let slice = max 1 (got / dop) in
    let sims = Array.make dop 0.0 in
    let walls = Array.make dop 0.0 in
    let t_start = now st in
    let on_worker i ~sim_ms ~wall_ms =
      sims.(i) <- sim_ms;
      walls.(i) <- wall_ms
    in
    Fun.protect
      ~finally:(fun () -> release_pages st st.worker_pages got)
      (fun () ->
         let result =
           f ~degree:dop ~slice_pages:(Some slice) ~on_worker:(Some on_worker)
         in
         worker_spans st ~op ~t_start sims walls;
         let max_ms = Array.fold_left Float.max 0.0 sims in
         let avg_ms = Array.fold_left ( +. ) 0.0 sims /. float_of_int dop in
         if avg_ms > 0.0 && max_ms /. avg_ms > skew_factor then
           st.skew_surprise <- true;
         emit st
           (Ev_parallel
              { op; dop; want_pages = want; got_pages = got;
                max_worker_ms = max_ms; avg_worker_ms = avg_ms });
         result)
  end

(* Build one filter per annotation from the finished build/left side and
   push it onto the active stack.  An annotation whose build column is
   missing from the delivered schema (projected away) is skipped. *)
let install_filters st ~source ~rf ~rows ~schema =
  let tok =
    if rf = [] then None else span_open st ~cat:"filter" "rf-build"
  in
  let installed =
    List.filter_map
      (fun (f : Plan.rf) ->
         match Schema.index_of schema f.Plan.rf_build_col with
         | exception (Not_found | Schema.Ambiguous _) -> None
         | key_idx ->
           let want = Runtime_filter.pages_for ~keys:(Array.length rows) in
           let got =
             acquire_pages st st.filter_pages
               ~no_broker_cap:(st.cfg.budget_pages / 4) want
           in
           let flt =
             Runtime_filter.create st.ctx ~source
               ~build_col:f.Plan.rf_build_col ~target_col:f.Plan.rf_probe_col
               ~est_sel:f.Plan.rf_sel ~max_pages:got ~key_idx rows
           in
           st.active_filters <- flt :: st.active_filters;
           Some (flt, got))
      rf
  in
  if rf <> [] then
    span_close st tok
      ~args:
        [ ("source", Trace.Str source);
          ("filters", Trace.Int (List.length installed));
          ("keys", Trace.Int (Array.length rows));
          ("pages",
           Trace.Int (List.fold_left (fun a (_, p) -> a + p) 0 installed)) ];
  installed

(* Pop the filters once the probe side has run: report the observed pass
   rate (feeding the re-optimization policy) and return the leased
   pages. *)
let retire_filters st installed =
  List.iter
    (fun ((flt : Runtime_filter.t), pages) ->
       st.active_filters <- List.filter (fun g -> g != flt) st.active_filters;
       let est = Runtime_filter.est_sel flt in
       let obs = Runtime_filter.observed_sel flt in
       emit st
         (Ev_filter
            { source = Runtime_filter.source flt;
              target_col = Runtime_filter.target_col flt;
              est_sel = est;
              observed_sel = obs;
              probed = Runtime_filter.probed flt;
              dropped = Runtime_filter.dropped flt;
              pages });
       if Runtime_filter.probed flt > 0
       && Reopt_policy.filter_surprise ~est ~obs
       then st.filter_surprise <- true;
       release_pages st st.filter_pages pages)
    installed

(* A filter that has seen a fair sample of probes and passed nearly all of
   them prunes nothing: testing further rows is pure overhead.  Such
   filters are retired early — dropped from the active stack so scans stop
   consulting them, while the publishing join still releases their pages
   and reports them at the usual retire point. *)
let rf_useless_sel = 0.9
let rf_useless_min_probed = 256

let drop_useless_filters st =
  match st.active_filters with
  | [] -> ()
  | filters ->
    st.active_filters <-
      List.filter
        (fun flt ->
           not
             (Runtime_filter.probed flt >= rf_useless_min_probed
              && Runtime_filter.observed_sel flt >= rf_useless_sel))
        filters

(* Test rows flowing out of a leaf against every active filter whose
   target column the schema carries: the leaf itself, rows not gathered,
   when there is none, and when none drops a row. *)
let apply_runtime_filters st schema leaf =
  drop_useless_filters st;
  match
    List.filter_map
      (fun flt ->
         Option.map (fun idx -> (flt, idx)) (Runtime_filter.applicable flt schema))
      st.active_filters
  with
  | [] -> leaf
  | filters ->
    let t0 = Sim_clock.snapshot st.ctx.Exec_ctx.clock in
    let rows =
      List.fold_left
        (fun rows (flt, idx) -> Runtime_filter.apply st.ctx flt ~idx rows)
        (Leaf.rows leaf) filters
    in
    st.filter_probe_ms <-
      st.filter_probe_ms +. Sim_clock.since st.ctx.Exec_ctx.clock t0;
    if Array.length rows = Leaf.length leaf then leaf else Leaf.of_rows rows

(* A node's rows, with their codes when they are a scan's, passed on by
   filters and collectors. *)
let rec exec_node st (p : Plan.t) : Leaf.t * Schema.t =
  let tok = span_open st ~cat:"operator" (Plan.op_name p) in
  let t0 = Sim_clock.snapshot st.ctx.Exec_ctx.clock in
  let leaf, schema = exec_node_inner st p in
  let rows = Leaf.length leaf in
  let total = Sim_clock.since st.ctx.Exec_ctx.clock t0 in
  let children_ms =
    List.fold_left
      (fun acc (c : Plan.t) ->
         acc +. Option.value ~default:0.0 (Hashtbl.find_opt st.actual_ms c.Plan.id))
      0.0 (Plan.children p)
  in
  let self_ms = Float.max 0.0 (total -. children_ms) in
  Hashtbl.replace st.actual_ms p.Plan.id self_ms;
  Hashtbl.replace st.actuals p.Plan.id rows;
  span_close st tok
    ~args:
      [ ("id", Trace.Int p.Plan.id);
        ("est_rows", Trace.Float p.Plan.est.Plan.rows);
        ("rows", Trace.Int rows);
        ("self_ms", Trace.Float self_ms) ];
  (leaf, schema)

and exec_node_inner st (p : Plan.t) : Leaf.t * Schema.t =
  let ctx = st.ctx in
  let mem_pages = if p.Plan.mem > 0 then p.Plan.mem else p.Plan.max_mem in
  (* a scan's rows pass its own predicate, then the runtime filters *)
  let scanned filter leaf =
    let leaf =
      match filter with
      | None -> leaf
      | Some pred -> Leaf.filter ctx p.Plan.schema pred leaf
    in
    (apply_runtime_filters st p.Plan.schema leaf, p.Plan.schema)
  in
  (* an input's rows and schema, for an operator whose output has no codes *)
  let rows_of p =
    let leaf, schema = exec_node st p in
    (Leaf.rows leaf, schema)
  in
  (* a join whose [first] input publishes runtime filters to [second],
     whose leaf it returns *)
  let publishing ~rf first second =
    let ((rows, schema) as first) = rows_of first in
    let installed =
      install_filters st ~source:(Plan.op_name p) ~rf ~rows ~schema
    in
    let second = exec_node st second in
    retire_filters st installed;
    (first, second)
  in
  let uncoded (rows, schema) = (Leaf.of_rows rows, schema) in
  match p.Plan.node with
  | Plan.Seq_scan { table; alias = _; filter } ->
    let heap = heap_of st table in
    scanned filter
      (with_workers st p (fun ~degree ~slice_pages ~on_worker ->
           Parallel.scan ctx ~degree ?slice_pages ?on_worker heap))
  | Plan.Index_scan { table; alias = _; index_col; lo; hi; filter } ->
    let tbl = Catalog.find_exn st.cfg.catalog table in
    scanned filter
      (Leaf.index_scan ctx tbl.Catalog.heap (index_of tbl index_col) ?lo ?hi ())
  | Plan.Materialized { name; _ } ->
    (* the temp table's rows, read in place: no I/O, no copy *)
    let heap = heap_of st name in
    let schema = Heap_file.schema heap in
    (apply_runtime_filters st schema (Leaf.of_rows (Heap_file.rows heap)), schema)
  | Plan.Collect { input; spec; cid } ->
    (* Collectors must observe the raw stream: statistics (and the exact
       cardinality of a full scan) describe the relation, not what happens
       to survive a runtime filter pushed down by the join above.  So the
       filters are lifted over the collector and applied to its output. *)
    let saved = st.active_filters in
    st.active_filters <- [];
    let leaf, schema = exec_node st input in
    st.active_filters <- saved;
    let rows = Leaf.length leaf in
    (* an unfiltered full scan yields the relation's exact cardinality —
       a statistic worth keeping beyond the query (Section 2.6) *)
    let full_scan =
      match input.Plan.node with
      | Plan.Seq_scan { table; alias; filter = None } ->
        st.observed_cards <-
          (alias, rows)
          :: List.remove_assoc alias st.observed_cards;
        Some (Catalog.find_exn st.cfg.catalog table)
      | _ -> None
    in
    let ctok =
      span_open st ~cat:"collector" (Printf.sprintf "collect#%d" cid)
    in
    let c0 = Sim_clock.snapshot ctx.Exec_ctx.clock in
    (* over a base table's full scan, the statistics depend only on the
       table's rows: its columns' summaries are computed once per heap
       generation and reused, at the same charge *)
    let collected =
      match full_scan with
      | Some tbl when not tbl.Catalog.temp ->
        Collector.collect_table ctx schema spec tbl
      | _ -> Collector.collect ctx schema spec leaf
    in
    let collect_ms = Sim_clock.since ctx.Exec_ctx.clock c0 in
    st.collector_ms <- st.collector_ms +. collect_ms;
    span_close st ctok
      ~args:
        [ ("rows", Trace.Int rows);
          ("collect_ms", Trace.Float collect_ms) ];
    List.iter
      (fun (column, stats) ->
         st.overrides <- (column, stats) :: List.remove_assoc column st.overrides;
         Stats_env.override st.env ~column stats)
      collected;
    let alias =
      match input.Plan.node with
      | Plan.Seq_scan { alias; _ } | Plan.Index_scan { alias; _ } -> alias
      | _ -> Plan.op_name input
    in
    emit st (Ev_collected { cid; alias; columns = List.map fst collected });
    (apply_runtime_filters st schema leaf, schema)
  | Plan.Hash_join { build; probe; keys; extra; rf } ->
    let (build_rows, build_schema), (probe, probe_schema) =
      publishing ~rf build probe
    in
    uncoded
      (with_workers st p (fun ~degree ~slice_pages ~on_worker ->
           Parallel.hash_join ctx ~degree ?slice_pages ?on_worker ~mem_pages
             ~build:(build_rows, build_schema)
             ~probe:(probe, probe_schema) ~keys ?extra ()))
  | Plan.Index_nl_join
      { outer; table; alias; outer_col = oc; inner_col; inner_filter; extra } ->
    let outer_rows, outer_schema = rows_of outer in
    let tbl = Catalog.find_exn st.cfg.catalog table in
    let inner_schema = Schema.qualify (Heap_file.schema tbl.Catalog.heap) alias in
    let residual =
      match List.filter_map Fun.id [ inner_filter; extra ] with
      | [] -> None
      | l -> Some (Expr.conjoin l)
    in
    let r =
      Join.index_nl_join ctx ~outer:(outer_rows, outer_schema)
        ~inner_heap:tbl.Catalog.heap ~inner_schema
        ~inner_index:(index_of tbl inner_col)
        ~outer_col:oc ?extra:residual ()
    in
    (Leaf.of_rows r.Join.rows, r.Join.schema)
  | Plan.Block_nl_join { outer; inner; pred } ->
    let outer_rows, outer_schema = rows_of outer in
    let inner_rows, inner_schema = rows_of inner in
    let r =
      Join.block_nl_join st.ctx ~mem_pages ~outer:(outer_rows, outer_schema)
        ~inner:(inner_rows, inner_schema) ?pred ()
    in
    (Leaf.of_rows r.Join.rows, r.Join.schema)
  | Plan.Merge_join { left; right; keys; extra; left_sorted; right_sorted; rf }
    ->
    let (left_rows, left_schema), (right, right_schema) =
      publishing ~rf left right
    in
    let r =
      Merge_join.merge_join ctx ~mem_pages ~left_sorted ~right_sorted
        ~left:(left_rows, left_schema) ~right:(Leaf.rows right, right_schema)
        ~keys ?extra ()
    in
    (Leaf.of_rows r.Merge_join.rows, r.Merge_join.schema)
  | Plan.Aggregate { input; group_by; aggs } ->
    let leaf, schema = exec_node st input in
    uncoded
      (with_workers st p (fun ~degree ~slice_pages ~on_worker ->
           Parallel.aggregate ctx ~degree ?slice_pages ?on_worker ~mem_pages
             schema ~group_by ~aggs leaf))
  | Plan.Sort { input; keys } ->
    let rows, schema = rows_of input in
    ( Leaf.of_rows
        (with_workers st p (fun ~degree ~slice_pages ~on_worker ->
             Parallel.sort ctx ~degree ?slice_pages ?on_worker ~mem_pages schema
               ~keys rows)),
      schema )
  | Plan.Filter { input; pred } ->
    let leaf, schema = exec_node st input in
    (Leaf.filter ctx schema pred leaf, schema)
  | Plan.Project { input; cols } ->
    let rows, schema = rows_of input in
    uncoded (Rows_ops.project ctx schema cols rows)
  | Plan.Limit { input; n } ->
    let rows, schema = rows_of input in
    (Leaf.of_rows (Rows_ops.limit ctx n rows), schema)

(* Grant memory to the current plan's consumers.  With a broker the budget
   is a lease re-negotiated on every call (shrunken demand after
   re-optimization hands pages back to the workload); without one it is
   the fixed per-query budget. *)
let allocate_memory st =
  (match st.cfg.broker with
   | None -> ()
   | Some lease ->
     let budget, _ = lease_plan st lease ~extra:0 in
     st.memman <- Memory_manager.create ~budget_pages:(max 1 budget));
  Memory_manager.allocate st.memman st.current

(* Register an executed unit's result as a temp table, the rows' only
   home from now on; returns its byte size. *)
let register_temp st ~read ~name ~rows ~schema =
  let table =
    Catalog.add_temp st.cfg.catalog name (Heap_file.of_rows schema rows)
  in
  (* Free statistics: exact cardinality, plus min/max (the paper's free
     statistics of an intermediate result) for the columns in [read], the
     query's read set (Query.read_columns): no reader of a temp's
     statistics asks about any other column.  A column that passed through
     an upstream collector inherits that collector's statistics instead;
     every other column's statistics stay empty.  The clock is charged the
     same whatever is computed. *)
  let names = List.map Schema.qualified_name (Schema.columns schema) in
  let fresh =
    List.filter
      (fun q -> List.mem q read && not (List.mem_assoc q st.overrides))
      names
  in
  Sim_clock.charge_cpu_ms st.ctx.Exec_ctx.clock
    (Collector.estimated_cost_ms (Collector.spec ())
       ~rows:(float_of_int (Array.length rows)));
  let ranges = Collector.ranges schema ~columns:fresh rows in
  table.Catalog.stats <-
    Array.of_list
      (List.map
         (fun q ->
            match List.assoc_opt q st.overrides with
            | Some stats -> stats
            | None ->
              Option.value (List.assoc_opt q ranges) ~default:Column_stats.empty)
         names);
  Rows_ops.bytes_of_rows rows
