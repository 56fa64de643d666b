open Mqr_storage
module Catalog = Mqr_catalog.Catalog
module Column_stats = Mqr_catalog.Column_stats
module Expr = Mqr_expr.Expr
module Query = Mqr_sql.Query
module Plan = Mqr_opt.Plan
module Optimizer = Mqr_opt.Optimizer
module Stats_env = Mqr_opt.Stats_env
module Cost_model = Mqr_opt.Cost_model
module Memory_manager = Mqr_memman.Memory_manager
module Exec_ctx = Mqr_exec.Exec_ctx
module Scan = Mqr_exec.Scan
module Rows_ops = Mqr_exec.Rows_ops
module Join = Mqr_exec.Join
module Sort_op = Mqr_exec.Sort
module Merge_join = Mqr_exec.Merge_join
module Aggregate = Mqr_exec.Aggregate
module Collector = Mqr_exec.Collector
module Runtime_filter = Mqr_exec.Runtime_filter
module Parallel = Mqr_exec.Parallel
module Verifier = Mqr_analysis.Verifier
module Diagnostic = Mqr_analysis.Diagnostic
module Bounds = Mqr_analysis.Bounds
module Trace = Mqr_obs.Trace
module Metrics = Mqr_obs.Metrics
module Progress = Mqr_obs.Progress

type mode = Off | Memory_only | Plan_only | Full | Bound_checked

let mode_to_string = function
  | Off -> "off"
  | Memory_only -> "memory-only"
  | Plan_only -> "plan-only"
  | Full -> "full"
  | Bound_checked -> "bound-checked"

type config = {
  catalog : Catalog.t;
  model : Sim_clock.model;
  pool_pages : int;
  budget_pages : int;
  params : Reopt_policy.params;
  opt_options : Optimizer.options;
  mode : mode;
  start_sampling : int option;
      (* probe uncertain local predicates with this many sampled rows
         before optimizing (hybrid parametric/dynamic strategy) *)
  broker : (min_pages:int -> max_pages:int -> int) option;
      (* when set, the memory budget is not fixed: every (re-)allocation
         asks the broker for a lease sized to the remaining plan's demand,
         so a workload manager can move pages between concurrent queries *)
  env_overlay : (Query.t -> Stats_env.t -> unit) option;
      (* applied to every freshly built estimation environment (initial
         optimization and mid-query re-optimizations) before the query's
         own observed statistics; a workload manager uses it to feed
         statistics observed by earlier queries into this one *)
  temp_prefix : string;
      (* disambiguates intermediate-result table names when several
         queries share one catalog (concurrent workloads) *)
  verify : Verifier.mode;
      (* static plan verification: [Pre] checks the instrumented plan
         before execution (errors refuse to execute), [Sanitize] also
         re-verifies the remainder at every decision point and after
         every mid-query plan switch *)
  trace : Trace.scope option;
      (* when set, the run stamps operator/unit/query spans, decision-point
         audit-ledger entries and metrics into the scope's parent trace;
         tracing is pure observation and never charges the simulated
         clock *)
  progress : Progress.t option;
      (* when set, the run records a progress/ETA sample at start, at
         every decision point, after every plan switch and on completion,
         built from the remainder's Eq.1 estimate and its provable
         remaining-cost interval; like tracing, progress is pure
         observation and never charges the simulated clock *)
}

type event =
  | Ev_unit_done of { op : string; est_rows : float; actual_rows : int }
  | Ev_collected of { cid : int; alias : string; columns : string list }
  | Ev_realloc of { grants : Memory_manager.grant list }
  | Ev_considered of {
      decision : Reopt_policy.decision;
      t_improved : float;
      t_optimizer : float;
      t_opt_estimated : float;
      forced : bool;  (* a runtime-filter or skew surprise overrode Eq. 2 *)
    }
  | Ev_switched of {
      t_new_total : float;
      t_improved : float;
      materialize_ms : float;
    }
  | Ev_rejected of { t_new_total : float; t_improved : float }
  | Ev_bound_check of {
      new_hi_ms : float;  (* candidate's provable worst-case remaining cost *)
      cur_lo_ms : float;  (* current plan's provable best-case remaining cost *)
      admitted : bool;    (* worst case provably beats best case? *)
    }
  | Ev_sampled of Sampling.probe
  | Ev_parallel of {
      op : string;           (* operator run with an exchange *)
      dop : int;             (* plan degree of parallelism *)
      want_pages : int;      (* pool-page slices requested for workers *)
      got_pages : int;       (* slices actually leased (shortfall visible) *)
      max_worker_ms : float; (* slowest worker's simulated time (charged) *)
      avg_worker_ms : float; (* mean worker simulated time (skew signal) *)
    }
  | Ev_filter of {
      source : string;      (* publishing join *)
      target_col : string;  (* probe-side column being pruned *)
      est_sel : float;
      observed_sel : float;
      probed : int;
      dropped : int;
      pages : int;          (* bloom bitmap pages leased *)
    }

type report = {
  rows : Tuple.t array;
  result_schema : Schema.t;
  elapsed_ms : float;
  counters : Sim_clock.counters;
  timed_events : (float * event) list;
      (* every event with the Sim_clock time at which it was emitted, in
         emission order *)
  switches : int;
  collectors : int;
  initial_plan : Plan.t;
  final_plan : Plan.t;
  actual_rows : (int * int) list;
      (* (plan node id, observed output rows) for every executed node *)
  actual_ms : (int * float) list;
      (* (plan node id, simulated ms spent in that node alone) *)
  pool_hits : int;
  pool_misses : int;
  observed_stats : (string * Column_stats.t) list;
      (* qualified column -> statistics gathered by this query's
         collectors; outlives the query (paper Section 2.6) *)
  observed_cards : (string * int) list;
      (* alias -> exact cardinality, for relations scanned in full *)
  filters : (string * float * float) list;
      (* (probe column, estimated selectivity, observed selectivity) for
         every runtime filter built, in build order *)
  filter_pages_peak : int;
      (* most bloom-bitmap pages held at once (leased from the broker when
         one is configured) *)
  filter_pages_held : int;
      (* bloom-bitmap pages still held at completion; 0 is the lifetime
         invariant the sanitizer asserts *)
  worker_pages_peak : int;
      (* most pool-page slices leased to parallel workers at once *)
  worker_pages_held : int;
      (* worker slices still held at completion; 0 is the lease invariant
         the sanitizer asserts (same discipline as filter pages) *)
  collector_ms : float;
      (* simulated CPU spent inside statistics collectors *)
  verifications : int;
      (* plan-verification runs performed (0 when verify = Off) *)
}

(* ------------------------------------------------------------------ *)
(* Run state.                                                          *)

(* Pages one kind of transient consumer (bloom bitmaps, parallel workers'
   pool slices) holds right now, and its high-water mark. *)
type transient = { mutable held : int; mutable peak : int }

(* An intermediate result registered as a temp table.  Its byte size is
   computed once, at registration: the leaf width, the materialization
   charge and the on-disk re-read all read it. *)
type temp = {
  tmp_rows : Tuple.t array;
  tmp_schema : Schema.t;
  tmp_bytes : int;
}

type state = {
  cfg : config;
  ctx : Exec_ctx.t;
  mutable memman : Memory_manager.t;
  query : Query.t;
  mutable env : Stats_env.t;
  mutable current : Plan.t;
  (* original optimizer estimates per node id — the plan annotations *)
  orig_op_ms : (int, float) Hashtbl.t;
  (* in-memory intermediate results by temp-table name *)
  store : (string, temp) Hashtbl.t;
  (* observed column statistics, re-applied to every new Stats_env *)
  mutable overrides : (string * Column_stats.t) list;
  mutable temp_names : string list;
  (* alias -> exact cardinality for full (unfiltered) scans *)
  mutable observed_cards : (string * int) list;
  (* (emission time, event), newest first: the run's only record of what
     happened, from which the report and the audit ledger are derived *)
  mutable events : (float * event) list;
  mutable switches : int;
  mutable next_temp : int;
  mutable next_id : int;  (* fresh plan-node ids *)
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
  (* plan-verification runs performed *)
  mutable verifications : int;
  (* simulated milliseconds runtime filters spent testing probe rows *)
  mutable filter_probe_ms : float;
}

let pp_event fmt = function
  | Ev_unit_done { op; est_rows; actual_rows } ->
    Fmt.pf fmt "unit done: %s (estimated %.0f rows, actual %d)" op est_rows
      actual_rows
  | Ev_collected { cid; alias; columns } ->
    Fmt.pf fmt "collected #%d at %s: %s" cid alias (String.concat ", " columns)
  | Ev_realloc { grants } ->
    Fmt.pf fmt "memory re-allocated: %a"
      (Fmt.list ~sep:Fmt.comma Memory_manager.pp_grant)
      grants
  | Ev_considered { decision; t_improved; t_optimizer; t_opt_estimated; _ } ->
    Fmt.pf fmt
      "re-optimization %s (T_improved=%.1fms T_optimizer=%.1fms T_opt,est=%.1fms)"
      (Reopt_policy.decision_to_string decision)
      t_improved t_optimizer t_opt_estimated
  | Ev_switched { t_new_total; t_improved; materialize_ms } ->
    Fmt.pf fmt
      "plan switched: T_new=%.1fms < T_improved=%.1fms (materialize %.1fms)"
      t_new_total t_improved materialize_ms
  | Ev_rejected { t_new_total; t_improved } ->
    Fmt.pf fmt "new plan rejected: T_new=%.1fms >= T_improved=%.1fms"
      t_new_total t_improved
  | Ev_bound_check { new_hi_ms; cur_lo_ms; admitted } ->
    Fmt.pf fmt "bound check: new_hi=%.1fms %s cur_lo=%.1fms (%s)" new_hi_ms
      (if admitted then "<" else ">=")
      cur_lo_ms
      (if admitted then "admitted" else "vetoed")
  | Ev_sampled probe -> Sampling.pp_probe fmt probe
  | Ev_parallel { op; dop; want_pages; got_pages; max_worker_ms; avg_worker_ms }
    ->
    Fmt.pf fmt
      "parallel %s: dop=%d slices=%d/%d pages, workers max=%.1fms avg=%.1fms"
      op dop got_pages want_pages max_worker_ms avg_worker_ms
  | Ev_filter
      { source; target_col; est_sel; observed_sel; probed; dropped; pages } ->
    Fmt.pf fmt
      "runtime filter from %s on %s: sel est=%.3f observed=%.3f (dropped \
       %d/%d, %d pages)"
      source target_col est_sel observed_sel dropped probed pages

(* ------------------------------------------------------------------ *)
(* Observability: translate dispatcher events into audit-ledger entries,
   metrics and trace instants.  Pure observation — nothing here charges
   the simulated clock.                                                *)

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
let ledger_entry st scope ~ts ~kind args =
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

let trace_event st scope ~ts ev =
  let m = Trace.scope_metrics scope in
  match ev with
  | Ev_unit_done _ -> ()
  | Ev_collected { cid; alias; columns } ->
    Metrics.incr m "collector.collections";
    Trace.instant scope ~cat:"collector"
      ~name:(Printf.sprintf "collected#%d" cid)
      ~args:
        [ ("alias", Trace.Str alias);
          ("columns", Trace.Str (String.concat "," columns)) ]
      ~ts_ms:ts ()
  | Ev_realloc { grants } ->
    Metrics.incr m "decision.realloc";
    ledger_entry st scope ~ts ~kind:"realloc"
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
    ledger_entry st scope ~ts ~kind:"considered"
      [ ("decision", Trace.Str (Reopt_policy.decision_to_string decision));
        ("t_improved_ms", Trace.Float t_improved);
        ("t_optimizer_ms", Trace.Float t_optimizer);
        ("t_opt_estimated_ms", Trace.Float t_opt_estimated);
        ("forced_by_filter_surprise", Trace.Bool forced) ]
  | Ev_switched { t_new_total; t_improved; materialize_ms } ->
    Metrics.incr m "plan.switched";
    ledger_entry st scope ~ts ~kind:"switched"
      [ ("t_new_total_ms", Trace.Float t_new_total);
        ("t_improved_ms", Trace.Float t_improved);
        ("materialize_ms", Trace.Float materialize_ms) ]
  | Ev_rejected { t_new_total; t_improved } ->
    Metrics.incr m "plan.rejected";
    ledger_entry st scope ~ts ~kind:"rejected"
      [ ("t_new_total_ms", Trace.Float t_new_total);
        ("t_improved_ms", Trace.Float t_improved) ]
  | Ev_bound_check { new_hi_ms; cur_lo_ms; admitted } ->
    Metrics.incr m
      (if admitted then "bounds.admitted" else "bounds.vetoed");
    Trace.instant scope ~cat:"bounds" ~name:"bound_check"
      ~args:
        [ ("new_hi_ms", Trace.Float new_hi_ms);
          ("cur_lo_ms", Trace.Float cur_lo_ms);
          ("admitted", Trace.Bool admitted) ]
      ~ts_ms:ts ()
  | Ev_sampled p ->
    Metrics.incr m "sampling.probes";
    Trace.instant scope ~cat:"sampling" ~name:("probe:" ^ p.Sampling.alias)
      ~args:
        [ ("sampled", Trace.Int p.Sampling.sampled);
          ("matched", Trace.Int p.Sampling.matched);
          ("observed_sel", Trace.Float p.Sampling.observed_selectivity);
          ("estimated_sel", Trace.Float p.Sampling.estimated_selectivity) ]
      ~ts_ms:ts ()
  | Ev_parallel { op; dop; want_pages; got_pages; max_worker_ms; avg_worker_ms }
    ->
    Metrics.incr m "parallel.ops";
    Metrics.observe m "parallel.max_worker_ms" max_worker_ms;
    if avg_worker_ms > 0.0 then
      Metrics.observe m "parallel.skew" (max_worker_ms /. avg_worker_ms);
    Trace.instant scope ~cat:"parallel" ~name:("exchange:" ^ op)
      ~args:
        [ ("dop", Trace.Int dop);
          ("want_pages", Trace.Int want_pages);
          ("got_pages", Trace.Int got_pages);
          ("max_worker_ms", Trace.Float max_worker_ms);
          ("avg_worker_ms", Trace.Float avg_worker_ms) ]
      ~ts_ms:ts ()
  | Ev_filter { source; target_col; est_sel; observed_sel; probed; dropped;
                pages } ->
    Metrics.incr m "filter.built";
    Metrics.observe m "filter.est_sel" est_sel;
    Metrics.observe m "filter.observed_sel" observed_sel;
    Trace.instant scope ~cat:"filter" ~name:("rf:" ^ target_col)
      ~args:
        [ ("source", Trace.Str source);
          ("est_sel", Trace.Float est_sel);
          ("observed_sel", Trace.Float observed_sel);
          ("probed", Trace.Int probed);
          ("dropped", Trace.Int dropped);
          ("pages", Trace.Int pages) ]
      ~ts_ms:ts ()

let emit st ev =
  let ts = now st in
  st.events <- (ts, ev) :: st.events;
  Option.iter (fun scope -> trace_event st scope ~ts ev) st.cfg.trace

(* Span helpers: no-ops without an attached trace. *)
let span_open st ~cat name =
  match st.cfg.trace with
  | None -> None
  | Some scope -> Some (Trace.open_span scope ~cat ~name ~ts_ms:(now st) ())

let span_close st ?(args = []) tok =
  match st.cfg.trace, tok with
  | Some scope, Some tok -> Trace.close_span scope ~args ~ts_ms:(now st) tok
  | _ -> ()

let fresh_plan_id st =
  st.next_id <- st.next_id + 1;
  st.next_id

let fresh_temp_name st =
  st.next_temp <- st.next_temp + 1;
  Printf.sprintf "__temp%s_%d" st.cfg.temp_prefix st.next_temp

let record_annotations st plan =
  List.iter
    (fun (n : Plan.t) ->
       Hashtbl.replace st.orig_op_ms n.Plan.id n.Plan.est.Plan.op_ms)
    (Plan.nodes plan)

let apply_overrides st env =
  List.iter
    (fun (column, stats) -> Stats_env.override env ~column stats)
    st.overrides

(* Re-annotate [plan] under [env] with the configured planning memory,
   degree cap and cost model. *)
let recost cfg env plan =
  Optimizer.recost ~planning_mem:cfg.opt_options.Optimizer.planning_mem_pages
    ~max_dop:cfg.opt_options.Optimizer.max_dop ~model:cfg.model ~env plan

(* Insert statistics collectors (SCIA) and re-cost: the instrumentation
   of an initial plan and of every switched-to remainder.  Returns the
   plan and the number of collectors kept. *)
let instrument cfg env plan =
  let scia = Scia.insert ~mu:cfg.params.Reopt_policy.mu ~env plan in
  (recost cfg env scia.Scia.plan, List.length scia.Scia.kept)

(* ------------------------------------------------------------------ *)
(* Plan verification (static analysis; see Mqr_analysis.Verifier).     *)

(* The dispatcher's answers to the verifier's questions: the temp-table
   store (so a re-planned remainder is checked against what was actually
   materialized), the live memory budget, and the mu collector bound. *)
let verifier_context st =
  Verifier.context
    ~temp_schema:(fun name ->
        Option.map (fun t -> t.tmp_schema) (Hashtbl.find_opt st.store name))
    ~budget_pages:(Memory_manager.budget_pages st.memman)
    ~mu:st.cfg.params.Reopt_policy.mu st.cfg.catalog

(* Verification is pure analysis: it never touches the simulated clock,
   so turning the sanitizer on cannot change a query's elapsed time. *)
let verify_plan st ~what plan =
  if st.cfg.verify <> Verifier.Off then begin
    st.verifications <- st.verifications + 1;
    ignore (Verifier.check_exn ~what (verifier_context st) plan)
  end

(* The sanitizer's dynamic half of the transient-lease lifetime passes:
   bitmap pages and worker pool slices must both be back to zero whenever
   execution is observable from outside a unit. *)
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

(* Ground-truth environment for the bounds analysis: bucket/distinct
   counts of temp tables are sample-derived (inherited from a reservoir
   collector) and therefore not trusted; base-table counts are. *)
let bounds_env st =
  Bounds.env ~count_trusted:(fun name -> not (Hashtbl.mem st.store name))
    st.cfg.catalog

(* Progress estimator feed: the remainder's Eq.1 estimate plus its
   provable remaining-cost interval, read off the current plan at the
   current simulated time.  Pure observation — reads the clock, never
   charges it — so attaching progress leaves rows and simulated elapsed
   bit-identical (same bar as tracing). *)
let progress_update st label =
  match st.cfg.progress with
  | None -> ()
  | Some p ->
    let rem_est = st.current.Plan.est.Plan.total_ms in
    let iv =
      Bounds.cost_interval (bounds_env st) ~model:st.cfg.model
        ~max_dop:st.cfg.opt_options.Optimizer.max_dop st.current
    in
    ignore
      (Progress.update p ~label ~now_ms:(now st) ~remaining_est_ms:rem_est
         ~remaining_lo_ms:iv.Bounds.lo ~remaining_hi_ms:iv.Bounds.hi)

let progress_finish st =
  match st.cfg.progress with
  | None -> ()
  | Some p -> ignore (Progress.finish p ~now_ms:(now st))

(* The sanitizer's dynamic half of the bounds pass: every cardinality the
   executor just observed must lie inside its provable interval.  The
   analysis claims soundness, so any violation is a hard error, not a
   warning.  [subtree] limits the check to the nodes that actually ran in
   this unit — after a plan switch, retired node ids may collide with
   renumbered ones, so only just-executed ids are compared. *)
let assert_observed_bounds st ~what subtree =
  let a = Bounds.analyze (bounds_env st) st.current in
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

(* ------------------------------------------------------------------ *)
(* Executing plan nodes.                                               *)

let bare_column col =
  match String.index_opt col '.' with
  | Some i -> String.sub col (i + 1) (String.length col - i - 1)
  | None -> col

let heap_of st table = (Catalog.find_exn st.cfg.catalog table).Catalog.heap

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

let acquire_pages st (kind : transient) ~no_broker_cap want =
  let got =
    if want <= 0 then 0
    else
      match st.cfg.broker with
      | None -> min want (max 0 (max 1 no_broker_cap - kind.held))
      | Some lease ->
        let min_d, max_d = Memory_manager.plan_demand st.current in
        let held = transient_held st in
        let tentative = held + want in
        let budget =
          lease ~min_pages:(min_d + tentative) ~max_pages:(max_d + tentative)
        in
        (* pages the lease grants beyond the plan's hard minimum are
           available to transient consumers *)
        let covered = max 0 (budget - min_d) in
        let shortfall = max 0 (tentative - covered) in
        let got = max 0 (want - shortfall) in
        if got < want then
          (* shrink the lease back to what we actually hold *)
          ignore
            (lease ~min_pages:(min_d + held + got)
               ~max_pages:(max_d + held + got));
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
    | Some lease ->
      let min_d, max_d = Memory_manager.plan_demand st.current in
      let held = transient_held st in
      ignore (lease ~min_pages:(min_d + held) ~max_pages:(max_d + held))
  end

(* Workers finishing more than this factor above the mean signal a skewed
   partitioning: the next decision point is forced past Eq. 2 so
   re-costing (with the now-better statistics) can re-pick degrees. *)
let skew_factor = 2.0

(* Run one parallel operator end to end: lease the workers' pool slices
   (clamped to what the broker grants — over-commit surfaces as a smaller
   slice, not an abort), stamp each worker's span onto its own trace
   lane, emit the exchange event, and flag skew.  [f] receives the
   degree, the per-worker slice, and the completion callback to pass
   through to [Parallel]. *)
let with_workers st (p : Plan.t) ~op f =
  let dop = p.Plan.dop in
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
       let result = f ~degree:dop ~slice_pages:slice ~on_worker in
       (match st.cfg.trace with
        | None -> ()
        | Some scope ->
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
            sims);
       let max_ms = Array.fold_left Float.max 0.0 sims in
       let avg_ms =
         Array.fold_left ( +. ) 0.0 sims /. float_of_int (max 1 dop)
       in
       if avg_ms > 0.0 && max_ms /. avg_ms > skew_factor then
         st.skew_surprise <- true;
       emit st
         (Ev_parallel
            { op; dop; want_pages = want; got_pages = got;
              max_worker_ms = max_ms; avg_worker_ms = avg_ms });
       result)

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
   target column the schema carries. *)
let apply_runtime_filters st schema rows =
  drop_useless_filters st;
  match st.active_filters with
  | [] -> rows
  | filters ->
    let t0 = Sim_clock.snapshot st.ctx.Exec_ctx.clock in
    let rows =
      List.fold_left
        (fun rows flt ->
           match Runtime_filter.applicable flt schema with
           | Some idx -> Runtime_filter.apply st.ctx flt ~idx rows
           | None -> rows)
        rows filters
    in
    st.filter_probe_ms <-
      st.filter_probe_ms +. Sim_clock.since st.ctx.Exec_ctx.clock t0;
    rows

let rec exec_node st (p : Plan.t) : Tuple.t array * Schema.t =
  let tok = span_open st ~cat:"operator" (Plan.op_name p) in
  let t0 = Sim_clock.snapshot st.ctx.Exec_ctx.clock in
  let rows, schema = exec_node_inner st p in
  let total = Sim_clock.since st.ctx.Exec_ctx.clock t0 in
  let children_ms =
    List.fold_left
      (fun acc (c : Plan.t) ->
         acc +. Option.value ~default:0.0 (Hashtbl.find_opt st.actual_ms c.Plan.id))
      0.0 (Plan.children p)
  in
  let self_ms = Float.max 0.0 (total -. children_ms) in
  Hashtbl.replace st.actual_ms p.Plan.id self_ms;
  Hashtbl.replace st.actuals p.Plan.id (Array.length rows);
  span_close st tok
    ~args:
      [ ("id", Trace.Int p.Plan.id);
        ("est_rows", Trace.Float p.Plan.est.Plan.rows);
        ("rows", Trace.Int (Array.length rows));
        ("self_ms", Trace.Float self_ms) ];
  (rows, schema)

and exec_node_inner st (p : Plan.t) : Tuple.t array * Schema.t =
  let ctx = st.ctx in
  match p.Plan.node with
  | Plan.Seq_scan { table; alias = _; filter } ->
    let heap = heap_of st table in
    let rows =
      if p.Plan.dop > 1 then
        with_workers st p ~op:(Plan.op_name p)
          (fun ~degree ~slice_pages ~on_worker ->
             Parallel.scan ctx ~degree ~slice_pages ~on_worker heap)
      else Scan.seq_scan ctx heap
    in
    let rows =
      match filter with
      | None -> rows
      | Some pred -> Rows_ops.filter ctx p.Plan.schema pred rows
    in
    (apply_runtime_filters st p.Plan.schema rows, p.Plan.schema)
  | Plan.Index_scan { table; alias = _; index_col; lo; hi; filter } ->
    let tbl = Catalog.find_exn st.cfg.catalog table in
    let index =
      match Catalog.find_index tbl ~column:(bare_column index_col) with
      | Some ix -> ix.Catalog.btree
      | None -> invalid_arg ("Dispatcher: missing index on " ^ index_col)
    in
    let rows = Scan.index_scan ctx tbl.Catalog.heap index ?lo ?hi () in
    let rows =
      match filter with
      | None -> rows
      | Some pred -> Rows_ops.filter ctx p.Plan.schema pred rows
    in
    (apply_runtime_filters st p.Plan.schema rows, p.Plan.schema)
  | Plan.Materialized { name; on_disk; _ } ->
    let t =
      match Hashtbl.find_opt st.store name with
      | Some t -> t
      | None -> invalid_arg ("Dispatcher: unknown intermediate " ^ name)
    in
    if on_disk then begin
      Sim_clock.charge_seq_read ctx.Exec_ctx.clock
        (Exec_ctx.pages_of_bytes t.tmp_bytes);
      Sim_clock.charge_cpu_tuples ctx.Exec_ctx.clock (Array.length t.tmp_rows)
    end;
    (apply_runtime_filters st t.tmp_schema t.tmp_rows, t.tmp_schema)
  | Plan.Collect { input; spec; cid } ->
    (* Collectors must observe the raw stream: statistics (and the exact
       cardinality of a full scan) describe the relation, not what happens
       to survive a runtime filter pushed down by the join above.  So the
       filters are lifted over the collector and applied to its output. *)
    let saved = st.active_filters in
    st.active_filters <- [];
    let rows, schema = exec_node st input in
    st.active_filters <- saved;
    (* an unfiltered full scan yields the relation's exact cardinality —
       a statistic worth keeping beyond the query (Section 2.6) *)
    (match input.Plan.node with
     | Plan.Seq_scan { alias; filter = None; _ } ->
       st.observed_cards <-
         (alias, Array.length rows)
         :: List.remove_assoc alias st.observed_cards
     | _ -> ());
    let ctok =
      span_open st ~cat:"collector" (Printf.sprintf "collect#%d" cid)
    in
    let c0 = Sim_clock.snapshot ctx.Exec_ctx.clock in
    let obs = Collector.collect ctx schema spec rows in
    let collect_ms = Sim_clock.since ctx.Exec_ctx.clock c0 in
    st.collector_ms <- st.collector_ms +. collect_ms;
    span_close st ctok
      ~args:
        [ ("rows", Trace.Int (Array.length rows));
          ("collect_ms", Trace.Float collect_ms) ];
    let columns = Collector.spec_columns spec in
    List.iter
      (fun column ->
         let stats = Collector.column_stats_of_observed obs ~column in
         st.overrides <- (column, stats) :: List.remove_assoc column st.overrides;
         Stats_env.override st.env ~column stats)
      columns;
    let alias =
      match input.Plan.node with
      | Plan.Seq_scan { alias; _ } | Plan.Index_scan { alias; _ } -> alias
      | _ -> Plan.op_name input
    in
    emit st (Ev_collected { cid; alias; columns });
    (apply_runtime_filters st schema rows, schema)
  | Plan.Hash_join { build; probe; keys; extra; rf } ->
    let build_rows, build_schema = exec_node st build in
    let installed =
      install_filters st ~source:(Plan.op_name p) ~rf ~rows:build_rows
        ~schema:build_schema
    in
    let probe_rows, probe_schema = exec_node st probe in
    retire_filters st installed;
    let mem_pages = if p.Plan.mem > 0 then p.Plan.mem else p.Plan.max_mem in
    if p.Plan.dop > 1 && keys <> [] then
      with_workers st p ~op:(Plan.op_name p)
        (fun ~degree ~slice_pages ~on_worker ->
           Parallel.hash_join ctx ~degree ~slice_pages ~on_worker ~mem_pages
             ~build:(build_rows, build_schema)
             ~probe:(probe_rows, probe_schema) ~keys ?extra ())
    else
      let r =
        Join.hash_join ctx ~mem_pages ~build:(build_rows, build_schema)
          ~probe:(probe_rows, probe_schema) ~keys ?extra ()
      in
      (r.Join.rows, r.Join.schema)
  | Plan.Index_nl_join
      { outer; table; alias; outer_col = oc; inner_col; inner_filter; extra } ->
    let outer_rows, outer_schema = exec_node st outer in
    let tbl = Catalog.find_exn st.cfg.catalog table in
    let index =
      match Catalog.find_index tbl ~column:(bare_column inner_col) with
      | Some ix -> ix.Catalog.btree
      | None -> invalid_arg ("Dispatcher: missing index on " ^ inner_col)
    in
    let inner_schema = Schema.qualify (Heap_file.schema tbl.Catalog.heap) alias in
    let residual =
      match List.filter_map Fun.id [ inner_filter; extra ] with
      | [] -> None
      | l -> Some (Expr.conjoin l)
    in
    let r =
      Join.index_nl_join ctx ~outer:(outer_rows, outer_schema)
        ~inner_heap:tbl.Catalog.heap ~inner_schema ~inner_index:index
        ~outer_col:oc ?extra:residual ()
    in
    (r.Join.rows, r.Join.schema)
  | Plan.Block_nl_join { outer; inner; pred } ->
    let outer_rows, outer_schema = exec_node st outer in
    let inner_rows, inner_schema = exec_node st inner in
    let mem_pages = if p.Plan.mem > 0 then p.Plan.mem else p.Plan.max_mem in
    let r =
      Join.block_nl_join st.ctx ~mem_pages ~outer:(outer_rows, outer_schema)
        ~inner:(inner_rows, inner_schema) ?pred ()
    in
    (r.Join.rows, r.Join.schema)
  | Plan.Merge_join { left; right; keys; extra; left_sorted; right_sorted; rf }
    ->
    let left_rows, left_schema = exec_node st left in
    let installed =
      install_filters st ~source:(Plan.op_name p) ~rf ~rows:left_rows
        ~schema:left_schema
    in
    let right_rows, right_schema = exec_node st right in
    retire_filters st installed;
    let mem_pages = if p.Plan.mem > 0 then p.Plan.mem else p.Plan.max_mem in
    let r =
      Merge_join.merge_join ctx ~mem_pages ~left_sorted ~right_sorted
        ~left:(left_rows, left_schema) ~right:(right_rows, right_schema)
        ~keys ?extra ()
    in
    (r.Merge_join.rows, r.Merge_join.schema)
  | Plan.Aggregate { input; group_by; aggs; pre_sorted } ->
    let rows, schema = exec_node st input in
    if pre_sorted then begin
      let r = Aggregate.sorted_aggregate ctx schema ~group_by ~aggs rows in
      (r.Aggregate.rows, r.Aggregate.schema)
    end
    else begin
      let mem_pages = if p.Plan.mem > 0 then p.Plan.mem else p.Plan.max_mem in
      if p.Plan.dop > 1 && group_by <> [] then
        with_workers st p ~op:(Plan.op_name p)
          (fun ~degree ~slice_pages ~on_worker ->
             Parallel.aggregate ctx ~degree ~slice_pages ~on_worker ~mem_pages
               schema ~group_by ~aggs rows)
      else
        let r =
          Aggregate.hash_aggregate ctx ~mem_pages schema ~group_by ~aggs rows
        in
        (r.Aggregate.rows, r.Aggregate.schema)
    end
  | Plan.Sort { input; keys } ->
    let rows, schema = exec_node st input in
    let mem_pages = if p.Plan.mem > 0 then p.Plan.mem else p.Plan.max_mem in
    if p.Plan.dop > 1 then
      ( with_workers st p ~op:(Plan.op_name p)
          (fun ~degree ~slice_pages ~on_worker ->
             Parallel.sort ctx ~degree ~slice_pages ~on_worker ~mem_pages
               schema ~keys rows),
        schema )
    else
      let r = Sort_op.sort ctx ~mem_pages schema ~keys rows in
      (r.Sort_op.rows, schema)
  | Plan.Filter { input; pred } ->
    let rows, schema = exec_node st input in
    (Rows_ops.filter ctx schema pred rows, schema)
  | Plan.Project { input; cols } ->
    let rows, schema = exec_node st input in
    Rows_ops.project ctx schema cols rows
  | Plan.Limit { input; n } ->
    let rows, schema = exec_node st input in
    (Rows_ops.limit ctx n rows, schema)

(* ------------------------------------------------------------------ *)
(* Unit selection and plan surgery.                                    *)

(* Deepest leftmost join whose inputs contain no other join. *)
let rec find_ready_join (p : Plan.t) =
  match List.find_map find_ready_join (Plan.children p) with
  | Some j -> Some j
  | None -> if Plan.is_join p then Some p else None

let rec replace_node (p : Plan.t) ~target_id ~replacement =
  if p.Plan.id = target_id then replacement
  else
    Plan.with_children p
      (List.map
         (replace_node ~target_id ~replacement)
         (Plan.children p))

(* ------------------------------------------------------------------ *)
(* Registering an intermediate result as a temp table; returns its
   byte size.                                                          *)

let register_temp st ~name ~rows ~schema =
  let heap = Heap_file.create schema in
  Array.iter (Heap_file.append heap) rows;
  let table = Catalog.add_table st.cfg.catalog name heap in
  (* Free statistics: exact cardinality plus per-column min/max (the paper
     collects these for every intermediate result); histograms/distincts
     inherited from upstream collectors where the column passed through, so
     only the other columns' ranges are computed. *)
  let names =
    List.map
      (fun col ->
         if col.Schema.qualifier = "" then col.Schema.name
         else col.Schema.qualifier ^ "." ^ col.Schema.name)
      (Schema.columns schema)
  in
  let fresh = List.filter (fun q -> not (List.mem_assoc q st.overrides)) names in
  Sim_clock.charge_cpu_ms st.ctx.Exec_ctx.clock
    (Collector.estimated_cost_ms (Collector.spec ())
       ~rows:(float_of_int (Array.length rows)));
  let base_obs =
    { Collector.rows = Array.length rows;
      col_ranges = Collector.ranges schema ~columns:fresh rows;
      histograms = [];
      distincts = [];
      dicts = [] }
  in
  table.Catalog.stats <-
    Array.of_list
      (List.map
         (fun q ->
            match List.assoc_opt q st.overrides with
            | Some stats -> stats
            | None -> Collector.column_stats_of_observed base_obs ~column:q)
         names);
  st.temp_names <- name :: st.temp_names;
  let bytes = Rows_ops.bytes_of_rows rows in
  Hashtbl.replace st.store name
    { tmp_rows = rows; tmp_schema = schema; tmp_bytes = bytes };
  bytes

(* ------------------------------------------------------------------ *)
(* Remainder-query reconstruction (paper Figure 6: SQL over Temp_i).   *)

let remainder_query st (current : Plan.t) : Query.t =
  let q = st.query in
  let relations = ref [] and conjuncts = ref [] in
  let add_relation r = relations := r :: !relations in
  let add_conjuncts cs = conjuncts := cs @ !conjuncts in
  let original_relation alias =
    match
      List.find_opt (fun (r : Query.relation) -> r.Query.alias = alias)
        q.Query.relations
    with
    | Some r -> r
    | None ->
      (* a temp table introduced by an earlier plan switch: its heap schema
         already carries the original qualifiers *)
      (match Hashtbl.find_opt st.store alias with
       | Some t -> { Query.table = alias; alias; rel_schema = t.tmp_schema }
       | None -> invalid_arg ("Dispatcher: unknown alias " ^ alias))
  in
  let rec walk (p : Plan.t) =
    match p.Plan.node with
    | Plan.Materialized { name; _ } ->
      add_relation
        { Query.table = name;
          alias = name;
          rel_schema = (Hashtbl.find st.store name).tmp_schema }
    | Plan.Seq_scan { alias; filter; _ } | Plan.Index_scan { alias; filter; _ } ->
      add_relation (original_relation alias);
      (match filter with
       | Some f -> add_conjuncts (Expr.conjuncts f)
       | None -> ())
    | Plan.Hash_join { build; probe; keys; extra; _ } ->
      walk build;
      walk probe;
      add_conjuncts
        (List.map (fun (a, b) -> Expr.Cmp (Expr.Eq, Expr.Col a, Expr.Col b)) keys);
      (match extra with Some e -> add_conjuncts (Expr.conjuncts e) | None -> ())
    | Plan.Index_nl_join
        { outer; alias; outer_col = oc; inner_col; inner_filter; extra; _ } ->
      walk outer;
      add_relation (original_relation alias);
      add_conjuncts [ Expr.Cmp (Expr.Eq, Expr.Col oc, Expr.Col inner_col) ];
      (match inner_filter with
       | Some f -> add_conjuncts (Expr.conjuncts f)
       | None -> ());
      (match extra with Some e -> add_conjuncts (Expr.conjuncts e) | None -> ())
    | Plan.Block_nl_join { outer; inner; pred } ->
      walk outer;
      walk inner;
      (match pred with Some e -> add_conjuncts (Expr.conjuncts e) | None -> ())
    | Plan.Merge_join { left; right; keys; extra; _ } ->
      walk left;
      walk right;
      add_conjuncts
        (List.map (fun (a, b) -> Expr.Cmp (Expr.Eq, Expr.Col a, Expr.Col b)) keys);
      (match extra with Some e -> add_conjuncts (Expr.conjuncts e) | None -> ())
    | Plan.Aggregate { input; _ } | Plan.Sort { input; _ }
    | Plan.Project { input; _ } | Plan.Limit { input; _ }
    | Plan.Collect { input; _ } | Plan.Filter { input; _ } ->
      walk input
  in
  walk current;
  { Query.relations = List.rev !relations;
    conjuncts = List.rev !conjuncts;
    select_cols = q.Query.select_cols;
    aggs = q.Query.aggs;
    group_by = q.Query.group_by;
    having = q.Query.having;
    order_by = q.Query.order_by;
    limit = q.Query.limit }

(* Materialization overhead of switching: writing every in-memory
   intermediate of the current plan to disk. *)
let pending_materialize_ms st (current : Plan.t) =
  Plan.fold
    (fun acc (n : Plan.t) ->
       match n.Plan.node with
       | Plan.Materialized { name; on_disk = false; _ } ->
         let pages =
           float_of_int
             (Exec_ctx.pages_of_bytes (Hashtbl.find st.store name).tmp_bytes)
         in
         acc +. (pages *. st.cfg.model.Sim_clock.write_ms)
       | _ -> acc)
    0.0 current

let charge_materialization st (current : Plan.t) =
  let rec fix (p : Plan.t) =
    match p.Plan.node with
    | Plan.Materialized ({ name; on_disk = false; _ } as m) ->
      Sim_clock.charge_write st.ctx.Exec_ctx.clock
        (Exec_ctx.pages_of_bytes (Hashtbl.find st.store name).tmp_bytes);
      { p with Plan.node = Plan.Materialized { m with on_disk = true } }
    | _ -> Plan.with_children p (List.map fix (Plan.children p))
  in
  fix current

(* ------------------------------------------------------------------ *)
(* Decision point, after each completed unit.                          *)

(* Grant memory to the current plan's consumers.  With a broker the budget
   is a lease re-negotiated on every call (shrunken demand after
   re-optimization hands pages back to the workload); without one it is
   the fixed per-query budget. *)
let allocate_memory st =
  (match st.cfg.broker with
   | None -> ()
   | Some lease ->
     let min_pages, max_pages = Memory_manager.plan_demand st.current in
     let budget = lease ~min_pages ~max_pages in
     st.memman <- Memory_manager.create ~budget_pages:(max 1 budget));
  Memory_manager.allocate st.memman st.current

let reallocate st =
  let grants = allocate_memory st in
  st.current <- recost st.cfg st.env st.current;
  emit st (Ev_realloc { grants })

let count_leaf_relations (p : Plan.t) =
  Plan.fold
    (fun acc (n : Plan.t) ->
       match n.Plan.node with
       | Plan.Seq_scan _ | Plan.Index_scan _ | Plan.Materialized _ -> acc + 1
       | Plan.Index_nl_join _ -> acc + 1
       | _ -> acc)
    0 p

let try_replan st ~force =
  let t_improved = st.current.Plan.est.Plan.total_ms in
  let t_optimizer =
    List.fold_left
      (fun acc (n : Plan.t) ->
         match Hashtbl.find_opt st.orig_op_ms n.Plan.id with
         | Some ms -> acc +. ms
         | None -> acc)
      0.0 (Plan.nodes st.current)
  in
  let t_opt_estimated =
    Optimizer.estimated_opt_ms ~model:st.cfg.model
      ~relations:(count_leaf_relations st.current)
  in
  let decision =
    Reopt_policy.should_consider st.cfg.params ~t_opt_estimated ~t_improved
      ~t_optimizer
  in
  emit st
    (Ev_considered
       { decision; t_improved; t_optimizer; t_opt_estimated; forced = force });
  match decision with
  (* Eq. 1 is never overridden: when the remainder is cheap relative to
     the optimizer invocation, re-planning cannot pay off no matter how
     wrong the estimates are.  A filter surprise only overrides Eq. 2's
     "close enough" — the estimates it was judged by are now suspect. *)
  | Reopt_policy.Too_cheap -> ()
  | Reopt_policy.Close_enough when not force -> ()
  | Reopt_policy.Close_enough | Reopt_policy.Consider ->
    let rq = remainder_query st st.current in
    let env' = Stats_env.create st.cfg.catalog rq.Query.relations in
    (match st.cfg.env_overlay with
     | Some overlay -> overlay rq env'
     | None -> ());
    apply_overrides st env';
    (match
       Optimizer.optimize ~options:st.cfg.opt_options
         ~clock:st.ctx.Exec_ctx.clock ~model:st.cfg.model ~env:env' rq
     with
     | exception Optimizer.Planning_error _ -> ()
     | { Optimizer.plan = new_plan; _ } ->
       let materialize_ms = pending_materialize_ms st st.current in
       (* reading the temp back is already in the new plan's scan costs *)
       let t_new_total = new_plan.Plan.est.Plan.total_ms +. materialize_ms in
       (* Bound-checked mode: on top of the estimate-based test, the
          candidate's provable worst-case remaining cost (collection
          overhead and the pending materialization included) must beat the
          current plan's provable best-case remaining cost — a switch is
          admitted only when it provably cannot lose. *)
       let bound_admitted =
         match st.cfg.mode with
         | Bound_checked ->
           let benv = bounds_env st in
           let max_dop = st.cfg.opt_options.Optimizer.max_dop in
           let cand =
             Bounds.cost_interval benv ~model:st.cfg.model ~max_dop new_plan
           in
           let cur =
             Bounds.cost_interval benv ~model:st.cfg.model ~max_dop st.current
           in
           let new_hi_ms =
             (cand.Bounds.hi *. (1.0 +. st.cfg.params.Reopt_policy.mu))
             +. materialize_ms
           in
           let admitted =
             Reopt_policy.accept_bound_checked ~new_hi_ms
               ~cur_lo_ms:cur.Bounds.lo
           in
           emit st
             (Ev_bound_check
                { new_hi_ms; cur_lo_ms = cur.Bounds.lo; admitted });
           admitted
         | Off | Memory_only | Plan_only | Full -> true
       in
       if Reopt_policy.accept_new_plan ~t_new_total ~t_improved
       && bound_admitted
       then begin
         (* Switch: pay the writes, renumber the new plan's ids into our
            space, adopt its annotations as the new baseline. *)
         ignore (charge_materialization st st.current);
         let rec renumber (p : Plan.t) =
           let kids = List.map renumber (Plan.children p) in
           { (Plan.with_children p kids) with Plan.id = fresh_plan_id st }
         in
         let new_plan, _ = instrument st.cfg env' (renumber new_plan) in
         (* Scia.insert hands the Collect wrappers ids past the plan's max
            from its own counter; pull next_id past them or a later
            Materialized leaf would reuse a live Collect id and the
            id-keyed analyses (bounds, actuals) would conflate the two. *)
         st.next_id <-
           List.fold_left
             (fun m (n : Plan.t) -> max m n.Plan.id)
             st.next_id (Plan.nodes new_plan);
         st.env <- env';
         st.current <- new_plan;
         record_annotations st new_plan;
         ignore (allocate_memory st);
         st.current <- recost st.cfg st.env st.current;
         st.switches <- st.switches + 1;
         emit st (Ev_switched { t_new_total; t_improved; materialize_ms });
         if st.cfg.verify = Verifier.Sanitize then
           verify_plan st ~what:"switched plan" st.current;
         progress_update st Progress.Switch
       end
       else emit st (Ev_rejected { t_new_total; t_improved }))

let decision_point st =
  let force = st.filter_surprise || st.skew_surprise in
  st.filter_surprise <- false;
  st.skew_surprise <- false;
  (match st.cfg.trace with
   | Some scope ->
     ignore (Trace.new_decision_point scope);
     Metrics.incr (Trace.scope_metrics scope) "decision_points"
   | None -> ());
  (* improved estimates for the remainder *)
  st.current <- recost st.cfg st.env st.current;
  (match st.cfg.mode with
   | Off -> ()
   | Memory_only -> reallocate st
   | Plan_only ->
     if Plan.join_count st.current >= 1
     && st.switches < st.cfg.params.Reopt_policy.max_switches
     then try_replan st ~force
   | Full | Bound_checked ->
     (* Re-allocation is free, so apply it first; a plan switch must then
        beat the re-allocated current plan, not the starved one.
        Bound-checked behaves like Full except that try_replan additionally
        requires the candidate's provable worst case to beat the current
        plan's provable best case. *)
     reallocate st;
     if Plan.join_count st.current >= 1
     && st.switches < st.cfg.params.Reopt_policy.max_switches
     then try_replan st ~force);
  if st.cfg.verify = Verifier.Sanitize then begin
    assert_filters_retired st ~what:"decision point";
    verify_plan st ~what:"remainder plan at decision point" st.current
  end;
  progress_update st Progress.Decision

(* ------------------------------------------------------------------ *)
(* Main loop.                                                          *)

type run = {
  st : state;
  plan0 : Plan.t;
  r_collectors : int;
  q_span : Trace.token option;
  mutable result : report option;
  mutable aborted : bool;
}

(* Everything before execution that the initial plan depends on:
   estimation environment, start-time probes, optimization and
   instrumentation (unless [prepared]), the memory grant and the re-cost
   under it.  Returns the run state with [current] set to the initial
   plan, the collector count and the probes. *)
let prepare ?prepared cfg query =
  let ctx = Exec_ctx.create ~model:cfg.model ~pool_pages:cfg.pool_pages () in
  let env = Stats_env.create cfg.catalog query.Query.relations in
  (match cfg.env_overlay with
   | Some overlay -> overlay query env
   | None -> ());
  (* Start-time probing is orthogonal to mid-query re-optimization: it
     improves the very first plan even in Off mode. *)
  let probes =
    match cfg.start_sampling with
    | Some n when n > 0 ->
      Sampling.probe_and_override ~catalog:cfg.catalog ~ctx ~env query
        ~sample_rows:n
    | _ -> []
  in
  let plan0, collectors =
    match prepared with
    | Some (plan, collectors) ->
      (* a cached static plan: optimization and collector insertion were
         paid when it was first compiled *)
      (plan, collectors)
    | None ->
      let opt =
        Optimizer.optimize ~options:cfg.opt_options ~clock:ctx.Exec_ctx.clock
          ~model:cfg.model ~env query
      in
      (match cfg.mode with
       | Off -> (opt.Optimizer.plan, 0)
       | _ -> instrument cfg env opt.Optimizer.plan)
  in
  let memman = Memory_manager.create ~budget_pages:cfg.budget_pages in
  let max_id =
    List.fold_left (fun m (n : Plan.t) -> max m n.Plan.id) 0 (Plan.nodes plan0)
  in
  let st =
    { cfg;
      ctx;
      memman;
      query;
      env;
      current = plan0;
      orig_op_ms = Hashtbl.create 64;
      store = Hashtbl.create 8;
      overrides = [];
      temp_names = [];
      observed_cards = [];
      events = [];
      switches = 0;
      next_temp = 0;
      next_id = max_id;
      actuals = Hashtbl.create 64;
      actual_ms = Hashtbl.create 64;
      active_filters = [];
      filter_pages = { held = 0; peak = 0 };
      filter_surprise = false;
      worker_pages = { held = 0; peak = 0 };
      skew_surprise = false;
      collector_ms = 0.0;
      verifications = 0;
      filter_probe_ms = 0.0 }
  in
  ignore (allocate_memory st);
  st.current <- recost cfg env plan0;
  record_annotations st st.current;
  (st, collectors, probes)

let initial_plan cfg query =
  let st, _, _ = prepare cfg query in
  st.current

let start ?prepared cfg query =
  (* the query span covers everything, optimization included *)
  let q_span =
    Option.map
      (fun scope ->
         Trace.open_span scope ~cat:"query"
           ~name:("query:" ^ Trace.scope_label scope) ~ts_ms:0.0 ())
      cfg.trace
  in
  let st, collectors, probes = prepare ?prepared cfg query in
  let plan0 = st.current in
  (* refuse to execute a plan that fails static analysis *)
  verify_plan st ~what:"initial plan" plan0;
  List.iter (fun p -> emit st (Ev_sampled p)) probes;
  progress_update st Progress.Start;
  { st; plan0; r_collectors = collectors; q_span; result = None;
    aborted = false }

(* Abandon a run's externally-visible state: transient broker pages
   (bloom bitmaps, worker pool slices) go back to the pool, temp tables
   leave the shared catalog, and the trace unwinds to a well-formed
   forest.  Called on cancel and on any exception escaping [step], so a
   failed query in a long-lived service leaks neither pages nor catalog
   entries.  (The query's memory lease itself belongs to the workload
   scheduler, which releases it when it observes the failure.) *)
let teardown r ~error =
  let st = r.st in
  st.active_filters <- [];
  release_pages st st.filter_pages st.filter_pages.held;
  release_pages st st.worker_pages st.worker_pages.held;
  List.iter
    (fun name ->
       Catalog.drop_table st.cfg.catalog name;
       Hashtbl.remove st.store name)
    st.temp_names;
  st.temp_names <- [];
  match st.cfg.trace with
  | None -> ()
  | Some scope ->
    let args =
      ("aborted", Trace.Bool true)
      :: (match error with
          | Some msg -> [ ("error", Trace.Str msg) ]
          | None -> [])
    in
    Trace.unwind scope ~args
      ~ts_ms:(Sim_clock.elapsed_ms st.ctx.Exec_ctx.clock) ()

(* Cancel a run that has not produced its report.  Idempotent; a
   subsequent [step] raises. *)
let abort r =
  if Option.is_none r.result && not r.aborted then begin
    r.aborted <- true;
    teardown r ~error:None
  end

(* Re-negotiate the memory lease for a run that has not finished —
   called by a workload manager when pages freed by another query can be
   re-granted to this one.  No-op between a unit's start and end because
   steps are atomic; safe whenever the caller holds the run. *)
let refresh_memory r =
  match r.result, r.st.cfg.broker with
  | None, Some _ -> reallocate r.st
  | _ -> ()

let aborted r = r.aborted

(* Bloom-bitmap plus worker pool-slice pages currently leased; zero
   whenever a unit is not mid-execution. *)
let transient_pages_held r = transient_held r.st

let run_elapsed_ms r = Sim_clock.elapsed_ms r.st.ctx.Exec_ctx.clock

(* Execute one unit (a ready join, or the final aggregate/sort stack).
   Returns the report once the last unit completed. *)
let step_once r =
  match r.result with
  | Some report -> Some report
  | None ->
    let st = r.st in
    (match find_ready_join st.current with
     | Some j ->
       let utok = span_open st ~cat:"unit" ("unit:" ^ Plan.op_name j) in
       let probe0 = st.filter_probe_ms in
       let rows, schema = exec_node st j in
       emit st
         (Ev_unit_done
            { op = Plan.op_name j;
              est_rows = j.Plan.est.Plan.rows;
              actual_rows = Array.length rows });
       (* st.current still contains [j]: check the observed cardinalities
          of the just-executed subtree against their provable intervals
          before the unit is folded into a Materialized leaf. *)
       if st.cfg.verify = Verifier.Sanitize then
         assert_observed_bounds st ~what:"executed unit" j;
       let name = fresh_temp_name st in
       let bytes = register_temp st ~name ~rows ~schema in
       let leaf =
         { Plan.id = fresh_plan_id st;
           node =
             Plan.Materialized
               { name; covers = Plan.aliases j; on_disk = false };
           schema;
           est =
             { Plan.rows = float_of_int (Array.length rows);
               width =
                 (if Array.length rows = 0 then 1.0
                  else
                    float_of_int bytes /. float_of_int (Array.length rows));
               op_ms = 0.0;
               total_ms = 0.0 };
           min_mem = 0;
           max_mem = 0;
           mem = 0;
           dop = 1 }
       in
       st.current <-
         replace_node st.current ~target_id:j.Plan.id ~replacement:leaf;
       decision_point st;
       span_close st utok
         ~args:
           [ ("op", Trace.Str (Plan.op_name j));
             ("est_rows", Trace.Float j.Plan.est.Plan.rows);
             ("rows", Trace.Int (Array.length rows));
             ("rf_probe_ms", Trace.Float (st.filter_probe_ms -. probe0)) ];
       None
     | None ->
       (* Remaining stack: aggregate/sort/project/limit over the last
          result. *)
       let utok = span_open st ~cat:"unit" "unit:finalize" in
       let rows, result_schema = exec_node st st.current in
       span_close st utok
         ~args:[ ("rows", Trace.Int (Array.length rows)) ];
       if st.cfg.verify = Verifier.Sanitize then begin
         assert_filters_retired st ~what:"query completion";
         assert_observed_bounds st ~what:"query completion" st.current
       end;
       (* Drop temp tables so the engine can be reused. *)
       List.iter (Catalog.drop_table st.cfg.catalog) st.temp_names;
       let elapsed = Sim_clock.elapsed_ms st.ctx.Exec_ctx.clock in
       (match st.cfg.trace, r.q_span with
        | Some scope, Some q_span ->
          let hits = Buffer_pool.hits st.ctx.Exec_ctx.pool in
          let misses = Buffer_pool.misses st.ctx.Exec_ctx.pool in
          Trace.close_span scope ~ts_ms:elapsed q_span
            ~args:
              [ ("rows", Trace.Int (Array.length rows));
                ("switches", Trace.Int st.switches);
                ("collectors", Trace.Int r.r_collectors);
                ("collector_ms", Trace.Float st.collector_ms);
                ("pool_hits", Trace.Int hits);
                ("pool_misses", Trace.Int misses) ];
          let m = Trace.scope_metrics scope in
          Metrics.incr m "queries";
          Metrics.incr m ~by:r.r_collectors "collectors";
          Metrics.incr m ~by:hits "buffer_pool.hits";
          Metrics.incr m ~by:misses "buffer_pool.misses";
          let th = Metrics.counter m "buffer_pool.hits" in
          let tm = Metrics.counter m "buffer_pool.misses" in
          if th + tm > 0 then
            Metrics.set_gauge m "buffer_pool.hit_ratio"
              (float_of_int th /. float_of_int (th + tm));
          Metrics.observe m "query.elapsed_ms" elapsed;
          Metrics.observe m "query.collector_ms" st.collector_ms
        | _ -> ());
       let timed_events = List.rev st.events in
       let report =
         { rows;
           result_schema;
           elapsed_ms = elapsed;
           counters = Sim_clock.counters st.ctx.Exec_ctx.clock;
           timed_events;
           switches = st.switches;
           collectors = r.r_collectors;
           initial_plan = r.plan0;
           final_plan = st.current;
           actual_rows =
             Hashtbl.fold (fun id n acc -> (id, n) :: acc) st.actuals [];
           actual_ms =
             Hashtbl.fold (fun id ms acc -> (id, ms) :: acc) st.actual_ms [];
           pool_hits = Buffer_pool.hits st.ctx.Exec_ctx.pool;
           pool_misses = Buffer_pool.misses st.ctx.Exec_ctx.pool;
           observed_stats = st.overrides;
           observed_cards = st.observed_cards;
           filters =
             List.filter_map
               (function
                 | _, Ev_filter { target_col; est_sel; observed_sel; _ } ->
                   Some (target_col, est_sel, observed_sel)
                 | _ -> None)
               timed_events;
           filter_pages_peak = st.filter_pages.peak;
           filter_pages_held = st.filter_pages.held;
           worker_pages_peak = st.worker_pages.peak;
           worker_pages_held = st.worker_pages.held;
           collector_ms = st.collector_ms;
           verifications = st.verifications }
       in
       progress_finish st;
       r.result <- Some report;
       Some report)

(* Any exception escaping a unit (executor failure, sanitizer rejection,
   a broken UDF) tears the run down before propagating: the same cleanup
   as [abort], then re-raise with the original backtrace. *)
let step r =
  if r.aborted then invalid_arg "Dispatcher.step: aborted run";
  try step_once r
  with e ->
    let bt = Printexc.get_raw_backtrace () in
    r.aborted <- true;
    (try teardown r ~error:(Some (Printexc.to_string e)) with _ -> ());
    Printexc.raise_with_backtrace e bt

let run ?prepared cfg query =
  let r = start ?prepared cfg query in
  let rec drive () =
    match step r with
    | Some report -> report
    | None -> drive ()
  in
  drive ()

(* Full EXPLAIN ANALYZE: estimated vs observed rows and per-operator
   simulated time. *)
let pp_explain_analyze fmt (report : report) =
  let rec go indent (p : Plan.t) =
    let pad = String.make indent ' ' in
    let rows =
      match List.assoc_opt p.Plan.id report.actual_rows with
      | Some n -> Printf.sprintf "%d" n
      | None -> "-"
    in
    let ms =
      match List.assoc_opt p.Plan.id report.actual_ms with
      | Some v -> Printf.sprintf "%.1f" v
      | None -> "-"
    in
    Fmt.pf fmt "%s%s  [rows est=%.0f actual=%s | ms est=%.1f actual=%s]@."
      pad (Plan.op_name p) p.Plan.est.Plan.rows rows p.Plan.est.Plan.op_ms ms;
    List.iter (go (indent + 2)) (Plan.children p)
  in
  go 0 report.initial_plan;
  (* Uniform stat block: every verify mode (off / pre-execution /
     sanitize) renders the same lines, so explain-analyze output can be
     diffed across modes without normalisation. *)
  Fmt.pf fmt "collectors: %d (%.1f ms)@." report.collectors
    report.collector_ms;
  Fmt.pf fmt "runtime filters: %d (%d pages peak, %d held at completion)@."
    (List.length report.filters)
    report.filter_pages_peak report.filter_pages_held;
  List.iter
    (fun (col, est, obs) ->
       Fmt.pf fmt "  filter on %s: sel est=%.3f observed=%.3f@." col est obs)
    report.filters;
  (* only parallel runs get a worker line, so serial explain-analyze
     output stays byte-identical to earlier releases *)
  if report.worker_pages_peak > 0 then
    Fmt.pf fmt "parallel workers: %d pages peak, %d held at completion@."
      report.worker_pages_peak report.worker_pages_held;
  let accesses = report.pool_hits + report.pool_misses in
  Fmt.pf fmt "buffer pool: %d hits / %d misses (%.1f%% hit rate)@."
    report.pool_hits report.pool_misses
    (if accesses = 0 then 0.0
     else 100.0 *. float_of_int report.pool_hits /. float_of_int accesses);
  Fmt.pf fmt "verification: %d runs@." report.verifications
