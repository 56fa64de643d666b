(* The scheduler/dispatcher's driver (paper Figure 9): prepares and
   starts a run, executes it one unit at a time through [Interp], and at
   every decision point applies [Reopt_policy.decide]'s verdict. *)

open Mqr_storage
open Interp
include Types

type mode = Reopt_policy.mode =
  | Off | Memory_only | Plan_only | Full | Bound_checked

let mode_to_string = Reopt_policy.mode_to_string

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
  | Ev_switched { t_new_total; t_improved; materialize_ms; _ } ->
    Fmt.pf fmt
      "plan switched: T_new=%.1fms < T_improved=%.1fms (materialize %.1fms)"
      t_new_total t_improved materialize_ms
  | Ev_rejected { t_new_total; t_improved; _ } ->
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
(* Driver state.                                                       *)

type run = {
  st : state;
  query : Query.t;
  (* the query's read set: the only columns whose temp statistics any
     reader asks about (Query.read_columns) *)
  read : string list;
  (* original optimizer estimates per node id — the plan annotations *)
  orig_op_ms : (int, float) Hashtbl.t;
  mutable switches : int;
  (* the temp tables this run registered, newest first; dropped when the
     run ends, however it ends *)
  mutable temps : string list;
  mutable next_id : int;  (* the next free plan-node id *)
  plan0 : Plan.t;
  r_collectors : int;
  mutable result : report option;
  mutable aborted : bool;
}

let fresh_plan_id r =
  let id = r.next_id in
  r.next_id <- id + 1;
  id

let fresh_temp_name r =
  Printf.sprintf "__temp%s_%d" r.st.cfg.temp_prefix (List.length r.temps + 1)

let record_annotations r plan =
  List.iter
    (fun (n : Plan.t) ->
       Hashtbl.replace r.orig_op_ms n.Plan.id n.Plan.est.Plan.op_ms)
    (Plan.nodes plan)

(* Re-annotate [plan] under [env] with the configured planning memory and
   degree cap, reusing the run's equi-join selectivities [memo] (each
   entry checks the statistics it came from). *)
let recost cfg memo env plan =
  Optimizer.recost ~planning_mem:cfg.opt_options.Optimizer.planning_mem_pages
    ~max_dop:cfg.opt_options.Optimizer.max_dop ~memo ~env plan

(* Insert statistics collectors (SCIA), their plan-node ids from
   [first_id] on: the instrumentation of an initial plan and of every
   switched-to remainder.  Returns the plan, the number of collectors kept
   and the next free id.  It is not re-costed here: every caller grants
   memory and re-costs it next.  Before that, only the memory grant and
   [record_annotations] read it: the grant reads memory demands, which
   SCIA leaves as they were, and [record_annotations] reads each node's
   [op_ms].  SCIA keeps the optimizer's [op_ms] on every node it does not
   add, and those equal what [recost] gives under the environment the
   plan was optimized in.  It prices each collector it adds with
   [Collector.estimated_cost_ms], as [recost] does. *)
let instrument cfg env ~first_id plan =
  let scia = Scia.insert ~mu:cfg.params.Reopt_policy.mu ~env ~first_id plan in
  (scia.Scia.plan, List.length scia.Scia.kept, scia.Scia.next_id)

let max_id plan =
  List.fold_left (fun m (n : Plan.t) -> max m n.Plan.id) 0 (Plan.nodes plan)

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
(* Decision point, after each completed unit.                          *)

(* Switching pays for writing every in-memory intermediate of the current
   plan to disk. *)
let charge_materialization st =
  Plan.fold
    (fun () (n : Plan.t) ->
       match n.Plan.node with
       | Plan.Materialized { bytes; _ } ->
         Sim_clock.charge_write st.ctx.Exec_ctx.clock
           (Exec_ctx.pages_of_bytes bytes)
       | _ -> ())
    () st.current

let reallocate st =
  let grants = allocate_memory st in
  st.current <- recost st.cfg st.sel_memo st.env st.current;
  emit st (Ev_realloc { grants })

(* What the policy reads of the run: nothing it could write through. *)
let view r ~force =
  let st = r.st in
  { Reopt_policy.catalog = st.cfg.catalog;
    opt_options = st.cfg.opt_options;
    params = st.cfg.params;
    mode = st.cfg.mode;
    env_overlay = st.cfg.env_overlay;
    query = r.query;
    remainder = st.current;
    orig_op_ms = Hashtbl.find_opt r.orig_op_ms;
    overrides = st.overrides;
    switches = r.switches;
    force }

(* Switch to the candidate: pay the writes, renumber the new plan's ids
   into our space, instrument it and adopt its annotations as the new
   baseline. *)
let switch r (t : Reopt_policy.terms) (c : Reopt_policy.candidate) =
  let st = r.st in
  charge_materialization st;
  let rec renumber (p : Plan.t) =
    let kids = List.map renumber (Plan.children p) in
    { (Plan.with_children p kids) with Plan.id = fresh_plan_id r }
  in
  (* renumber first: the wrappers take the ids after the plan's *)
  let renumbered = renumber c.plan in
  let new_plan, _, next_id =
    instrument st.cfg c.env ~first_id:r.next_id renumbered
  in
  r.next_id <- next_id;
  st.env <- c.env;
  st.current <- new_plan;
  record_annotations r new_plan;
  ignore (allocate_memory st);
  st.current <- recost st.cfg st.sel_memo st.env st.current;
  r.switches <- r.switches + 1;
  emit st
    (Ev_switched
       { t_new_total = c.t_new_total;
         t_improved = t.t_improved;
         materialize_ms = c.materialize_ms;
         plans_enumerated = c.plans_enumerated;
         opt_ms = Sim_clock.optimizer_ms ~plans:c.plans_enumerated });
  observe st Switched

(* Apply a verdict: the consideration's terms first, then the optimizer
   time the re-plan enumerated, then the bound check, then the switch or
   the rejection. *)
let apply r verdict =
  let st = r.st in
  match verdict with
  | Reopt_policy.Keep terms ->
    Option.iter (fun t -> emit st (Ev_considered t)) terms
  | Reopt_policy.Reject (t, c) | Reopt_policy.Switch (t, c) ->
    emit st (Ev_considered t);
    Sim_clock.charge_optimizer st.ctx.Exec_ctx.clock ~plans:c.plans_enumerated;
    Option.iter (fun b -> emit st (Ev_bound_check b)) c.bound_check;
    (match verdict with
     | Reopt_policy.Switch _ -> switch r t c
     | _ ->
       emit st
         (Ev_rejected
            { t_new_total = c.t_new_total;
              t_improved = t.t_improved;
              plans_enumerated = c.plans_enumerated;
              opt_ms = Sim_clock.optimizer_ms ~plans:c.plans_enumerated }))

let decision_point r =
  let st = r.st in
  let force = st.filter_surprise || st.skew_surprise in
  st.filter_surprise <- false;
  st.skew_surprise <- false;
  observe st Decision_opened;
  (* improved estimates for the remainder *)
  st.current <- recost st.cfg st.sel_memo st.env st.current;
  if Reopt_policy.reallocates st.cfg.mode then reallocate st;
  apply r (Reopt_policy.decide (view r ~force));
  observe st Verdict_applied

(* ------------------------------------------------------------------ *)
(* Main loop.                                                          *)

(* Everything before execution that the initial plan depends on:
   estimation environment, start-time probes, optimization and
   instrumentation (unless [prepared]), the memory grant and the re-cost
   under it.  Returns the run, whose [plan0] is the initial plan, and the
   probes. *)
let prepare ?prepared ?scratch cfg query =
  let ctx = Exec_ctx.create ?scratch ~pool_pages:cfg.pool_pages () in
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
  let sel_memo = Optimizer.memo () in
  let plan0, collectors, next_id =
    match prepared with
    | Some (plan, collectors) ->
      (* a cached static plan: optimization and collector insertion were
         paid when it was first compiled *)
      (plan, collectors, max_id plan + 1)
    | None ->
      let opt =
        Optimizer.optimize ~options:cfg.opt_options ~clock:ctx.Exec_ctx.clock
          ~env query
      in
      let first_id = max_id opt.Optimizer.plan + 1 in
      (match cfg.mode with
       | Off -> (opt.Optimizer.plan, 0, first_id)
       | _ -> instrument cfg env ~first_id opt.Optimizer.plan)
  in
  let st =
    { cfg;
      ctx;
      memman = Memory_manager.create ~budget_pages:cfg.budget_pages;
      env;
      current = plan0;
      overrides = [];
      observed_cards = [];
      events = [];
      actuals = Hashtbl.create 64;
      actual_ms = Hashtbl.create 64;
      active_filters = [];
      filter_pages = { held = 0; peak = 0 };
      filter_surprise = false;
      worker_pages = { held = 0; peak = 0 };
      skew_surprise = false;
      collector_ms = 0.0;
      filter_probe_ms = 0.0;
      q_span = None;
      verifications = 0;
      sel_memo }
  in
  ignore (allocate_memory st);
  st.current <- recost cfg sel_memo env plan0;
  let r =
    { st;
      query;
      read = Query.read_columns query;
      orig_op_ms = Hashtbl.create 64;
      switches = 0;
      temps = [];
      next_id;
      plan0 = st.current;
      r_collectors = collectors;
      result = None;
      aborted = false }
  in
  record_annotations r st.current;
  (r, probes)

(* A throwaway run: its context takes nothing from the engine's scratch. *)
let initial_plan cfg query = (fst (prepare cfg query)).plan0

(* Drop the run's temp tables from the shared catalog. *)
let drop_temps r =
  List.iter (Catalog.drop_table r.st.cfg.catalog) r.temps;
  r.temps <- []

(* Abandon a run's externally-visible state: transient broker pages
   (bloom bitmaps, worker pool slices) go back to the pool, temp tables
   leave the shared catalog, and the observers see the abort.  Called on
   cancel and on any exception escaping [start] or [step], so a failed
   query in a long-lived service leaks neither pages nor catalog entries.
   (The query's memory lease itself belongs to the workload scheduler,
   which releases it when it observes the failure.) *)
let teardown r ~error =
  let st = r.st in
  st.active_filters <- [];
  release_pages st st.filter_pages st.filter_pages.held;
  release_pages st st.worker_pages st.worker_pages.held;
  Exec_ctx.release ~last:true st.ctx;
  drop_temps r;
  observe st (Aborted error)

(* Any exception escaping [f] (executor failure, sanitizer rejection, a
   broken UDF) tears the run down, then propagates with its backtrace. *)
let guarded r f =
  try f ()
  with e ->
    let bt = Printexc.get_raw_backtrace () in
    r.aborted <- true;
    (try teardown r ~error:(Some (Printexc.to_string e)) with _ -> ());
    Printexc.raise_with_backtrace e bt

let start ?prepared cfg query =
  let r, probes = prepare ?prepared ~scratch:cfg.scratch cfg query in
  guarded r (fun () ->
      observe r.st Started;
      List.iter (fun p -> emit r.st (Ev_sampled p)) probes);
  r

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

let run_elapsed_ms r = now r.st

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
       let rows = Leaf.rows (exec_node st j) in
       emit st
         (Ev_unit_done
            { op = Plan.op_name j;
              est_rows = j.Plan.est.Plan.rows;
              actual_rows = Array.length rows });
       observe st (Unit_done j);
       let name = fresh_temp_name r in
       let bytes =
         register_temp st ~read:r.read ~name ~rows ~schema:j.Plan.schema
       in
       r.temps <- name :: r.temps;
       let leaf =
         { Plan.id = fresh_plan_id r;
           node = Plan.Materialized { name; covers = Plan.aliases j; bytes };
           schema = j.Plan.schema;
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
       decision_point r;
       span_close st utok
         ~args:
           [ ("op", Trace.Str (Plan.op_name j));
             ("est_rows", Trace.Float j.Plan.est.Plan.rows);
             ("rows", Trace.Int (Array.length rows));
             ("rf_probe_ms", Trace.Float (st.filter_probe_ms -. probe0)) ];
       (* the unit's rows live in its temp table: its scratch is free *)
       Exec_ctx.release st.ctx;
       None
     | None ->
       (* Remaining stack: aggregate/sort/project/limit over the last
          result. *)
       let utok = span_open st ~cat:"unit" "unit:finalize" in
       let rows = Leaf.rows (exec_node st st.current) in
       span_close st utok
         ~args:[ ("rows", Trace.Int (Array.length rows)) ];
       (* a bare full scan yields a base table's own storage: the
          caller, who may write the array, gets a copy *)
       let rows =
         if
           List.exists
             (fun (tbl : Catalog.table) ->
                (not tbl.temp) && Heap_file.owns tbl.heap rows)
             (Catalog.tables st.cfg.catalog)
         then Array.copy rows
         else rows
       in
       let report =
         { rows;
           result_schema = st.current.Plan.schema;
           elapsed_ms = now st;
           counters = Sim_clock.counters st.ctx.Exec_ctx.clock;
           timed_events = List.rev st.events;
           switches = r.switches;
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
           filter_pages_peak = st.filter_pages.peak;
           filter_pages_held = st.filter_pages.held;
           worker_pages_peak = st.worker_pages.peak;
           worker_pages_held = st.worker_pages.held;
           collector_ms = st.collector_ms;
           verifications = st.verifications }
       in
       observe st (Completed report);
       (* Drop temp tables so the engine can be reused; the report holds
          the rows, so the scratch and the run's buffer pool are free. *)
       drop_temps r;
       Exec_ctx.release ~last:true st.ctx;
       r.result <- Some report;
       Some report)

let step r =
  if r.aborted then invalid_arg "Dispatcher.step: aborted run";
  guarded r (fun () -> step_once r)

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
  (* Uniform stat block: a sanitized run and a plain one render the same
     lines, so explain-analyze output can be diffed across them without
     normalisation. *)
  Fmt.pf fmt "collectors: %d (%.1f ms)@." report.collectors
    report.collector_ms;
  let filters =
    List.filter_map
      (function
        | _, Ev_filter { target_col; est_sel; observed_sel; _ } ->
          Some (target_col, est_sel, observed_sel)
        | _ -> None)
      report.timed_events
  in
  Fmt.pf fmt "runtime filters: %d (%d pages peak, %d held at completion)@."
    (List.length filters) report.filter_pages_peak report.filter_pages_held;
  List.iter
    (fun (col, est, obs) ->
       Fmt.pf fmt "  filter on %s: sel est=%.3f observed=%.3f@." col est obs)
    filters;
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
