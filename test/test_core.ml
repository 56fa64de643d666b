open Mqr_storage
module Catalog = Mqr_catalog.Catalog
module Column_stats = Mqr_catalog.Column_stats
module Parser = Mqr_sql.Parser
module Query = Mqr_sql.Query
module Plan = Mqr_opt.Plan
module Optimizer = Mqr_opt.Optimizer
module Stats_env = Mqr_opt.Stats_env
module Inaccuracy = Mqr_core.Inaccuracy
module Scia = Mqr_core.Scia
module Reopt_policy = Mqr_core.Reopt_policy
module Dispatcher = Mqr_core.Dispatcher
module Engine = Mqr_core.Engine
module Collector = Mqr_exec.Collector
module Expr = Mqr_expr.Expr

(* ------------------------------------------------------------------ *)
(* Fixture: small 3-table schema usable with the reference executor.   *)

let mini_catalog ?(kind = Mqr_stats.Histogram.Maxdiff) () =
  let catalog = Catalog.create () in
  let rng = Mqr_stats.Rng.create 11 in
  let t_schema =
    Schema.make
      [ Schema.col "tk" Value.TInt; Schema.col "tval" Value.TInt;
        Schema.col "tcat" Value.TString ]
  in
  let u_schema =
    Schema.make [ Schema.col "uk" Value.TInt; Schema.col "ufk" Value.TInt;
                  Schema.col "uval" Value.TInt ]
  in
  let v_schema =
    Schema.make [ Schema.col "vk" Value.TInt; Schema.col "vtag" Value.TString ]
  in
  let t = Heap_file.create t_schema in
  for i = 0 to 39 do
    Heap_file.append t
      [| Value.Int i; Value.Int (Mqr_stats.Rng.int rng 100);
         Value.String (if i mod 4 = 0 then "gold" else "base") |]
  done;
  let u = Heap_file.create u_schema in
  for i = 0 to 59 do
    Heap_file.append u
      [| Value.Int i; Value.Int (i mod 40); Value.Int (Mqr_stats.Rng.int rng 50) |]
  done;
  let v = Heap_file.create v_schema in
  for i = 0 to 9 do
    Heap_file.append v
      [| Value.Int i; Value.String (Printf.sprintf "tag%d" (i mod 3)) |]
  done;
  ignore (Catalog.add_table catalog "t" t);
  ignore (Catalog.add_table catalog "u" u);
  ignore (Catalog.add_table catalog "v" v);
  Catalog.analyze_table ~kind ~keys:[ "tk" ] catalog "t";
  Catalog.analyze_table ~kind ~keys:[ "uk" ] catalog "u";
  Catalog.analyze_table ~kind ~keys:[ "vk" ] catalog "v";
  ignore (Catalog.create_index catalog ~table:"t" ~column:"tk");
  catalog

(* ------------------------------------------------------------------ *)
(* Inaccuracy-potential rules.                                         *)

let env_for catalog sql =
  let q = Query.bind catalog (Parser.parse sql) in
  (q, Stats_env.create catalog q.Query.relations)

let plan_for catalog sql =
  let q, env = env_for catalog sql in
  ((Optimizer.optimize ~env q).Optimizer.plan, env)

let test_base_histogram_levels () =
  let catalog = mini_catalog () in
  let _, env = env_for catalog "select tval from t" in
  Alcotest.(check string) "maxdiff -> low" "low"
    (Inaccuracy.level_to_string (Inaccuracy.base_histogram_level env ~column:"t.tval"));
  Catalog.degrade_drop_histogram catalog ~table:"t" ~column:"tval";
  let _, env = env_for catalog "select tval from t" in
  Alcotest.(check string) "none -> high" "high"
    (Inaccuracy.level_to_string (Inaccuracy.base_histogram_level env ~column:"t.tval"))

let test_equi_histogram_is_medium () =
  let catalog = mini_catalog ~kind:Mqr_stats.Histogram.Equi_width () in
  let _, env = env_for catalog "select tval from t" in
  Alcotest.(check string) "equi-width -> medium" "medium"
    (Inaccuracy.level_to_string (Inaccuracy.base_histogram_level env ~column:"t.tval"))

let test_stale_bumps () =
  let catalog = mini_catalog () in
  Catalog.degrade_mark_stale catalog ~table:"t" ~column:"tval";
  let _, env = env_for catalog "select tval from t" in
  Alcotest.(check string) "stale maxdiff -> medium" "medium"
    (Inaccuracy.level_to_string (Inaccuracy.base_histogram_level env ~column:"t.tval"))

let test_multi_attr_filter_bumps () =
  let catalog = mini_catalog () in
  let plan1, env1 = plan_for catalog "select tk from t where tval < 50" in
  let plan2, env2 =
    plan_for catalog "select tk from t where tval < 50 and tcat = 'gold'"
  in
  let lvl1 = Inaccuracy.cardinality_level env1 plan1 in
  let lvl2 = Inaccuracy.cardinality_level env2 plan2 in
  Alcotest.(check bool) "correlated filter worse" true
    (Inaccuracy.compare_level lvl2 lvl1 > 0)

let test_udf_filter_high () =
  let catalog = mini_catalog () in
  let q =
    Query.bind catalog
      (Parser.parse
         ~udfs:[ { Parser.name = "f"; fn = (fun _ -> Value.Bool true); selectivity = None } ]
         "select tk from t where f(tval)")
  in
  let env = Stats_env.create catalog q.Query.relations in
  let plan = (Optimizer.optimize ~env q).Optimizer.plan in
  Alcotest.(check string) "udf -> high" "high"
    (Inaccuracy.level_to_string (Inaccuracy.cardinality_level env plan))

let test_distinct_level_intermediate_high () =
  let catalog = mini_catalog () in
  let plan, env = plan_for catalog "select tval from t where tcat = 'gold'" in
  Alcotest.(check string) "post-filter distinct high" "high"
    (Inaccuracy.level_to_string (Inaccuracy.distinct_level env plan ~column:"t.tval"))

let test_bump_saturates () =
  Alcotest.(check string) "high stays high" "high"
    (Inaccuracy.level_to_string (Inaccuracy.bump Inaccuracy.High))

(* ------------------------------------------------------------------ *)
(* SCIA.                                                               *)

let test_scia_inserts_for_join_columns () =
  let catalog = mini_catalog () in
  Catalog.degrade_drop_histogram catalog ~table:"u" ~column:"ufk";
  let plan, env =
    plan_for catalog
      "select uval from t, u where t.tk = u.ufk and tcat = 'gold'"
  in
  let outcome = Scia.insert ~mu:0.10 ~env ~first_id:1000 plan in
  Alcotest.(check bool) "kept some stats" true (outcome.Scia.kept <> []);
  let collects =
    Plan.fold
      (fun acc n -> match n.Plan.node with Plan.Collect _ -> acc + 1 | _ -> acc)
      0 outcome.Scia.plan
  in
  Alcotest.(check bool) "collect operators inserted" true (collects > 0);
  let collect_ids =
    Plan.fold
      (fun acc n ->
         match n.Plan.node with Plan.Collect _ -> n.Plan.id :: acc | _ -> acc)
      [] outcome.Scia.plan
  in
  Alcotest.(check (list int)) "wrapper ids from first_id"
    (List.init collects (fun i -> 1000 + i))
    (List.sort Int.compare collect_ids);
  Alcotest.(check int) "next_id past the wrappers" (1000 + collects)
    outcome.Scia.next_id

let test_scia_budget_respected () =
  let catalog = mini_catalog () in
  let plan, env =
    plan_for catalog
      "select tcat, sum(uval) as s from t, u, v \
       where t.tk = u.ufk and u.uval = v.vk and tcat = 'gold' group by tcat"
  in
  let outcome = Scia.insert ~mu:0.05 ~env ~first_id:1000 plan in
  let spent =
    List.fold_left (fun acc c -> acc +. c.Scia.collect_ms) 0.0 outcome.Scia.kept
  in
  Alcotest.(check bool) "within budget" true (spent <= outcome.Scia.budget_ms +. 1e-9)

let test_scia_zero_budget_drops_all () =
  let catalog = mini_catalog () in
  let plan, env =
    plan_for catalog "select uval from t, u where t.tk = u.ufk"
  in
  let outcome = Scia.insert ~mu:0.0 ~env ~first_id:1000 plan in
  Alcotest.(check (list string)) "nothing kept" []
    (List.map (fun c -> c.Scia.column) outcome.Scia.kept)

let test_scia_ranking_prefers_high_inaccuracy () =
  let catalog = mini_catalog () in
  Catalog.degrade_drop_histogram catalog ~table:"u" ~column:"ufk";
  let plan, env =
    plan_for catalog
      "select uval from t, u where t.tk = u.ufk and u.uval < 25"
  in
  let outcome = Scia.insert ~mu:1.0 ~env ~first_id:1000 plan in
  (* with an unconstrained budget everything is kept, ranked by level *)
  match outcome.Scia.kept with
  | [] -> Alcotest.fail "expected candidates"
  | first :: _ ->
    Alcotest.(check string) "most inaccurate first" "high"
      (Inaccuracy.level_to_string first.Scia.level)

let test_scia_no_candidates_for_single_table_scan () =
  let catalog = mini_catalog () in
  let plan, env = plan_for catalog "select tval from t where tval < 50" in
  let outcome = Scia.insert ~mu:0.5 ~env ~first_id:1000 plan in
  Alcotest.(check (list string)) "no stats useful" []
    (List.map (fun c -> c.Scia.column) outcome.Scia.kept)

(* ------------------------------------------------------------------ *)
(* Re-optimization policy.                                             *)

let params = Reopt_policy.default_params

let test_policy_eq1 () =
  (* optimizer invocation too expensive relative to the remainder *)
  Alcotest.(check string) "too cheap" "too-cheap (Eq. 1)"
    (Reopt_policy.decision_to_string
       (Reopt_policy.should_consider params ~t_opt_estimated:10.0
          ~t_improved:100.0 ~t_optimizer:50.0))

let test_policy_eq2 () =
  Alcotest.(check string) "close enough" "close-enough (Eq. 2)"
    (Reopt_policy.decision_to_string
       (Reopt_policy.should_consider params ~t_opt_estimated:1.0
          ~t_improved:110.0 ~t_optimizer:100.0))

let test_policy_consider () =
  Alcotest.(check string) "consider" "consider"
    (Reopt_policy.decision_to_string
       (Reopt_policy.should_consider params ~t_opt_estimated:1.0
          ~t_improved:200.0 ~t_optimizer:100.0))

let test_policy_acceptance () =
  Alcotest.(check bool) "cheaper accepted" true
    (Reopt_policy.accept_new_plan ~t_new_total:90.0 ~t_improved:100.0);
  Alcotest.(check bool) "ties rejected" false
    (Reopt_policy.accept_new_plan ~t_new_total:100.0 ~t_improved:100.0)

(* ------------------------------------------------------------------ *)
(* Reopt_policy.decide: Section 2.4's composition, without a run.      *)

let decide_sql =
  "select vtag, count(*) as n from t, u, v \
   where t.tk = u.ufk and u.uval = v.vk group by vtag"

(* A decision point before any unit ran: the remainder is the optimized
   plan itself.  [orig_scale] scales the original per-node estimates
   (T_cur,optimizer), [improved_scale] the remainder's total
   (T_cur,improved). *)
let decide_view ?(mode = Reopt_policy.Full) ?(theta1 = 1e9) ?(force = false)
    ?(orig_scale = 1.0) ?(improved_scale = 1.0) ?env_overlay catalog =
  let plan, _ = plan_for catalog decide_sql in
  let q, _ = env_for catalog decide_sql in
  let remainder =
    { plan with
      Plan.est =
        { plan.Plan.est with
          Plan.total_ms = plan.Plan.est.Plan.total_ms *. improved_scale } }
  in
  { Reopt_policy.catalog;
    opt_options = Optimizer.default_options;
    params = { Reopt_policy.default_params with Reopt_policy.theta1 };
    mode;
    env_overlay;
    query = q;
    remainder;
    orig_op_ms =
      (fun id ->
         List.find_map
           (fun (n : Plan.t) ->
              if n.Plan.id = id then Some (n.Plan.est.Plan.op_ms *. orig_scale)
              else None)
           (Plan.nodes plan));
    overrides = [];
    switches = 0;
    force }

let verdict_kind = function
  | Reopt_policy.Keep None -> "keep"
  | Reopt_policy.Keep (Some t) ->
    "keep: " ^ Reopt_policy.decision_to_string t.Reopt_policy.decision
  | Reopt_policy.Reject _ -> "reject"
  | Reopt_policy.Switch _ -> "switch"

let test_decide_force () =
  let catalog = mini_catalog () in
  let overlays = ref 0 in
  let env_overlay _ _ = incr overlays in
  (* original estimates equal the improved ones: Eq. 2 says close enough *)
  let keep = Reopt_policy.decide (decide_view ~env_overlay catalog) in
  Alcotest.(check string) "close enough keeps the plan"
    "keep: close-enough (Eq. 2)" (verdict_kind keep);
  Alcotest.(check int) "no re-plan, no overlay" 0 !overlays;
  (match Reopt_policy.decide (decide_view ~force:true ~env_overlay catalog) with
   | Reopt_policy.Keep _ -> Alcotest.fail "force must re-plan past Eq. 2"
   | Reopt_policy.Reject (t, c) | Reopt_policy.Switch (t, c) ->
     Alcotest.(check bool) "terms record the override" true
       t.Reopt_policy.forced;
     Alcotest.(check string) "Eq. 2 still reads close enough"
       "close-enough (Eq. 2)"
       (Reopt_policy.decision_to_string t.Reopt_policy.decision);
     Alcotest.(check bool) "the re-plan enumerated plans" true
       (c.Reopt_policy.plans_enumerated > 0));
  Alcotest.(check int) "one re-plan, one overlay" 1 !overlays;
  (* theta1 = 0: the optimizer call always dwarfs the remainder *)
  Alcotest.(check string) "force never overrides Eq. 1"
    "keep: too-cheap (Eq. 1)"
    (verdict_kind
       (Reopt_policy.decide
          (decide_view ~theta1:0.0 ~force:true ~env_overlay catalog)));
  Alcotest.(check int) "Eq. 1 keeps without an overlay" 1 !overlays;
  Alcotest.(check string) "memory-only never considers" "keep"
    (verdict_kind
       (Reopt_policy.decide
          (decide_view ~mode:Reopt_policy.Memory_only ~force:true catalog)))

let test_decide_bound_veto () =
  let catalog = mini_catalog () in
  (* the remainder looks 1000x dearer than planned: Eq. 2 says consider
     and the re-planned candidate wins on the estimate *)
  let view mode = decide_view ~mode ~improved_scale:1000.0 catalog in
  (match Reopt_policy.decide (view Reopt_policy.Full) with
   | Reopt_policy.Switch (t, c) ->
     Alcotest.(check bool) "estimate accepts" true
       (c.Reopt_policy.t_new_total < t.Reopt_policy.t_improved);
     Alcotest.(check bool) "full runs no bound check" true
       (c.Reopt_policy.bound_check = None)
   | v -> Alcotest.failf "full: expected a switch, got %s" (verdict_kind v));
  match Reopt_policy.decide (view Reopt_policy.Bound_checked) with
  | Reopt_policy.Reject (t, { Reopt_policy.t_new_total; bound_check = Some b; _ })
    ->
    Alcotest.(check bool) "estimate accepts" true
      (t_new_total < t.Reopt_policy.t_improved);
    Alcotest.(check bool) "worst case does not beat best case" true
      (b.Reopt_policy.new_hi_ms >= b.Reopt_policy.cur_lo_ms);
    Alcotest.(check bool) "vetoed" false b.Reopt_policy.admitted
  | v -> Alcotest.failf "bound-checked: expected a veto, got %s" (verdict_kind v)

let test_decide_rejects_dearer () =
  let catalog = mini_catalog () in
  (* the original estimates were a tenth of the plan's: Eq. 2 says
     consider; the improved total is half the plan's, which the same plan
     re-planned cannot beat *)
  match
    Reopt_policy.decide
      (decide_view ~orig_scale:0.1 ~improved_scale:0.5 catalog)
  with
  | Reopt_policy.Reject (t, c) ->
    Alcotest.(check string) "considered" "consider"
      (Reopt_policy.decision_to_string t.Reopt_policy.decision);
    Alcotest.(check bool) "T_new >= T_improved" true
      (c.Reopt_policy.t_new_total >= t.Reopt_policy.t_improved)
  | v -> Alcotest.failf "expected a rejection, got %s" (verdict_kind v)

let test_decide_is_pure () =
  let catalog = mini_catalog () in
  let clock = Sim_clock.create () in
  let q, env = env_for catalog decide_sql in
  ignore
    (Optimizer.optimize ~clock ~env q);
  let catalog_state () =
    List.sort compare
      (List.map
         (fun (t : Catalog.table) ->
            ( t.Catalog.name,
              t.Catalog.believed_rows,
              t.Catalog.believed_pages,
              t.Catalog.stats_epoch,
              Array.length t.Catalog.stats ))
         (Catalog.tables catalog))
  in
  let stats_arrays () =
    List.map (fun name -> (Catalog.find_exn catalog name).Catalog.stats)
      [ "t"; "u"; "v" ]
  in
  let env_state () =
    List.map
      (fun (r : Stats_env.rel_info) ->
         ( r.Stats_env.alias,
           r.Stats_env.rows,
           List.map
             (fun (c, _) -> Stats_env.stats_of env c)
             r.Stats_env.col_stats ))
      (Stats_env.relations env)
  in
  let elapsed = Sim_clock.elapsed_ms clock in
  let cat0 = catalog_state () and stats0 = stats_arrays () in
  let env0 = env_state () in
  let view = decide_view ~improved_scale:1000.0 catalog in
  let text0 = Plan.to_string view.Reopt_policy.remainder in
  (match Reopt_policy.decide view with
   | Reopt_policy.Switch _ -> ()
   | v -> Alcotest.failf "expected a switch, got %s" (verdict_kind v));
  Alcotest.(check (float 0.0)) "clock reading unchanged" elapsed
    (Sim_clock.elapsed_ms clock);
  Alcotest.(check bool) "catalog tables unchanged" true
    (catalog_state () = cat0);
  Alcotest.(check bool) "catalog statistics untouched" true
    (List.for_all2 ( == ) (stats_arrays ()) stats0);
  Alcotest.(check bool) "estimation env unchanged" true
    (List.for_all2
       (fun (a, rows, stats) (a', rows', stats') ->
          a = a' && rows = rows'
          && List.for_all2
               (fun s s' ->
                  match s, s' with
                  | Some x, Some y -> x == y
                  | None, None -> true
                  | _ -> false)
               stats stats')
       (env_state ()) env0);
  Alcotest.(check string) "remainder unchanged" text0
    (Plan.to_string view.Reopt_policy.remainder)

(* ------------------------------------------------------------------ *)
(* Dispatcher integration: engine results vs brute-force reference.    *)

let integration_queries =
  [ "select tval from t where tval < 50";
    "select tcat, count(*) as n from t group by tcat";
    "select uval from t, u where t.tk = u.ufk and tcat = 'gold'";
    "select tcat, sum(uval) as s from t, u where t.tk = u.ufk group by tcat";
    "select vtag, count(*) as n from t, u, v \
     where t.tk = u.ufk and u.uval = v.vk group by vtag";
    "select tval from t order by tval desc limit 5";
    "select tcat, avg(tval) as a from t group by tcat order by tcat";
    "select t.tk, uval from t, u where t.tk = u.ufk and uval < 10 \
     order by uval, tk limit 7";
    "select distinct tcat from t";
    "select distinct ufk from u order by ufk limit 5";
    "select tcat, count(*) as n from t group by tcat having n > 5";
    "select ufk, sum(uval) as s from u group by ufk having s > 50 order by s desc";
    "select tcat, count(distinct tval) as d from t group by tcat order by tcat";
    "select count(distinct ufk) as d, sum(distinct uval) as s from u";
    (* group and order on t's indexed key, whose index scan arrives in
       key order *)
    "select tk, count(*) as n from t group by tk";
    "select tk, tval from t where tk < 30 order by tk" ]

let modes =
  [ Dispatcher.Off; Dispatcher.Memory_only; Dispatcher.Plan_only;
    Dispatcher.Full; Dispatcher.Bound_checked ]

let test_engine_matches_reference () =
  let catalog = mini_catalog () in
  let engine = Engine.create ~budget_pages:32 catalog in
  List.iter
    (fun sql ->
       let q = Engine.bind_sql engine sql in
       let expect, _, bounds = Reference.eval catalog q in
       List.iter
         (fun mode ->
            let r = Engine.run_sql engine ~mode sql in
            Reference.check ~tol:(Reference.within bounds)
              (Printf.sprintf "%s [%s]" sql (Dispatcher.mode_to_string mode))
              expect r.Dispatcher.rows)
         modes)
    integration_queries

let test_order_by_respected () =
  let catalog = mini_catalog () in
  let engine = Engine.create catalog in
  let r = Engine.run_sql engine "select tval from t order by tval desc limit 5" in
  let values =
    Array.to_list (Array.map (fun t -> Value.to_float t.(0)) r.Dispatcher.rows)
  in
  let sorted = List.sort (fun a b -> compare b a) values in
  Alcotest.(check (list (float 0.0))) "descending" sorted values

let test_temp_tables_cleaned_up () =
  let catalog = mini_catalog () in
  let engine = Engine.create ~budget_pages:16 catalog in
  let before = List.length (Catalog.tables catalog) in
  ignore
    (Engine.run_sql engine
       "select uval from t, u where t.tk = u.ufk and tcat = 'gold'");
  Alcotest.(check int) "no temp leak" before (List.length (Catalog.tables catalog))

(* No temp table outlives its run, however the run ends: aborted after its
   first unit, torn down by a step that raises, or cancelled by the query
   service while running. *)
let leak_sql =
  "select vtag, count(*) as n from t, u, v \
   where t.tk = u.ufk and u.uval = v.vk group by vtag"

let temp_count catalog =
  List.length
    (List.filter (fun (t : Catalog.table) -> t.Catalog.temp) (Catalog.tables catalog))

let check_mid_run catalog =
  Alcotest.(check bool) "a temp exists mid-run" true (temp_count catalog > 0)

let check_no_temps catalog = Alcotest.(check int) "no temp left" 0 (temp_count catalog)

let test_no_temp_outlives_abort () =
  let catalog = mini_catalog () in
  let engine = Engine.create ~budget_pages:16 catalog in
  let cfg = Engine.dispatcher_config engine ~mode:Dispatcher.Full () in
  let r = Dispatcher.start cfg (Engine.bind_sql engine leak_sql) in
  Alcotest.(check bool) "first unit is not the last" true
    (Dispatcher.step r = None);
  check_mid_run catalog;
  Dispatcher.abort r;
  check_no_temps catalog

let test_no_temp_outlives_raise () =
  let catalog = mini_catalog () in
  let engine = Engine.create ~budget_pages:16 catalog in
  (* HAVING runs in the final unit, after every join's temp is registered *)
  Engine.register_udf engine ~name:"boom" (fun _ -> failwith "boom");
  let cfg = Engine.dispatcher_config engine ~mode:Dispatcher.Full () in
  let r =
    Dispatcher.start cfg (Engine.bind_sql engine (leak_sql ^ " having boom(n)"))
  in
  let rec drive () =
    match Dispatcher.step r with
    | Some _ -> Alcotest.fail "the UDF never ran"
    | None ->
      check_mid_run catalog;
      drive ()
  in
  Alcotest.check_raises "the UDF raises" (Failure "boom") drive;
  Alcotest.(check bool) "torn down" true (Dispatcher.aborted r);
  check_no_temps catalog

(* The engine's scratch is back whenever no step runs: after each step
   of a run, after a step that raised (a UDF in lineitem's scan filter,
   which borrowed the filter's positions first) and after an abort; the
   torn-down run's buffer pool is kept for the next run. *)
let test_scratch_released () =
  let catalog = Mqr_tpcd.Workload.experiment_catalog ~sf:0.001 () in
  let engine = Engine.create ~budget_pages:64 ~sanitize:true catalog in
  Engine.register_udf engine ~name:"boom" (fun _ -> failwith "boom");
  let cfg = Engine.dispatcher_config engine ~mode:Dispatcher.Full () in
  let lent () = Mqr_exec.Exec_ctx.lent cfg.Dispatcher.scratch in
  let r = Dispatcher.start cfg (Engine.bind_sql engine (Mqr_tpcd.Queries.find "Q3").Mqr_tpcd.Queries.sql) in
  let rec drive () =
    let done_ = Dispatcher.step r in
    Alcotest.(check int) "nothing lent after a step" 0 (lent ());
    if Option.is_none done_ then drive ()
  in
  drive ();
  let r =
    Dispatcher.start cfg
      (Engine.bind_sql engine
         "select count(*) as n from lineitem where l_quantity < 24 and boom(l_quantity)")
  in
  Alcotest.check_raises "the UDF raises" (Failure "boom") (fun () ->
      ignore (Dispatcher.step r));
  Alcotest.(check int) "nothing lent after a raising step" 0 (lent ());
  Alcotest.(check bool) "the run's pool is kept" true
    (Mqr_exec.Exec_ctx.retained_bytes cfg.Dispatcher.scratch > 0);
  let r = Dispatcher.start cfg (Engine.bind_sql engine (Mqr_tpcd.Queries.find "Q10").Mqr_tpcd.Queries.sql) in
  ignore (Dispatcher.step r);
  Dispatcher.abort r;
  Alcotest.(check int) "nothing lent after an abort" 0 (lent ())

(* A start raises in start-time sampling (the UDF), or in the verifier
   once the query span is open (a cached plan whose collectors share an
   id). *)
let test_raising_start_leaves_nothing () =
  let catalog = mini_catalog () in
  let tr = Mqr_obs.Trace.create () in
  let engine = Engine.create ~budget_pages:16 ~trace:tr ~sanitize:true catalog in
  Engine.register_udf engine ~name:"boom" (fun _ -> failwith "boom");
  Alcotest.check_raises "the UDF raises" (Failure "boom") (fun () ->
      ignore
        (Engine.run_sql engine ~probe_rows:10
           "select count(*) as n from t where boom(tval)"));
  Alcotest.(check int) "no open span" 0 (Mqr_obs.Trace.open_spans tr);
  let cfg =
    Engine.dispatcher_config engine ~mode:Dispatcher.Full
      ~trace:(Mqr_obs.Trace.scope tr ~label:"rejected" ()) ()
  in
  let q = Engine.bind_sql engine leak_sql in
  let rec one_cid (p : Plan.t) =
    let p = Plan.with_children p (List.map one_cid (Plan.children p)) in
    match p.Plan.node with
    | Plan.Collect c -> { p with Plan.node = Plan.Collect { c with cid = 0 } }
    | _ -> p
  in
  (match
     Dispatcher.start ~prepared:(one_cid (Dispatcher.initial_plan cfg q), 0)
       cfg q
   with
   | _ -> Alcotest.fail "the verifier accepted duplicate collector ids"
   | exception Mqr_analysis.Verifier.Rejected _ -> ());
  Alcotest.(check int) "no open span after a rejection" 0
    (Mqr_obs.Trace.open_spans tr);
  check_no_temps catalog

let test_no_temp_outlives_cancel () =
  let catalog = mini_catalog () in
  let engine = Engine.create ~budget_pages:16 catalog in
  let svc = Mqr_wlm.Service.create engine in
  Mqr_wlm.Service.add_tenant svc ~slo:Mqr_wlm.Session.Batch "etl";
  let s = Mqr_wlm.Service.open_session svc ~tenant:"etl" in
  let id = Mqr_wlm.Session.submit s leak_sql in
  ignore (Mqr_wlm.Service.step svc);
  Alcotest.(check string) "running" "running"
    (Mqr_wlm.Session.status_to_string (Mqr_wlm.Session.poll s id));
  check_mid_run catalog;
  Alcotest.(check bool) "cancelled" true (Mqr_wlm.Session.cancel s id);
  check_no_temps catalog

let test_simple_query_overhead_bounded () =
  let catalog = mini_catalog () in
  let engine = Engine.create catalog in
  let sql = "select tcat, count(*) as n from t group by tcat" in
  let elapsed mode = (Engine.run_sql engine ~mode sql).Dispatcher.elapsed_ms in
  let off = elapsed Dispatcher.Off in
  let full = elapsed Dispatcher.Full in
  (* collector overhead is bounded by mu plus slack for rounding *)
  Alcotest.(check bool)
    (Printf.sprintf "overhead bounded: off=%.2f full=%.2f" off full)
    true
    (full <= off *. (1.0 +. (Engine.params engine).Reopt_policy.mu +. 0.05))

let test_udf_query_runs () =
  let catalog = mini_catalog () in
  let engine = Engine.create catalog in
  Engine.register_udf engine ~name:"is_small" (function
      | [ Value.Int v ] -> Value.Bool (v < 20)
      | _ -> Value.Null);
  let r = Engine.run_sql engine "select tval from t where is_small(tval)" in
  Array.iter
    (fun t ->
       match t.(0) with
       | Value.Int v -> Alcotest.(check bool) "udf filtered" true (v < 20)
       | _ -> Alcotest.fail "type")
    r.Dispatcher.rows

let test_explain_annotated () =
  let catalog = mini_catalog () in
  let engine = Engine.create catalog in
  let plan = Engine.explain engine "select uval from t, u where t.tk = u.ufk" in
  Alcotest.(check bool) "explain has joins" true (Plan.join_count plan >= 1);
  Alcotest.(check bool) "annotated" true (plan.Plan.est.Plan.total_ms > 0.0)

let test_events_reported () =
  let catalog = mini_catalog () in
  let engine = Engine.create ~budget_pages:16 catalog in
  Catalog.degrade_drop_histogram catalog ~table:"u" ~column:"ufk";
  let r =
    Engine.run_sql engine
      "select vtag, count(*) as n from t, u, v \
       where t.tk = u.ufk and u.uval = v.vk group by vtag"
  in
  let has_unit_done =
    List.exists
      (function _, Dispatcher.Ev_unit_done _ -> true | _ -> false)
      r.Dispatcher.timed_events
  in
  Alcotest.(check bool) "unit events" true has_unit_done

(* A run does not depend on what ran before it, on its engine or in its
   process: the paper harness simulates each (query, mode) of a cell once
   and every table reads that report.  Q3/Q5/Q7/Q8/Q10 under the five
   modes, at sf 0.001 with the paper's degradations, each on a fresh
   catalog and engine, against all of them run in order and then in
   reverse order on one shared engine.  Then an INSERT, a DELETE and an
   ANALYZE run on the shared engine, each followed by every query in
   full mode, against a fresh engine that ran only the same statements:
   what a run keeps of the tables it read (a collector's summary of a
   full scan) must follow the tables' rows. *)
let test_run_independent_of_history () =
  let module Queries = Mqr_tpcd.Queries in
  let engine () =
    Engine.create ~budget_pages:64 ~pool_pages:512
      (Mqr_tpcd.Workload.experiment_catalog ~sf:0.001 ())
  in
  let pairs =
    List.concat_map
      (fun name -> List.map (fun mode -> (Queries.find name, mode)) modes)
      [ "Q3"; "Q5"; "Q7"; "Q8"; "Q10" ]
  in
  (* in list order, one run after the other *)
  let run_all engine pairs =
    List.rev
      (List.fold_left
         (fun acc ((q : Queries.query), mode) ->
            Engine.run_sql (engine ()) ~mode q.Queries.sql :: acc)
         [] pairs)
  in
  let fresh = run_all engine pairs in
  let shared = engine () in
  let in_order = run_all (fun () -> shared) pairs in
  let reversed = List.rev (run_all (fun () -> shared) (List.rev pairs)) in
  let same what (a : Dispatcher.report) (b : Dispatcher.report) =
    Alcotest.(check bool) (what ^ " rows") true
      (compare a.Dispatcher.rows b.Dispatcher.rows = 0);
    Alcotest.(check int64) (what ^ " elapsed bits")
      (Int64.bits_of_float a.Dispatcher.elapsed_ms)
      (Int64.bits_of_float b.Dispatcher.elapsed_ms);
    Alcotest.(check int) (what ^ " switches") a.Dispatcher.switches
      b.Dispatcher.switches;
    Alcotest.(check int) (what ^ " collectors") a.Dispatcher.collectors
      b.Dispatcher.collectors;
    Alcotest.(check bool) (what ^ " observed statistics") true
      (compare a.Dispatcher.observed_stats b.Dispatcher.observed_stats = 0);
    Alcotest.(check bool) (what ^ " timed events") true
      (compare a.Dispatcher.timed_events b.Dispatcher.timed_events = 0)
  in
  List.iteri
    (fun i ((q : Queries.query), mode) ->
       List.iter
         (fun (order, b) ->
            same
              (Printf.sprintf "%s %s %s" q.Queries.name
                 (Dispatcher.mode_to_string mode) order)
              (List.nth fresh i) b)
         [ ("in order", List.nth in_order i); ("reversed", List.nth reversed i) ])
    pairs;
  let statements =
    [ "insert into nation values (25, 'ATLANTIS', 1), (26, 'LEMURIA', 2)";
      "delete from supplier where s_suppkey < 4";
      "analyze supplier" ]
  in
  let full = List.filter (fun (_, mode) -> mode = Dispatcher.Full) pairs in
  List.iteri
    (fun k statement ->
       ignore (Engine.execute shared statement);
       let replay = engine () in
       List.iteri
         (fun j s -> if j <= k then ignore (Engine.execute replay s))
         statements;
       let expected = run_all (fun () -> replay) full in
       List.iteri
         (fun i b ->
            let (q : Queries.query), _ = List.nth full i in
            same (Printf.sprintf "%s after %S" q.Queries.name statement)
              (List.nth expected i) b)
         (run_all (fun () -> shared) full))
    statements

(* Every join of every plan a query runs (the initial plan and the one
   it ends on, after any switch) outputs only columns its block reads,
   [Query.needed_columns]; the top join of a plan the optimizer built
   carries all of them its inputs hold. *)
let test_joins_carry_needed_columns () =
  let catalog =
    Mqr_tpcd.Workload.experiment_catalog ~sf:0.001
      ~degradations:Mqr_tpcd.Workload.paper_degradations ()
  in
  let engine = Engine.create ~budget_pages:64 ~pool_pages:512 catalog in
  List.iter
    (fun (q : Mqr_tpcd.Queries.query) ->
       let bound = Engine.bind_sql engine q.Mqr_tpcd.Queries.sql in
       let needed = Query.needed_columns bound in
       let check label plan =
         List.iter
           (fun (p : Plan.t) ->
              if Plan.is_join p then
                List.iter
                  (fun c ->
                     let name = Schema.qualified_name c in
                     if not (List.mem name needed) then
                       Alcotest.failf "%s: join #%d carries %s" label p.Plan.id
                         name)
                  (Schema.columns p.Plan.schema))
           (Plan.nodes plan)
       in
       List.iter
         (fun mode ->
            let label =
              q.Mqr_tpcd.Queries.name ^ "/" ^ Dispatcher.mode_to_string mode
            in
            let r = Engine.run_sql engine ~mode q.Mqr_tpcd.Queries.sql in
            check (label ^ " initial") r.Dispatcher.initial_plan;
            check (label ^ " final") r.Dispatcher.final_plan;
            match List.find_opt Plan.is_join (Plan.nodes r.Dispatcher.initial_plan) with
            | None -> ()
            | Some top ->
              let names s = List.map Schema.qualified_name (Schema.columns s) in
              let held =
                List.concat_map
                  (fun (rel : Query.relation) -> names rel.Query.rel_schema)
                  bound.Query.relations
              in
              Alcotest.(check (list string)) (label ^ " top join")
                (List.sort compare (List.filter (fun c -> List.mem c needed) held))
                (List.sort compare (names top.Plan.schema)))
         modes)
    Mqr_tpcd.Queries.all

let suite =
  [ Alcotest.test_case "base histogram levels" `Quick test_base_histogram_levels;
    Alcotest.test_case "equi histogram medium" `Quick test_equi_histogram_is_medium;
    Alcotest.test_case "stale bumps" `Quick test_stale_bumps;
    Alcotest.test_case "multi-attr filter bumps" `Quick test_multi_attr_filter_bumps;
    Alcotest.test_case "udf filter high" `Quick test_udf_filter_high;
    Alcotest.test_case "intermediate distinct high" `Quick test_distinct_level_intermediate_high;
    Alcotest.test_case "bump saturates" `Quick test_bump_saturates;
    Alcotest.test_case "scia inserts collectors" `Quick test_scia_inserts_for_join_columns;
    Alcotest.test_case "scia budget" `Quick test_scia_budget_respected;
    Alcotest.test_case "scia zero budget" `Quick test_scia_zero_budget_drops_all;
    Alcotest.test_case "scia ranking" `Quick test_scia_ranking_prefers_high_inaccuracy;
    Alcotest.test_case "scia no candidates" `Quick test_scia_no_candidates_for_single_table_scan;
    Alcotest.test_case "policy eq1" `Quick test_policy_eq1;
    Alcotest.test_case "policy eq2" `Quick test_policy_eq2;
    Alcotest.test_case "policy consider" `Quick test_policy_consider;
    Alcotest.test_case "policy acceptance" `Quick test_policy_acceptance;
    Alcotest.test_case "decide: force overrides Eq. 2, not Eq. 1" `Quick
      test_decide_force;
    Alcotest.test_case "decide: bound check vetoes an accepted candidate"
      `Quick test_decide_bound_veto;
    Alcotest.test_case "decide: rejects T_new >= T_improved" `Quick
      test_decide_rejects_dearer;
    Alcotest.test_case "decide: no clock, env or catalog change" `Quick
      test_decide_is_pure;
    Alcotest.test_case "engine matches reference" `Quick test_engine_matches_reference;
    Alcotest.test_case "order by respected" `Quick test_order_by_respected;
    Alcotest.test_case "temp cleanup" `Quick test_temp_tables_cleaned_up;
    Alcotest.test_case "no temp outlives an abort" `Quick test_no_temp_outlives_abort;
    Alcotest.test_case "no temp outlives a raising step" `Quick
      test_no_temp_outlives_raise;
    Alcotest.test_case "the scratch is back after every step" `Quick
      test_scratch_released;
    Alcotest.test_case "a start that raises leaves no open span and no temp"
      `Quick test_raising_start_leaves_nothing;
    Alcotest.test_case "no temp outlives a cancel" `Quick test_no_temp_outlives_cancel;
    Alcotest.test_case "simple overhead bounded" `Quick test_simple_query_overhead_bounded;
    Alcotest.test_case "udf query" `Quick test_udf_query_runs;
    Alcotest.test_case "explain" `Quick test_explain_annotated;
    Alcotest.test_case "events reported" `Quick test_events_reported;
    Alcotest.test_case "joins carry only the needed columns" `Quick
      test_joins_carry_needed_columns;
    Alcotest.test_case "a run does not depend on the runs before it" `Quick
      test_run_independent_of_history ]
