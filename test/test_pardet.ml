(* Plan degrees of parallelism end to end: raising the degree reorders
   rows at most within the result multiset, parallel operators release
   their worker slices, and max dop 1 keeps every plan serial. *)
module Engine = Mqr_core.Engine
module Dispatcher = Mqr_core.Dispatcher
module Optimizer = Mqr_opt.Optimizer
module Plan = Mqr_opt.Plan
module Queries = Mqr_tpcd.Queries
module Tpcd_workload = Mqr_tpcd.Workload
module Verifier = Mqr_analysis.Verifier
module Value = Mqr_storage.Value
module Tuple = Mqr_storage.Tuple
module Query = Mqr_sql.Query
module Stats_env = Mqr_opt.Stats_env
module Reopt_policy = Mqr_core.Reopt_policy

let sf = 0.001

let catalog =
  lazy
    (Tpcd_workload.experiment_catalog ~sf
       ~degradations:Tpcd_workload.paper_degradations ())

let engine ?runtime_filters ?sanitize ~max_dop () =
  let budget_pages = 128 in
  let opt_options =
    { Optimizer.default_options with
      Optimizer.planning_mem_pages = max 8 (budget_pages / 2);
      max_dop }
  in
  Engine.create ~budget_pages ~pool_pages:(8 * budget_pages) ~opt_options
    ?runtime_filters ?sanitize (Lazy.force catalog)


let modes =
  [ Dispatcher.Off; Dispatcher.Memory_only; Dispatcher.Plan_only;
    Dispatcher.Full; Dispatcher.Bound_checked ]

(* One engine per configuration, shared across every query and mode. *)
let dop4 = lazy (engine ~sanitize:true ~max_dop:4 ())
let serial = lazy (engine ~sanitize:true ~max_dop:1 ())

let test_dop_changes_only_order (name, sql) () =
  List.iter
    (fun mode ->
       let s = Engine.run_sql (Lazy.force serial) ~mode sql in
       let p = Engine.run_sql (Lazy.force dop4) ~mode sql in
       let terms =
         Reference.largest_relation (Lazy.force catalog)
           (Engine.bind_sql (Lazy.force serial) sql)
       in
       Reference.check ~tol:(Reference.one_sign ~terms)
         (Printf.sprintf "%s [%s] same multiset at dop 1 and 4" name
            (Dispatcher.mode_to_string mode))
         s.Dispatcher.rows p.Dispatcher.rows)
    modes

(* Many rows tie on the ORDER BY key, and the LIMIT keeps five of them:
   ORDER BY's total order makes the five the same under every plan. *)
let tie_query =
  ( "ORDER BY tie under LIMIT",
    "select c_nationkey, o_orderkey from customer, orders where c_custkey = \
     o_custkey and o_orderdate < date '1995-01-01' order by c_nationkey \
     limit 5" )

(* A tie query over a third relation, so a run can switch plans once
   customer and orders are joined.  The switched plan's joins no longer
   carry c_acctbal (the temp table has applied its filter), which sorts
   first among the columns a plan without a switch carries. *)
let tie3_sql =
  "select c_nationkey, o_orderkey from nation, customer, orders where \
   n_nationkey = c_nationkey and c_custkey = o_custkey and c_acctbal > 0 \
   order by c_nationkey limit 5"

(* Both tie queries keep the same five rows, in the same order, in every
   mode at dop 1 and 4, and under a forced switch: every decision point
   re-plans (theta1 = infinity, theta2 = -infinity) and each re-plan
   prices its relations at one row, so the candidate always wins. *)
let test_tie_same_rows_every_plan () =
  let rows_of (r : Dispatcher.report) =
    List.map Tuple.to_string (Array.to_list r.Dispatcher.rows)
  in
  let forced e ~mode sql =
    let e =
      Engine.with_params e
        { Reopt_policy.default_params with
          Reopt_policy.theta1 = infinity;
          theta2 = neg_infinity }
    in
    let calls = ref 0 in
    let env_overlay (q : Query.t) env =
      incr calls;
      if !calls > 1 then
        List.iter
          (fun (r : Query.relation) ->
             Stats_env.override_rows env ~alias:r.Query.alias ~rows:1.0)
          q.Query.relations
    in
    Dispatcher.run
      (Engine.dispatcher_config e ~mode ~env_overlay ())
      (Engine.bind_sql e sql)
  in
  List.iter
    (fun sql ->
       let expect =
         rows_of (Engine.run_sql (Lazy.force serial) ~mode:Dispatcher.Off sql)
       in
       List.iter
         (fun (what, e) ->
            List.iter
              (fun mode ->
                 let name = Dispatcher.mode_to_string mode in
                 Alcotest.(check (list string))
                   (Printf.sprintf "%s [%s]" what name)
                   expect
                   (rows_of (Engine.run_sql (Lazy.force e) ~mode sql));
                 let r = forced (Lazy.force e) ~mode sql in
                 Alcotest.(check (list string))
                   (Printf.sprintf "%s [%s], forced switch" what name)
                   expect (rows_of r);
                 if sql == tie3_sql
                 && (mode = Dispatcher.Plan_only || mode = Dispatcher.Full)
                 then
                   Alcotest.(check bool)
                     (Printf.sprintf "%s [%s] switched" what name)
                     true (r.Dispatcher.switches > 0))
              modes)
         [ ("dop 1", serial); ("dop 4", dop4) ])
    [ snd tie_query; tie3_sql ]

(* A parallel plan actually runs parallel operators, and the sanitizer's
   lease invariants hold with parallelism on: filter pages and worker
   slices are both back to zero at completion. *)
let test_parallel_leases_release () =
  let e =
    engine ~runtime_filters:true ~sanitize:true ~max_dop:4 ()
  in
  let r = Engine.run_sql e (Queries.find "Q5").Queries.sql in
  Alcotest.(check bool) "some operator ran parallel" true
    (r.Dispatcher.worker_pages_peak > 0);
  Alcotest.(check int) "worker slices released" 0
    r.Dispatcher.worker_pages_held;
  Alcotest.(check int) "filter pages released" 0
    r.Dispatcher.filter_pages_held

(* The optimizer only spends degrees where they pay: with max_dop 1 every
   node stays serial (so serial plans are untouched by the feature). *)
let test_serial_plans_stay_serial () =
  let r = Engine.run_sql (Lazy.force serial) (Queries.find "Q3").Queries.sql in
  List.iter
    (fun (n : Plan.t) ->
       Alcotest.(check int) "dop 1" 1 n.Plan.dop)
    (Plan.nodes r.Dispatcher.final_plan)

let suite =
  List.map
    (fun (name, sql) ->
       Alcotest.test_case (name ^ " dop changes only order") `Quick
         (test_dop_changes_only_order (name, sql)))
    (List.map (fun (q : Queries.query) -> (q.Queries.name, q.Queries.sql))
       Queries.all
     @ [ tie_query ])
  @ [ Alcotest.test_case "ORDER BY tie under LIMIT same rows every plan"
        `Quick test_tie_same_rows_every_plan;
      Alcotest.test_case "parallel leases release" `Quick
        test_parallel_leases_release;
      Alcotest.test_case "serial plans stay serial" `Quick
        test_serial_plans_stay_serial ]
