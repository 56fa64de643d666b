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

let canon rows =
  Array.to_list rows
  |> List.map (fun t -> Array.to_list (Array.map Value.to_string t))
  |> List.sort compare

let modes =
  [ Dispatcher.Off; Dispatcher.Memory_only; Dispatcher.Plan_only;
    Dispatcher.Full; Dispatcher.Bound_checked ]

(* One engine per configuration, shared across every query and mode. *)
let dop4 = lazy (engine ~sanitize:true ~max_dop:4 ())
let serial = lazy (engine ~sanitize:true ~max_dop:1 ())

let test_dop_changes_only_order (q : Queries.query) () =
  List.iter
    (fun mode ->
       let s = Engine.run_sql (Lazy.force serial) ~mode q.Queries.sql in
       let p = Engine.run_sql (Lazy.force dop4) ~mode q.Queries.sql in
       Alcotest.(check (list (list string)))
         (Printf.sprintf "%s [%s] same multiset at dop 1 and 4" q.Queries.name
            (Dispatcher.mode_to_string mode))
         (canon s.Dispatcher.rows) (canon p.Dispatcher.rows))
    modes

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
    (fun (q : Queries.query) ->
       Alcotest.test_case
         (q.Queries.name ^ " dop changes only order") `Quick
         (test_dop_changes_only_order q))
    Queries.all
  @ [ Alcotest.test_case "parallel leases release" `Quick
        test_parallel_leases_release;
      Alcotest.test_case "serial plans stay serial" `Quick
        test_serial_plans_stay_serial ]
