(* Plan verifier: hand-built broken plans must produce their expected
   diagnostic codes, every benchmark plan must verify clean in both
   reopt modes, and sanitizer mode must never perturb execution (nor
   bound-checked switching change a row). *)
open Mqr_storage
module Catalog = Mqr_catalog.Catalog
module Expr = Mqr_expr.Expr
module Plan = Mqr_opt.Plan
module Collector = Mqr_exec.Collector
module Aggregate = Mqr_exec.Aggregate
module Verifier = Mqr_analysis.Verifier
module Diagnostic = Mqr_analysis.Diagnostic
module Engine = Mqr_core.Engine
module Dispatcher = Mqr_core.Dispatcher
module Queries = Mqr_tpcd.Queries
module Workload = Mqr_tpcd.Workload

(* --- a tiny two-table world: t(a int, b string), u(k int, v float) --- *)

let catalog () =
  let c = Catalog.create () in
  let t =
    Heap_file.create
      (Schema.make [ Schema.col "a" Value.TInt; Schema.col "b" Value.TString ])
  in
  for i = 0 to 99 do
    Heap_file.append t [| Value.Int i; Value.String "x" |]
  done;
  ignore (Catalog.add_table c "t" t);
  let u =
    Heap_file.create
      (Schema.make [ Schema.col "k" Value.TInt; Schema.col "v" Value.TFloat ])
  in
  for i = 0 to 49 do
    Heap_file.append u [| Value.Int i; Value.Float 0.5 |]
  done;
  ignore (Catalog.add_table c "u" u);
  Catalog.analyze_table c "t";
  Catalog.analyze_table c "u";
  c

let ctx ?budget_pages ?mu () = Verifier.context ?budget_pages ?mu (catalog ())

(* Hand-built nodes: real schemas, fabricated estimates. *)
let next_id = ref 0

let mk ?(rows = 10.0) ?(op = 1.0) ?(min_mem = 0) ?(max_mem = 0) ?(mem = 0)
    ?(dop = 1) schema node =
  incr next_id;
  let children_total =
    List.fold_left
      (fun acc (c : Plan.t) -> acc +. c.Plan.est.Plan.total_ms)
      0.0
      (Plan.children
         { Plan.id = 0; node; schema; est = { Plan.rows; width = 8.0;
           op_ms = 0.0; total_ms = 0.0 }; min_mem = 0; max_mem = 0; mem = 0;
           dop = 1 })
  in
  { Plan.id = !next_id;
    node;
    schema;
    est = { Plan.rows; width = 8.0; op_ms = op;
            total_ms = op +. children_total };
    min_mem;
    max_mem;
    mem;
    dop }

let table_schema c name =
  Schema.qualify
    (Heap_file.schema (Catalog.find_exn c name).Catalog.heap) name

let scan c ?(rows = 100.0) name =
  mk ~rows (table_schema c name)
    (Plan.Seq_scan { table = name; alias = name; filter = None })

let join ?(rows = 50.0) ?(min_mem = 1) ?(max_mem = 4) ?(mem = 0) ?(rf = [])
    ~keys build probe =
  mk ~rows ~min_mem ~max_mem ~mem
    (Schema.concat probe.Plan.schema build.Plan.schema)
    (Plan.Hash_join { build; probe; keys; extra = None; rf })

let t_join_u ?rf ?mem c =
  join ?rf ?mem ~keys:[ ("t.a", "u.k") ] (scan c "u") (scan c "t")

let error_codes diags =
  List.filter_map
    (fun (d : Diagnostic.t) ->
       if Diagnostic.is_error d then Some d.Diagnostic.code else None)
    diags

let check_has_error code diags =
  Alcotest.(check bool)
    (Printf.sprintf "diagnostic %s reported" code)
    true
    (List.mem code (error_codes diags))

(* --- seeded-broken plans, one per verifier pass --- *)

let test_well_formed_plan_clean () =
  let c = catalog () in
  let diags = Verifier.verify (ctx ()) (t_join_u c) in
  Alcotest.(check (list string)) "no errors" [] (error_codes diags)

let test_dangling_column_ref () =
  let c = catalog () in
  let base = scan c "t" in
  let broken =
    mk ~rows:50.0 base.Plan.schema
      (Plan.Filter
         { input = base; pred = Expr.Cmp (Expr.Eq, Expr.Col "t.zzz",
                                          Expr.Const (Value.Int 1)) })
  in
  check_has_error "SCH-COLREF" (Verifier.verify (ctx ()) broken)

let test_join_key_type_mismatch () =
  let c = catalog () in
  (* t.b is a string, u.k an int: no equi-join between them typechecks *)
  let broken = join ~keys:[ ("t.b", "u.k") ] (scan c "u") (scan c "t") in
  check_has_error "SCH-TYPE" (Verifier.verify (ctx ()) broken)

let test_collector_on_blocked_input () =
  let c = catalog () in
  (* a collector above a join examines a non-streamed (already joined)
     intermediate: illegal position per the paper's SCIA rules *)
  let j = t_join_u c in
  let broken =
    mk ~rows:50.0 j.Plan.schema
      (Plan.Collect
         { input = j; spec = Collector.spec ~hist_cols:[ "t.a" ] ();
           cid = 0 })
  in
  check_has_error "SCIA-POSITION" (Verifier.verify (ctx ()) broken)

let test_collector_unknown_column () =
  let c = catalog () in
  let base = scan c "t" in
  let broken =
    mk ~rows:100.0 base.Plan.schema
      (Plan.Collect
         { input = base; spec = Collector.spec ~hist_cols:[ "t.nope" ] ();
           cid = 0 })
  in
  check_has_error "SCIA-COLS" (Verifier.verify (ctx ()) broken)

(* A join outputs an in-order subset of its inputs' columns: t ⋈ u
   without u.v is well formed, a parent reading u.v is not, nor is a join
   whose columns leave their input order. *)
let narrow_join c schema =
  let j = t_join_u c in
  { j with Plan.schema }

let t_u_columns c names =
  let all = Schema.concat (table_schema c "t") (table_schema c "u") in
  Schema.project all (List.map (Schema.index_of all) names)

let test_narrow_join_clean () =
  let c = catalog () in
  let j = narrow_join c (t_u_columns c [ "t.a"; "t.b"; "u.k" ]) in
  let top =
    mk ~rows:50.0 (t_u_columns c [ "t.b" ])
      (Plan.Project { input = j; cols = [ "t.b" ] })
  in
  Alcotest.(check (list string)) "no errors" []
    (error_codes (Verifier.verify (ctx ()) top))

let test_join_drops_read_column () =
  let c = catalog () in
  let j = narrow_join c (t_u_columns c [ "t.a"; "t.b"; "u.k" ]) in
  let broken =
    mk ~rows:50.0 j.Plan.schema
      (Plan.Filter
         { input = j;
           pred = Expr.Cmp (Expr.Gt, Expr.Col "u.v", Expr.Const (Value.Float 0.0)) })
  in
  check_has_error "SCH-COLREF" (Verifier.verify (ctx ()) broken)

let test_join_reorders_columns () =
  let c = catalog () in
  let broken = narrow_join c (t_u_columns c [ "t.a"; "u.k"; "t.b" ]) in
  check_has_error "SCH-SHAPE" (Verifier.verify (ctx ()) broken)

(* The executor reads every node's output columns from its recorded
   schema, so the verifier is the one check of that schema: each non-join
   node recorded with the schema its input implies is free of SCH-SHAPE,
   and the same node recorded with those columns reordered has it. *)
let test_recorded_schema_differs () =
  let c = catalog () in
  let temp = table_schema c "u" in
  ignore (Catalog.add_temp c "tmp_1" (Heap_file.of_rows temp [||]));
  let vctx = Verifier.context c in
  let t = scan c "t" in
  let ts = t.Plan.schema in
  let count =
    { Aggregate.fn = Aggregate.Count; distinct_arg = false; arg = None;
      out_name = "n" }
  in
  let cases =
    [ ( "aggregate",
        Aggregate.output_schema ts ~group_by:[ "t.b" ] ~aggs:[ count ],
        Plan.Aggregate { input = t; group_by = [ "t.b" ]; aggs = [ count ] } );
      ( "project",
        Schema.project ts [ 1; 0 ],
        Plan.Project { input = t; cols = [ "t.b"; "t.a" ] } );
      ( "filter",
        ts,
        Plan.Filter
          { input = t;
            pred = Expr.Cmp (Expr.Gt, Expr.Col "t.a", Expr.Const (Value.Int 3)) } );
      ("sort", ts, Plan.Sort { input = t; keys = [ ("t.a", true) ] });
      ("limit", ts, Plan.Limit { input = t; n = 5 });
      ( "collect",
        ts,
        Plan.Collect
          { input = t; spec = Collector.spec ~hist_cols:[ "t.a" ] (); cid = 0 } );
      ( "materialized",
        temp,
        Plan.Materialized { name = "tmp_1"; covers = [ "u" ]; bytes = 0 } ) ]
  in
  List.iter
    (fun (what, implied, node) ->
       let shape schema =
         List.mem "SCH-SHAPE"
           (error_codes (Verifier.verify vctx (mk ~rows:5.0 schema node)))
       in
       Alcotest.(check bool) (what ^ ": implied schema passes") false
         (shape implied);
       Alcotest.(check bool) (what ^ ": reordered schema -> SCH-SHAPE") true
         (shape (Schema.make (List.rev (Schema.columns implied)))))
    cases

let test_over_budget_memory () =
  let c = catalog () in
  (* granted 16 pages against a 4-page broker budget *)
  let broken = t_join_u ~mem:16 c in
  let broken = { broken with Plan.max_mem = 16 } in
  check_has_error "MEM-BUDGET" (Verifier.verify (ctx ~budget_pages:4 ()) broken)

let test_unbalanced_filter_lifetime () =
  let c = catalog () in
  (* the filter's install site "u" is the build side itself: the lease
     could never retire inside the unit (and prunes nothing) *)
  let rf =
    [ { Plan.rf_build_col = "u.k"; rf_probe_col = "t.a"; rf_sel = 0.5;
        rf_sites = [ "u" ] } ]
  in
  check_has_error "RF-LIFETIME" (Verifier.verify (ctx ()) (t_join_u ~rf c))

let test_join_exceeds_cross_product () =
  let c = catalog () in
  (* 100 x 50 inputs cannot produce 10^6 rows *)
  let broken = join ~rows:1_000_000.0 ~keys:[ ("t.a", "u.k") ]
      (scan c "u") (scan c "t")
  in
  check_has_error "EST-JOIN-BOUND" (Verifier.verify (ctx ()) broken)

let test_check_exn_raises () =
  let c = catalog () in
  let broken = join ~keys:[ ("t.b", "u.k") ] (scan c "u") (scan c "t") in
  match Verifier.check_exn ~what:"unit test" (ctx ()) broken with
  | _ -> Alcotest.fail "expected Verifier.Rejected"
  | exception Verifier.Rejected { what; diags } ->
    Alcotest.(check string) "what" "unit test" what;
    Alcotest.(check bool) "only errors carried" true
      (List.for_all Diagnostic.is_error diags)

(* --- every benchmark plan verifies clean, both reopt modes --- *)

let test_benchmark_plans_clean () =
  let catalog = Workload.experiment_catalog ~sf:0.001 () in
  let engine = Engine.create ~budget_pages:64 catalog in
  List.iter
    (fun (q : Queries.query) ->
       List.iter
         (fun mode ->
            let _plan, diags = Engine.lint engine ~mode q.Queries.sql in
            Alcotest.(check (list string))
              (Printf.sprintf "%s [%s] clean" q.Queries.name
                 (Dispatcher.mode_to_string mode))
              [] (error_codes diags))
         [ Dispatcher.Off; Dispatcher.Full ])
    Queries.all

(* --- lint analyses the very plan a run starts from, in every mode --- *)

let test_lint_plan_is_initial_plan () =
  let catalog = Workload.experiment_catalog ~sf:0.001 () in
  let engine = Engine.create ~budget_pages:64 catalog in
  List.iter
    (fun (q : Queries.query) ->
       List.iter
         (fun mode ->
            let plan, _ = Engine.lint engine ~mode q.Queries.sql in
            let report = Engine.run_sql engine ~mode q.Queries.sql in
            Alcotest.(check string)
              (Printf.sprintf "%s [%s] lint plan = initial plan"
                 q.Queries.name (Dispatcher.mode_to_string mode))
              (Plan.to_string report.Dispatcher.initial_plan)
              (Plan.to_string plan))
         [ Dispatcher.Off; Dispatcher.Memory_only; Dispatcher.Plan_only;
           Dispatcher.Full; Dispatcher.Bound_checked ])
    Queries.all

(* --- sanitizer mode: pure analysis, zero execution perturbation --- *)

let test_sanitizer_parity () =
  let catalog = Workload.experiment_catalog ~sf:0.001 () in
  let plain = Engine.create ~budget_pages:32 ~pool_pages:256 catalog in
  let sanitized =
    Engine.create ~budget_pages:32 ~pool_pages:256
      ~sanitize:true catalog
  in
  List.iter
    (fun name ->
       let q = Queries.find name in
       let off = Engine.run_sql plain ~mode:Dispatcher.Full q.Queries.sql in
       let on = Engine.run_sql sanitized ~mode:Dispatcher.Full q.Queries.sql in
       Alcotest.(check (float 0.0))
         (name ^ " elapsed identical")
         off.Dispatcher.elapsed_ms on.Dispatcher.elapsed_ms;
       Alcotest.(check int)
         (name ^ " same result size")
         (Array.length off.Dispatcher.rows)
         (Array.length on.Dispatcher.rows);
       Alcotest.(check bool) (name ^ " plans verified") true
         (on.Dispatcher.verifications > 0);
       Alcotest.(check int) (name ^ " filter leases retired") 0
         on.Dispatcher.filter_pages_held)
    [ "Q3"; "Q5" ];
  (* bound-checked switching under the sanitizer (every observed
     cardinality cross-checked against its provable interval) returns
     exactly the Off run's rows, in order *)
  let bounded =
    Engine.create ~budget_pages:64 ~sanitize:true
      (Workload.experiment_catalog ~sf:0.001 ())
  in
  List.iter
    (fun name ->
       let q = Queries.find name in
       let off = Engine.run_sql bounded ~mode:Dispatcher.Off q.Queries.sql in
       let bc =
         Engine.run_sql bounded ~mode:Dispatcher.Bound_checked q.Queries.sql
       in
       Alcotest.(check bool) (name ^ " bound-checked rows = baseline") true
         (bc.Dispatcher.rows = off.Dispatcher.rows))
    [ "Q3"; "Q5"; "Q7" ]

(* --- report exposure: collector CPU and filter-page accounting --- *)

let test_report_collector_ms () =
  let catalog = Workload.experiment_catalog ~sf:0.001 () in
  let engine = Engine.create ~budget_pages:64 catalog in
  let r =
    Engine.run_sql engine ~mode:Dispatcher.Full (Queries.find "Q5").Queries.sql
  in
  Alcotest.(check bool) "collectors ran" true (r.Dispatcher.collectors > 0);
  Alcotest.(check bool) "collector CPU accounted" true
    (r.Dispatcher.collector_ms > 0.0);
  Alcotest.(check bool) "collector CPU below elapsed" true
    (r.Dispatcher.collector_ms < r.Dispatcher.elapsed_ms);
  Alcotest.(check int) "no filter pages at completion" 0
    r.Dispatcher.filter_pages_held;
  let off =
    Engine.run_sql engine ~mode:Dispatcher.Off (Queries.find "Q5").Queries.sql
  in
  Alcotest.(check (float 0.0)) "no collectors, no collector CPU" 0.0
    off.Dispatcher.collector_ms

let suite =
  [ Alcotest.test_case "well-formed plan is clean" `Quick
      test_well_formed_plan_clean;
    Alcotest.test_case "dangling column ref -> SCH-COLREF" `Quick
      test_dangling_column_ref;
    Alcotest.test_case "join key type mismatch -> SCH-TYPE" `Quick
      test_join_key_type_mismatch;
    Alcotest.test_case "collector on blocked input -> SCIA-POSITION" `Quick
      test_collector_on_blocked_input;
    Alcotest.test_case "collector unknown column -> SCIA-COLS" `Quick
      test_collector_unknown_column;
    Alcotest.test_case "join without unread columns is clean" `Quick
      test_narrow_join_clean;
    Alcotest.test_case "join drops a column read above -> SCH-COLREF" `Quick
      test_join_drops_read_column;
    Alcotest.test_case "join reorders its columns -> SCH-SHAPE" `Quick
      test_join_reorders_columns;
    Alcotest.test_case "every node's recorded schema -> SCH-SHAPE" `Quick
      test_recorded_schema_differs;
    Alcotest.test_case "over-budget memory -> MEM-BUDGET" `Quick
      test_over_budget_memory;
    Alcotest.test_case "unbalanced filter lifetime -> RF-LIFETIME" `Quick
      test_unbalanced_filter_lifetime;
    Alcotest.test_case "join exceeds cross product -> EST-JOIN-BOUND" `Quick
      test_join_exceeds_cross_product;
    Alcotest.test_case "check_exn raises Rejected with errors only" `Quick
      test_check_exn_raises;
    Alcotest.test_case "all benchmark plans verify clean" `Slow
      test_benchmark_plans_clean;
    Alcotest.test_case "lint plan is the run's initial plan" `Slow
      test_lint_plan_is_initial_plan;
    Alcotest.test_case "sanitizer mode never perturbs execution" `Slow
      test_sanitizer_parity;
    Alcotest.test_case "report exposes collector CPU and filter pages" `Slow
      test_report_collector_ms ]
