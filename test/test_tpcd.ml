open Mqr_storage
module Catalog = Mqr_catalog.Catalog
module Datagen = Mqr_tpcd.Datagen
module Queries = Mqr_tpcd.Queries
module Workload = Mqr_tpcd.Workload
module Schema_def = Mqr_tpcd.Schema_def
module Query = Mqr_sql.Query
module Parser = Mqr_sql.Parser
module Dispatcher = Mqr_core.Dispatcher
module Engine = Mqr_core.Engine

let tiny_opts = { Datagen.default with Datagen.sf = 0.001 }

let test_cardinalities () =
  let catalog = Datagen.generate tiny_opts in
  Alcotest.(check int) "5 regions" 5
    (Heap_file.tuple_count (Catalog.find_exn catalog "region").Catalog.heap);
  Alcotest.(check int) "25 nations" 25
    (Heap_file.tuple_count (Catalog.find_exn catalog "nation").Catalog.heap);
  let orders = Heap_file.tuple_count (Catalog.find_exn catalog "orders").Catalog.heap in
  Alcotest.(check int) "orders scaled" 1500 orders;
  let lineitem =
    Heap_file.tuple_count (Catalog.find_exn catalog "lineitem").Catalog.heap
  in
  Alcotest.(check bool) "1-7 lines per order" true
    (lineitem >= orders && lineitem <= 7 * orders)

let test_fk_integrity () =
  let catalog = Datagen.generate tiny_opts in
  let n_cust =
    Heap_file.tuple_count (Catalog.find_exn catalog "customer").Catalog.heap
  in
  let orders = (Catalog.find_exn catalog "orders").Catalog.heap in
  Heap_file.iter orders (fun _ t ->
      match t.(1) with
      | Value.Int ck ->
        if ck < 0 || ck >= n_cust then Alcotest.failf "bad o_custkey %d" ck
      | _ -> Alcotest.fail "o_custkey type")

let test_dates_consistent () =
  let catalog = Datagen.generate tiny_opts in
  let lineitem = (Catalog.find_exn catalog "lineitem").Catalog.heap in
  let schema = Heap_file.schema lineitem in
  let ship = Schema.index_of schema "l_shipdate" in
  let receipt = Schema.index_of schema "l_receiptdate" in
  Heap_file.iter lineitem (fun _ t ->
      if Value.compare t.(receipt) t.(ship) < 0 then
        Alcotest.fail "receipt before ship")

let test_stats_analyzed () =
  let catalog = Datagen.generate tiny_opts in
  let tbl = Catalog.find_exn catalog "lineitem" in
  match Catalog.column_stats tbl "l_quantity" with
  | Some st ->
    Alcotest.(check bool) "histogram" true
      (st.Mqr_catalog.Column_stats.histogram <> None)
  | None -> Alcotest.fail "no stats"

let test_indexes_built () =
  let catalog = Datagen.generate tiny_opts in
  List.iter
    (fun (table, column) ->
       let tbl = Catalog.find_exn catalog table in
       Alcotest.(check bool)
         (Printf.sprintf "%s.%s indexed" table column)
         true
         (Catalog.find_index tbl ~column <> None))
    Schema_def.indexes

let test_skew_changes_distribution () =
  let uniform = Datagen.generate tiny_opts in
  let skewed = Datagen.generate { tiny_opts with Datagen.skew_z = 1.0 } in
  let count_top catalog =
    let li = (Catalog.find_exn catalog "lineitem").Catalog.heap in
    let schema = Heap_file.schema li in
    let pk = Schema.index_of schema "l_partkey" in
    let freq = Hashtbl.create 64 in
    Heap_file.iter li (fun _ t ->
        let k = Value.to_string t.(pk) in
        Hashtbl.replace freq k (1 + Option.value ~default:0 (Hashtbl.find_opt freq k)));
    Hashtbl.fold (fun _ c m -> max c m) freq 0
  in
  Alcotest.(check bool) "skewed top key much hotter" true
    (count_top skewed > 2 * count_top uniform)

let test_queries_classify () =
  Alcotest.(check string) "Q1 simple" "simple"
    (Queries.klass_to_string (Queries.find "Q1").Queries.klass);
  Alcotest.(check string) "Q3 medium" "medium"
    (Queries.klass_to_string (Queries.find "Q3").Queries.klass);
  Alcotest.(check string) "Q5 complex" "complex"
    (Queries.klass_to_string (Queries.find "Q5").Queries.klass)

let test_queries_bind_with_expected_joins () =
  let catalog = Datagen.generate tiny_opts in
  List.iter
    (fun (q : Queries.query) ->
       let bound = Query.bind catalog (Parser.parse q.Queries.sql) in
       Alcotest.(check int)
         (q.Queries.name ^ " join count")
         q.Queries.joins (Query.join_count bound))
    Queries.all

let test_all_queries_execute_and_agree () =
  let catalog = Workload.experiment_catalog ~sf:0.001 () in
  let engine = Engine.create ~budget_pages:64 catalog in
  List.iter
    (fun (q : Queries.query) ->
       let off = Engine.run_sql engine ~mode:Dispatcher.Off q.Queries.sql in
       let full = Engine.run_sql engine ~mode:Dispatcher.Full q.Queries.sql in
       let terms =
         Reference.largest_relation catalog (Engine.bind_sql engine q.Queries.sql)
       in
       Reference.check ~tol:(Reference.one_sign ~terms)
         (q.Queries.name ^ " results agree across modes")
         off.Dispatcher.rows full.Dispatcher.rows)
    Queries.all

let test_degradations_apply () =
  let catalog = Datagen.generate tiny_opts in
  let true_rows =
    Heap_file.tuple_count (Catalog.find_exn catalog "lineitem").Catalog.heap
  in
  Workload.apply catalog Workload.paper_degradations;
  let believed = (Catalog.find_exn catalog "lineitem").Catalog.believed_rows in
  Alcotest.(check bool) "cardinality degraded" true (believed < true_rows)

let suite =
  [ Alcotest.test_case "cardinalities" `Quick test_cardinalities;
    Alcotest.test_case "fk integrity" `Quick test_fk_integrity;
    Alcotest.test_case "dates consistent" `Quick test_dates_consistent;
    Alcotest.test_case "stats analyzed" `Quick test_stats_analyzed;
    Alcotest.test_case "indexes built" `Quick test_indexes_built;
    Alcotest.test_case "skew distribution" `Quick test_skew_changes_distribution;
    Alcotest.test_case "query classes" `Quick test_queries_classify;
    Alcotest.test_case "queries bind" `Quick test_queries_bind_with_expected_joins;
    Alcotest.test_case "modes agree on TPC-D" `Slow test_all_queries_execute_and_agree;
    Alcotest.test_case "degradations" `Quick test_degradations_apply ]
