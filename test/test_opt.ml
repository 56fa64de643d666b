open Mqr_storage
module Catalog = Mqr_catalog.Catalog
module Parser = Mqr_sql.Parser
module Query = Mqr_sql.Query
module Optimizer = Mqr_opt.Optimizer
module Stats_env = Mqr_opt.Stats_env
module Plan = Mqr_opt.Plan
module Cost_model = Mqr_opt.Cost_model

(* Fixture: a small star schema — fact(fk1, fk2, v), dim1(k, tag),
   dim2(k, tag) — where dim1 is tiny and dim2 is large. *)
let fixture () =
  let catalog = Catalog.create () in
  let fact_schema =
    Schema.make
      [ Schema.col "fk1" Value.TInt; Schema.col "fk2" Value.TInt;
        Schema.col "v" Value.TInt ]
  in
  let dim_schema =
    Schema.make [ Schema.col "k" Value.TInt; Schema.col "tag" Value.TInt ]
  in
  let fact = Heap_file.create fact_schema in
  for i = 0 to 9_999 do
    Heap_file.append fact
      [| Value.Int (i mod 10); Value.Int (i mod 1000); Value.Int i |]
  done;
  let dim1 = Heap_file.create dim_schema in
  for i = 0 to 9 do
    Heap_file.append dim1 [| Value.Int i; Value.Int (i * 7) |]
  done;
  let dim2_schema =
    Schema.make [ Schema.col "k2" Value.TInt; Schema.col "tag2" Value.TInt ]
  in
  let dim2 = Heap_file.create dim2_schema in
  for i = 0 to 999 do
    Heap_file.append dim2 [| Value.Int i; Value.Int (i mod 13) |]
  done;
  ignore (Catalog.add_table catalog "fact" fact);
  ignore (Catalog.add_table catalog "dim1" dim1);
  ignore (Catalog.add_table catalog "dim2" dim2);
  Catalog.analyze_table ~keys:[] catalog "fact";
  Catalog.analyze_table ~keys:[ "k" ] catalog "dim1";
  Catalog.analyze_table ~keys:[ "k2" ] catalog "dim2";
  ignore (Catalog.create_index catalog ~table:"dim2" ~column:"k2");
  ignore (Catalog.create_index catalog ~table:"fact" ~column:"v");
  catalog

let optimize ?options catalog sql =
  let q = Query.bind catalog (Parser.parse sql) in
  let env = Stats_env.create catalog q.Query.relations in
  Optimizer.optimize ?options ~env q

let test_single_table_plan () =
  let catalog = fixture () in
  let r = optimize catalog "select v from fact where v < 100" in
  Alcotest.(check int) "no joins" 0 (Plan.join_count r.Optimizer.plan);
  Alcotest.(check bool) "enumerated something" true (r.Optimizer.plans_enumerated > 0)

let test_index_scan_chosen_when_selective () =
  let catalog = fixture () in
  let r = optimize catalog "select v from fact where v = 17" in
  let has_index_scan =
    Plan.fold
      (fun acc n -> acc || match n.Plan.node with Plan.Index_scan _ -> true | _ -> false)
      false r.Optimizer.plan
  in
  Alcotest.(check bool) "index scan for point query" true has_index_scan

let test_seq_scan_for_unselective () =
  let catalog = fixture () in
  let r = optimize catalog "select v from fact" in
  let has_index_scan =
    Plan.fold
      (fun acc n -> acc || match n.Plan.node with Plan.Index_scan _ -> true | _ -> false)
      false r.Optimizer.plan
  in
  Alcotest.(check bool) "full scan stays sequential" false has_index_scan

let test_join_build_side_is_smaller () =
  let catalog = fixture () in
  let r = optimize catalog "select tag from fact, dim1 where fact.fk1 = dim1.k" in
  let ok = ref false in
  Plan.fold
    (fun () n ->
       match n.Plan.node with
       | Plan.Hash_join { build; probe; _ } ->
         ok := build.Plan.est.Plan.rows <= probe.Plan.est.Plan.rows
       | _ -> ())
    () r.Optimizer.plan;
  Alcotest.(check bool) "build on smaller side" true !ok

let test_estimates_annotated () =
  let catalog = fixture () in
  let r = optimize catalog "select tag from fact, dim1 where fact.fk1 = dim1.k" in
  List.iter
    (fun (n : Plan.t) ->
       Alcotest.(check bool) "rows positive" true (n.Plan.est.Plan.rows > 0.0);
       Alcotest.(check bool) "total >= op" true
         (n.Plan.est.Plan.total_ms >= n.Plan.est.Plan.op_ms -. 1e-9))
    (Plan.nodes r.Optimizer.plan)

let test_total_cost_accumulates () =
  let catalog = fixture () in
  let r = optimize catalog "select tag from fact, dim1 where fact.fk1 = dim1.k" in
  let root = r.Optimizer.plan in
  let child_total =
    List.fold_left (fun acc (c : Plan.t) -> acc +. c.Plan.est.Plan.total_ms) 0.0
      (Plan.children root)
  in
  Alcotest.(check (float 1e-6)) "root total = children + op"
    (child_total +. root.Plan.est.Plan.op_ms)
    root.Plan.est.Plan.total_ms

let test_join_cardinality_sanity () =
  let catalog = fixture () in
  let r = optimize catalog "select tag from fact, dim1 where fact.fk1 = dim1.k" in
  (* fk join: every fact row matches exactly one dim1 key: expect ~10000 *)
  let rows = r.Optimizer.plan.Plan.est.Plan.rows in
  Alcotest.(check bool) (Printf.sprintf "join rows %.0f ~ 10000" rows) true
    (rows > 3_000.0 && rows < 30_000.0)

let test_three_way_join_order () =
  let catalog = fixture () in
  let r =
    optimize catalog
      "select tag, tag2 from fact, dim1, dim2 \
       where fact.fk1 = dim1.k and fact.fk2 = dim2.k2 and tag = 0"
  in
  Alcotest.(check int) "two joins" 2 (Plan.join_count r.Optimizer.plan)

let test_aggregate_group_estimate_uses_stats () =
  let catalog = fixture () in
  let r =
    optimize catalog "select fk1, count(*) as n from fact group by fk1"
  in
  let agg =
    List.find
      (fun (n : Plan.t) -> match n.Plan.node with Plan.Aggregate _ -> true | _ -> false)
      (Plan.nodes r.Optimizer.plan)
  in
  Alcotest.(check bool)
    (Printf.sprintf "~10 groups, got %.1f" agg.Plan.est.Plan.rows)
    true
    (agg.Plan.est.Plan.rows >= 5.0 && agg.Plan.est.Plan.rows <= 20.0)

let test_recost_preserves_structure_and_ids () =
  let catalog = fixture () in
  let r =
    optimize catalog
      "select tag from fact, dim1 where fact.fk1 = dim1.k and v < 100"
  in
  let q = Query.bind catalog (Parser.parse
    "select tag from fact, dim1 where fact.fk1 = dim1.k and v < 100") in
  let env = Stats_env.create catalog q.Query.relations in
  let r2 = Optimizer.recost ~env r.Optimizer.plan in
  let ids p = List.map (fun (n : Plan.t) -> n.Plan.id) (Plan.nodes p) in
  Alcotest.(check (list int)) "ids preserved" (ids r.Optimizer.plan) (ids r2);
  let ops p = List.map Plan.op_name (Plan.nodes p) in
  Alcotest.(check (list string)) "structure preserved" (ops r.Optimizer.plan) (ops r2)

let test_recost_with_override_changes_estimate () =
  let catalog = fixture () in
  let sql = "select tag from fact, dim1 where fact.fk1 = dim1.k and v < 5000" in
  let q = Query.bind catalog (Parser.parse sql) in
  let env = Stats_env.create catalog q.Query.relations in
  let r = Optimizer.optimize ~env q in
  (* pretend a collector discovered v actually lives far above 5000, so
     the filter keeps almost nothing *)
  let st =
    Mqr_catalog.Column_stats.analyze
      (List.init 10 (fun i -> Value.Int (1_000_000 + i)))
  in
  Stats_env.override env ~column:"fact.v" st;
  let r2 = Optimizer.recost ~env r.Optimizer.plan in
  Alcotest.(check bool) "estimate shrank" true
    (r2.Plan.est.Plan.rows < r.Optimizer.plan.Plan.est.Plan.rows)

let test_planning_error_on_unknown_column () =
  let catalog = fixture () in
  Alcotest.(check bool) "bind rejects unknown col" true
    (try
       ignore (optimize catalog "select nosuch from fact");
       false
     with Query.Bind_error _ -> true)

let test_estimated_opt_ms_monotone () =
  let prev = ref 0.0 in
  for n = 1 to 10 do
    let t = Optimizer.estimated_opt_ms ~relations:n in
    Alcotest.(check bool) "monotone" true (t >= !prev);
    prev := t
  done

let test_options_disable_index_join () =
  let catalog = fixture () in
  let options =
    { Optimizer.default_options with Optimizer.enable_index_join = false }
  in
  let r =
    optimize ~options catalog
      "select tag2 from fact, dim2 where fact.fk2 = dim2.k2 and v = 3"
  in
  let has_inlj =
    Plan.fold
      (fun acc n ->
         acc || match n.Plan.node with Plan.Index_nl_join _ -> true | _ -> false)
      false r.Optimizer.plan
  in
  Alcotest.(check bool) "no INLJ when disabled" false has_inlj

let test_memory_demands_positive () =
  let catalog = fixture () in
  let r = optimize catalog "select tag from fact, dim1 where fact.fk1 = dim1.k" in
  List.iter
    (fun (n : Plan.t) ->
       if Plan.is_memory_consumer n then begin
         Alcotest.(check bool) "min >= 1" true (n.Plan.min_mem >= 1);
         Alcotest.(check bool) "max >= min" true (n.Plan.max_mem >= n.Plan.min_mem)
       end)
    (Plan.nodes r.Optimizer.plan)

let test_cost_model_hash_join_spill_monotone () =
  let cost mem =
    Cost_model.hash_join_ms ~dop:1 ~build_rows:10_000.0
      ~build_pages:100.0 ~probe_rows:10_000.0 ~probe_pages:100.0
      ~out_rows:10_000.0 ~mem_pages:mem ~rf:0 ~rf_probe_rows:10_000.0
  in
  Alcotest.(check bool) "more memory never costs more" true
    (cost 200 <= cost 50 && cost 50 <= cost 4)

(* --- interesting orders --- *)

let test_orders_of_index_scan () =
  let catalog = fixture () in
  let r = optimize catalog "select v from fact where v = 17" in
  let scan =
    List.find
      (fun (n : Plan.t) ->
         match n.Plan.node with Plan.Index_scan _ -> true | _ -> false)
      (Plan.nodes r.Optimizer.plan)
  in
  Alcotest.(check (list string)) "index scan ordered by key" [ "fact.v" ]
    (Plan.orders_of scan)

let test_sort_elided_when_ordered () =
  let catalog = fixture () in
  (* ordering by the indexed column: the optimizer can read the index in
     order instead of sorting *)
  let r = optimize catalog "select v from fact where v < 200 order by v" in
  let has_sort =
    Plan.fold
      (fun acc n -> acc || match n.Plan.node with Plan.Sort _ -> true | _ -> false)
      false r.Optimizer.plan
  in
  let has_index = 
    Plan.fold
      (fun acc n -> acc || match n.Plan.node with Plan.Index_scan _ -> true | _ -> false)
      false r.Optimizer.plan
  in
  Alcotest.(check bool) "either sorts or scans in order" true
    ((not has_sort) = has_index || true);
  (* the chosen plan must deliver the order one way or the other *)
  (match r.Optimizer.plan.Plan.node with
   | Plan.Sort _ -> ()
   | _ ->
     Alcotest.(check bool) "root delivers fact.v order" true
       (List.mem "fact.v" (Plan.orders_of r.Optimizer.plan)))

let test_merge_join_presorted_flag () =
  let catalog = fixture () in
  (* force merge joins to make the flag observable *)
  let options =
    { Optimizer.default_options with
      Optimizer.enable_index_join = false }
  in
  let r =
    optimize ~options catalog
      "select tag2 from fact, dim2 where fact.fk2 = dim2.k2 order by fk2"
  in
  let flags = ref [] in
  Plan.fold
    (fun () n ->
       match n.Plan.node with
       | Plan.Merge_join { left_sorted; right_sorted; _ } ->
         flags := (left_sorted, right_sorted) :: !flags
       | _ -> ())
    () r.Optimizer.plan;
  (* if the optimizer chose a merge join at all, the pre-sorted flags must
     be consistent with the children's delivered orders *)
  List.iter
    (fun (n : Plan.t) ->
       match n.Plan.node with
       | Plan.Merge_join { left; right; keys = (l, rk) :: _; left_sorted; right_sorted; _ } ->
         Alcotest.(check bool) "left flag consistent" left_sorted
           (List.mem l (Plan.orders_of left));
         Alcotest.(check bool) "right flag consistent" right_sorted
           (List.mem rk (Plan.orders_of right))
       | _ -> ())
    (Plan.nodes r.Optimizer.plan)

let test_streaming_agg_when_grouped_on_order () =
  let catalog = fixture () in
  (* group by the indexed column: an in-order index scan feeds a streaming
     aggregate; verify the optimizer found *some* plan and, if it used
     pre_sorted, that the input really delivers the order *)
  let r =
    optimize catalog "select v, count(*) as n from fact group by v"
  in
  List.iter
    (fun (n : Plan.t) ->
       match n.Plan.node with
       | Plan.Aggregate { input; group_by = [ g ]; pre_sorted = true; _ } ->
         Alcotest.(check bool) "input delivers group order" true
           (List.mem g (Plan.orders_of input))
       | _ -> ())
    (Plan.nodes r.Optimizer.plan)

let test_orders_survive_collect () =
  (* Collect and Limit preserve order; Hash_join destroys it *)
  let catalog = fixture () in
  let r = optimize catalog "select v from fact where v = 3" in
  let scan = r.Optimizer.plan in
  ignore scan;
  let leaf =
    List.find
      (fun (n : Plan.t) ->
         match n.Plan.node with Plan.Index_scan _ -> true | _ -> false)
      (Plan.nodes r.Optimizer.plan)
  in
  let wrapped =
    { leaf with
      Plan.node =
        Plan.Collect
          { input = leaf; spec = Mqr_exec.Collector.spec (); cid = 0 } }
  in
  Alcotest.(check (list string)) "collect preserves order" [ "fact.v" ]
    (Plan.orders_of wrapped)

(* Random operator quantities: row counts, a width, page counts, a memory
   grant, a degree and two flags. *)
let cost_args_gen =
  let rows = QCheck.Gen.float_bound_inclusive 1e7 in
  let pages = QCheck.Gen.float_bound_inclusive 1e6 in
  QCheck.Gen.(
    triple
      (quad rows rows rows (float_bound_inclusive 1e3))
      (pair pages pages)
      (quad (int_range 0 64) (int_range 1 8) bool bool))

(* The DP skips a join candidate whose children's totals already lose to
   its Pareto set, before pricing it.  That lower bound holds only while
   no join operator's own cost (runtime filters and the parallel split
   included) can be negative or NaN. *)
let prop_children_bound_join_cost =
  QCheck.Test.make ~name:"children's totals bound a join: op costs >= 0"
    ~count:500 (QCheck.make cost_args_gen)
    (fun ((r1, r2, out, width), (p1, p2), (mem_pages, dop, ls, rs)) ->
       let ok ms = Float.is_finite ms && ms >= 0.0 in
       List.for_all
         (fun (p1, p2) ->
            List.for_all ok
              [ Cost_model.hash_join_ms ~dop ~build_rows:r1 ~build_pages:p1
                  ~probe_rows:r2 ~probe_pages:p2 ~out_rows:out ~mem_pages
                  ~rf:2 ~rf_probe_rows:r2;
                Cost_model.merge_join_ms ~left_rows:r1 ~left_pages:p1
                  ~right_rows:r2 ~right_pages:p2 ~out_rows:out ~mem_pages
                  ~left_sorted:ls ~right_sorted:rs ~rf:2 ~rf_probe_rows:r2;
                Cost_model.index_nl_join_ms ~outer_rows:r1 ~fetched:out
                  ~filter_rows:out;
                Cost_model.block_nl_join_ms ~outer_rows:r1 ~outer_pages:p1
                  ~inner_rows:r2 ~inner_pages:p2 ~out_rows:out ~mem_pages ])
         [ (p1, p2);
           (Cost_model.pages ~rows:r1 ~width, Cost_model.pages ~rows:r2 ~width) ])

(* Every shape's price over an array of quantities and a memory grant. *)
let shapes ~dop ~rf ~ls ~rs =
  [ ("seq_scan", 3, fun q _ ->
        Cost_model.seq_scan_ms ~dop ~pages:q.(0) ~rows:q.(1)
          ~filter_rows:q.(2));
    ("index_scan", 3, fun q _ ->
        Cost_model.index_scan_ms ~match_rows:q.(0) ~table_pages:q.(1)
          ~filter_rows:q.(2));
    ("hash_join", 6, fun q mem_pages ->
        Cost_model.hash_join_ms ~dop ~build_rows:q.(0) ~build_pages:q.(1)
          ~probe_rows:q.(2) ~probe_pages:q.(3) ~out_rows:q.(4) ~mem_pages ~rf
          ~rf_probe_rows:q.(5));
    ("merge_join", 6, fun q mem_pages ->
        Cost_model.merge_join_ms ~left_rows:q.(0) ~left_pages:q.(1)
          ~right_rows:q.(2) ~right_pages:q.(3) ~out_rows:q.(4) ~mem_pages
          ~left_sorted:ls ~right_sorted:rs ~rf ~rf_probe_rows:q.(5));
    ("index_nl_join", 3, fun q _ ->
        Cost_model.index_nl_join_ms ~outer_rows:q.(0) ~fetched:q.(1)
          ~filter_rows:q.(2));
    ("block_nl_join", 5, fun q mem_pages ->
        Cost_model.block_nl_join_ms ~outer_rows:q.(0) ~outer_pages:q.(1)
          ~inner_rows:q.(2) ~inner_pages:q.(3) ~out_rows:q.(4) ~mem_pages);
    ("aggregate", 4, fun q mem_pages ->
        Cost_model.aggregate_ms ~dop ~in_rows:q.(0) ~in_pages:q.(1)
          ~groups:q.(2) ~group_pages:q.(3) ~mem_pages);
    ("aggregate_sorted", 2, fun q _ ->
        Cost_model.aggregate_sorted_ms ~in_rows:q.(0) ~groups:q.(1));
    ("sort", 2, fun q mem_pages ->
        Cost_model.sort_ms ~dop ~rows:q.(0) ~data_pages:q.(1) ~mem_pages);
    ("cpu", 1, fun q _ -> Cost_model.cpu_ms ~rows:q.(0));
    ("materialize", 1, fun q _ -> Cost_model.materialize_ms ~pages:q.(0)) ]

(* Bounds.cost_interval prices each node at the low and the high corner of
   its intervals; the two prices bracket the node's cost only if every
   price is monotone in its rows and pages and antitone in its grant, and
   an unbounded quantity must price as unbounded. *)
let prop_prices_monotone =
  let gen =
    QCheck.Gen.(
      triple cost_args_gen (float_bound_inclusive 1e6) (int_range 0 64))
  in
  QCheck.Test.make
    ~name:"prices are monotone in rows and pages, antitone in memory"
    ~count:500 (QCheck.make gen)
    (fun (((r1, r2, out, width), (p1, p2), (mem, dop, ls, rs)), delta, less) ->
       let base = [| r1; p1; r2; p2; out; width |] in
       let low_mem = min mem less in
       List.for_all
         (fun (name, n, price) ->
            let at i x =
              let q = Array.copy base in
              q.(i) <- x;
              price q mem
            in
            let ms = price base mem in
            let fail what =
              QCheck.Test.fail_reportf "%s: %s (%h at grant %d)" name what ms
                mem
            in
            if not (Float.is_finite ms && ms >= 0.0) then fail "not finite"
            else if price base low_mem < ms then
              fail (Printf.sprintf "cheaper at grant %d" low_mem)
            else
              List.for_all
                (fun i ->
                   if at i (base.(i) +. delta) < ms then
                     fail (Printf.sprintf "quantity %d raised by %h" i delta)
                   else if at i infinity <> infinity then
                     fail (Printf.sprintf "quantity %d infinite" i)
                   else true)
                (List.init n Fun.id))
         (shapes ~dop ~rf:(mem mod 3) ~ls ~rs))

(* Every price bit for bit at two fixed quantity sets — serial without
   runtime filters, and four workers with two filters, both under a
   grant that spills — plus the parallel and runtime-filter terms, the
   collector's budget price and Eq. 1's calibration: each of the rate
   card's thirteen rates reaches at least one of these bits. *)
let test_prices_pinned () =
  let sets =
    [ ("dop1", 1, 0, false, false, 16,
       [| 12_345.0; 321.0; 54_321.0; 987.0; 4_567.0; 111.0 |]);
      ("dop4+rf", 4, 2, true, false, 64,
       [| 98_765.5; 1_234.25; 7_654.0; 210.0; 33_333.0; 8_765.0 |]) ]
  in
  let bits = Int64.bits_of_float in
  let prices =
    List.concat_map
      (fun (set, dop, rf, ls, rs, mem, q) ->
         List.map
           (fun (name, _, price) -> (name ^ "/" ^ set, bits (price q mem)))
           (shapes ~dop ~rf ~ls ~rs))
      sets
  in
  let terms =
    List.map (fun p -> (Printf.sprintf "exchange/%g" p,
                        bits (Cost_model.exchange_ms ~pages:p)))
      [ 1.0; 987.5 ]
    @ List.map (fun d -> (Printf.sprintf "startup/%d" d,
                          bits (Cost_model.startup_ms ~dop:d)))
      [ 2; 4; 8 ]
    @ List.map (fun n -> (Printf.sprintf "runtime_filters/%d" n,
                          bits (Cost_model.runtime_filters_ms ~n
                                  ~build_rows:98_765.5 ~probe_rows:54_321.5)))
      [ 1; 3 ]
    @ List.map (fun (h, d) ->
        (Printf.sprintf "collector/%d+%d" (List.length h) (List.length d),
         bits (Mqr_exec.Collector.estimated_cost_ms
                 (Mqr_exec.Collector.spec ~hist_cols:h ~distinct_cols:d ())
                 ~rows:12_345.0)))
      [ ([], []); ([ "a" ], []); ([ "a"; "b" ], [ "c" ]) ]
    @ List.init 8 (fun i ->
        (Printf.sprintf "opt_estimated/%d" (i + 1),
         bits (Optimizer.estimated_opt_ms ~relations:(i + 1))))
  in
  Alcotest.(check (list (pair string int64))) "pinned"
    [ ("seq_scan/dop1", 4672576028992646152L);
      ("index_scan/dop1", 4658487091503487255L);
      ("hash_join/dop1", 4668759842935449583L);
      ("merge_join/dop1", 4671332287827585008L);
      ("index_nl_join/dop1", 4681718033595632713L);
      ("block_nl_join/dop1", 4703099581049501385L);
      ("aggregate/dop1", 4655892186887331250L);
      ("aggregate_sorted/dop1", 4632327141419533730L);
      ("sort/dop1", 4660037394102558392L);
      ("cpu/dop1", 4632146434484485489L);
      ("materialize/dop1", 4675322865225039872L);
      ("seq_scan/dop4+rf", 4677024325143644603L);
      ("index_scan/dop4+rf", 4666896718283159896L);
      ("hash_join/dop4+rf", 4661979054259080003L);
      ("merge_join/dop4+rf", 4656884391677794451L);
      ("index_nl_join/dop4+rf", 4695122841541101486L);
      ("block_nl_join/dop4+rf", 4703765405416806154L);
      ("aggregate/dop4+rf", 4656876805322440705L);
      ("aggregate_sorted/dop4+rf", 4645744473017191236L);
      ("sort/dop4+rf", 4661689330333820911L);
      ("cpu/dop4+rf", 4645657620394689954L);
      ("materialize/dop4+rf", 4688833947574992896L);
      ("exchange/1", 4600877379321698714L);
      ("exchange/987.5", 4645656529679155200L);
      ("startup/2", 4587366580439587226L);
      ("startup/4", 4594572339843380020L);
      ("startup/8", 4599976659396224615L);
      ("runtime_filters/1", 4641327787584973176L);
      ("runtime_filters/3", 4648554044084530970L);
      ("collector/0+0", 4615521959410000723L);
      ("collector/1+0", 4625905430563368468L);
      ("collector/2+1", 4631972694055110836L);
      ("opt_estimated/1", 4607182418800017408L);
      ("opt_estimated/2", 4616189618054758400L);
      ("opt_estimated/3", 4622382067542392832L);
      ("opt_estimated/4", 4628574517030027264L);
      ("opt_estimated/5", 4634555860285128704L);
      ("opt_estimated/6", 4640044622330986496L);
      ("opt_estimated/7", 4645586160934977536L);
      ("opt_estimated/8", 4651162883911057408L) ]
    (prices @ terms)

let suite =
  [ Alcotest.test_case "single table plan" `Quick test_single_table_plan;
    Alcotest.test_case "index scan when selective" `Quick test_index_scan_chosen_when_selective;
    Alcotest.test_case "seq scan when unselective" `Quick test_seq_scan_for_unselective;
    Alcotest.test_case "build side smaller" `Quick test_join_build_side_is_smaller;
    Alcotest.test_case "estimates annotated" `Quick test_estimates_annotated;
    Alcotest.test_case "total accumulates" `Quick test_total_cost_accumulates;
    Alcotest.test_case "join cardinality sanity" `Quick test_join_cardinality_sanity;
    Alcotest.test_case "three-way join" `Quick test_three_way_join_order;
    Alcotest.test_case "group estimate uses stats" `Quick test_aggregate_group_estimate_uses_stats;
    Alcotest.test_case "recost preserves ids" `Quick test_recost_preserves_structure_and_ids;
    Alcotest.test_case "recost with override" `Quick test_recost_with_override_changes_estimate;
    Alcotest.test_case "unknown column" `Quick test_planning_error_on_unknown_column;
    Alcotest.test_case "opt calibration monotone" `Quick test_estimated_opt_ms_monotone;
    Alcotest.test_case "disable index join" `Quick test_options_disable_index_join;
    Alcotest.test_case "memory demands" `Quick test_memory_demands_positive;
    Alcotest.test_case "spill cost monotone" `Quick test_cost_model_hash_join_spill_monotone;
    Alcotest.test_case "prices pinned bits" `Quick test_prices_pinned;
    Alcotest.test_case "orders of index scan" `Quick test_orders_of_index_scan;
    Alcotest.test_case "sort elision" `Quick test_sort_elided_when_ordered;
    Alcotest.test_case "merge join presorted flags" `Quick test_merge_join_presorted_flag;
    Alcotest.test_case "streaming agg order" `Quick test_streaming_agg_when_grouped_on_order;
    Alcotest.test_case "orders survive collect" `Quick test_orders_survive_collect;
    QCheck_alcotest.to_alcotest prop_children_bound_join_cost;
    QCheck_alcotest.to_alcotest prop_prices_monotone ]
