(* DML, update-activity staleness, start-time sampling, explain-analyze. *)
open Mqr_storage
module Catalog = Mqr_catalog.Catalog
module Column_stats = Mqr_catalog.Column_stats
module Engine = Mqr_core.Engine
module Dispatcher = Mqr_core.Dispatcher
module Sampling = Mqr_core.Sampling
module Stats_env = Mqr_opt.Stats_env
module Plan = Mqr_opt.Plan
module Query = Mqr_sql.Query
module Parser = Mqr_sql.Parser
module Expr = Mqr_expr.Expr

let small_catalog () =
  let catalog = Catalog.create () in
  let schema =
    Schema.make
      [ Schema.col "id" Value.TInt;
        Schema.col "grp" Value.TInt;
        Schema.col "amount" Value.TFloat ]
  in
  let heap = Heap_file.create schema in
  for i = 0 to 199 do
    Heap_file.append heap
      [| Value.Int i; Value.Int (i mod 5); Value.Float (float_of_int (i * 3)) |]
  done;
  ignore (Catalog.add_table catalog "items" heap);
  Catalog.analyze_table ~keys:[ "id" ] catalog "items";
  ignore (Catalog.create_index catalog ~table:"items" ~column:"id");
  catalog

(* --- DML --- *)

let count_rows engine =
  let r = Engine.run_sql engine "select count(*) as n from items" in
  match r.Dispatcher.rows.(0).(0) with
  | Value.Int n -> n
  | _ -> Alcotest.fail "count type"

let test_insert () =
  let engine = Engine.create (small_catalog ()) in
  (match Engine.execute engine "insert into items values (200, 1, 5.5), (201, 2, 6.5)" with
   | Engine.Modified { table = "items"; count = 2 } -> ()
   | _ -> Alcotest.fail "insert result");
  Alcotest.(check int) "202 rows" 202 (count_rows engine)

let test_insert_coercion () =
  let engine = Engine.create (small_catalog ()) in
  (* int literal into a float column *)
  (match Engine.execute engine "insert into items values (300, 1, 7)" with
   | Engine.Modified { count = 1; _ } -> ()
   | _ -> Alcotest.fail "coerced insert");
  let r = Engine.run_sql engine "select amount from items where id = 300" in
  Alcotest.(check bool) "stored as float" true
    (Value.equal r.Dispatcher.rows.(0).(0) (Value.Float 7.0))

let test_insert_arity_error () =
  let engine = Engine.create (small_catalog ()) in
  Alcotest.(check bool) "arity rejected" true
    (try
       ignore (Engine.execute engine "insert into items values (1, 2)");
       false
     with Engine.Dml_error _ -> true)

let test_insert_type_error () =
  let engine = Engine.create (small_catalog ()) in
  Alcotest.(check bool) "type rejected" true
    (try
       ignore (Engine.execute engine "insert into items values ('x', 1, 2.0)");
       false
     with Engine.Dml_error _ -> true)

let test_delete () =
  let engine = Engine.create (small_catalog ()) in
  (match Engine.execute engine "delete from items where grp = 0" with
   | Engine.Modified { count; _ } -> Alcotest.(check int) "deleted" 40 count
   | _ -> Alcotest.fail "delete result");
  Alcotest.(check int) "160 left" 160 (count_rows engine)

let test_delete_keeps_index_consistent () =
  let catalog = small_catalog () in
  let engine = Engine.create catalog in
  ignore (Engine.execute engine "delete from items where id < 100");
  (* index scan must agree with a full scan after the rebuild *)
  let r = Engine.run_sql engine "select id from items where id = 150" in
  Alcotest.(check int) "one row" 1 (Array.length r.Dispatcher.rows);
  let tbl = Catalog.find_exn catalog "items" in
  Alcotest.(check int) "index rebuilt to live rows" 100
    (Btree.entry_count
       (Catalog.index_tree tbl (Option.get (Catalog.find_index tbl ~column:"id"))))

let test_update_activity_marks_stale () =
  let catalog = small_catalog () in
  let engine = Engine.create catalog in
  (* a few updates: not yet stale *)
  ignore (Engine.execute engine "delete from items where id = 0");
  let q = Engine.bind_sql engine "select amount from items where grp = 1" in
  let env = Stats_env.create catalog q.Query.relations in
  let st0 = Option.get (Stats_env.stats_of env "items.grp") in
  Alcotest.(check bool) "fresh enough" false st0.Column_stats.stale;
  (* heavy updates: > 10% of the table *)
  ignore (Engine.execute engine "delete from items where grp = 2");
  let env = Stats_env.create catalog q.Query.relations in
  let st1 = Option.get (Stats_env.stats_of env "items.grp") in
  Alcotest.(check bool) "stale after heavy updates" true st1.Column_stats.stale;
  (* ANALYZE clears it *)
  Engine.analyze engine ~keys:[ "id" ] "items";
  let env = Stats_env.create catalog q.Query.relations in
  let st2 = Option.get (Stats_env.stats_of env "items.grp") in
  Alcotest.(check bool) "fresh after analyze" false st2.Column_stats.stale

let test_query_after_dml_correct () =
  let catalog = small_catalog () in
  let engine = Engine.create catalog in
  ignore (Engine.execute engine "delete from items where grp = 4");
  ignore (Engine.execute engine "insert into items values (500, 9, 1.0)");
  let q = Engine.bind_sql engine
      "select grp, count(*) as n from items group by grp order by grp" in
  let expect, _, bounds = Reference.eval catalog q in
  let r = Engine.run_sql engine
      "select grp, count(*) as n from items group by grp order by grp" in
  Reference.check ~tol:(Reference.within bounds) "reference agrees" expect
    r.Dispatcher.rows

(* --- start-time sampling --- *)

let skewed_catalog () =
  let catalog = Catalog.create () in
  let schema =
    Schema.make [ Schema.col "k" Value.TInt; Schema.col "flag" Value.TInt ]
  in
  let heap = Heap_file.create schema in
  (* only 2% of rows have flag = 1, but there is no histogram *)
  for i = 0 to 4999 do
    Heap_file.append heap
      [| Value.Int i; Value.Int (if i mod 50 = 0 then 1 else 0) |]
  done;
  ignore (Catalog.add_table catalog "facts" heap);
  Catalog.analyze_table ~keys:[ "k" ] catalog "facts";
  Catalog.degrade_drop_histogram catalog ~table:"facts" ~column:"flag";
  (* hide the distinct count too: force the default guess *)
  catalog

let test_sampling_probe_measures_selectivity () =
  let catalog = skewed_catalog () in
  let ctx = Mqr_exec.Exec_ctx.create () in
  let q =
    Query.bind catalog (Parser.parse "select k from facts where flag = 1")
  in
  let env = Stats_env.create catalog q.Query.relations in
  let probes =
    Sampling.probe_and_override ~catalog ~ctx ~env q ~sample_rows:400
  in
  match probes with
  | [ p ] ->
    Alcotest.(check string) "alias" "facts" p.Sampling.alias;
    Alcotest.(check bool)
      (Printf.sprintf "observed %.4f near 0.02" p.Sampling.observed_selectivity)
      true
      (p.Sampling.observed_selectivity < 0.06);
    Alcotest.(check bool) "override installed" true
      (Stats_env.local_selectivity env ~alias:"facts" <> None)
  | _ -> Alcotest.fail "expected one probe"

let test_sampling_charges_io () =
  let catalog = skewed_catalog () in
  let ctx = Mqr_exec.Exec_ctx.create () in
  let q = Query.bind catalog (Parser.parse "select k from facts where flag = 1") in
  let env = Stats_env.create catalog q.Query.relations in
  ignore (Sampling.probe_and_override ~catalog ~ctx ~env q ~sample_rows:100);
  Alcotest.(check bool) "random reads charged" true
    ((Sim_clock.counters ctx.Mqr_exec.Exec_ctx.clock).Sim_clock.rand_reads > 0)

let test_sampling_skips_certain_predicates () =
  let catalog = small_catalog () in  (* full MaxDiff stats: low inaccuracy *)
  let ctx = Mqr_exec.Exec_ctx.create () in
  let q = Query.bind catalog (Parser.parse "select id from items where grp = 1") in
  let env = Stats_env.create catalog q.Query.relations in
  let probes = Sampling.probe_and_override ~catalog ~ctx ~env q ~sample_rows:100 in
  Alcotest.(check int) "nothing probed" 0 (List.length probes)

let test_engine_probe_rows_event () =
  let catalog = skewed_catalog () in
  let engine = Engine.create catalog in
  let r =
    Engine.run_sql engine ~probe_rows:200
      "select count(*) as n from facts where flag = 1"
  in
  let sampled =
    List.exists
      (function _, Dispatcher.Ev_sampled _ -> true | _ -> false)
      r.Dispatcher.timed_events
  in
  Alcotest.(check bool) "sampling event" true sampled;
  match r.Dispatcher.rows.(0).(0) with
  | Value.Int 100 -> ()
  | v -> Alcotest.failf "wrong count %s" (Value.to_string v)

(* A probe's sample is seeded by its table's name: the heap files a
   process made before a probed run do not change what it draws. *)
let test_probe_history_free () =
  let run () =
    let r =
      Engine.run_sql (Engine.create (skewed_catalog ())) ~probe_rows:200
        "select k from facts where flag = 1"
    in
    ( r.Dispatcher.rows,
      Int64.bits_of_float r.Dispatcher.elapsed_ms,
      List.filter_map
        (function _, Dispatcher.Ev_sampled p -> Some p | _ -> None)
        r.Dispatcher.timed_events )
  in
  let rows, elapsed, probes = run () in
  for _ = 1 to 5 do
    ignore (Heap_file.create (Schema.make [ Schema.col "x" Value.TInt ]))
  done;
  let rows', elapsed', probes' = run () in
  Alcotest.(check int) "one probe" 1 (List.length probes);
  Alcotest.(check bool) "same rows" true (rows = rows');
  Alcotest.(check int64) "same elapsed bits" elapsed elapsed';
  Alcotest.(check bool) "same probes" true (probes = probes')

(* --- explain analyze --- *)

let test_actual_rows_recorded () =
  let catalog = small_catalog () in
  let engine = Engine.create catalog in
  let r = Engine.run_sql engine "select grp, count(*) as n from items group by grp" in
  Alcotest.(check bool) "actuals recorded" true (r.Dispatcher.actual_rows <> []);
  (* the root of the final plan produced the result rows *)
  let root_id = r.Dispatcher.final_plan.Plan.id in
  (match List.assoc_opt root_id r.Dispatcher.actual_rows with
   | Some n -> Alcotest.(check int) "root actual = result" 5 n
   | None -> Alcotest.fail "root not recorded");
  (* rendering doesn't raise *)
  let rendered = Fmt.str "%a" Dispatcher.pp_explain_analyze r in
  Alcotest.(check bool) "render mentions actuals" true
    (String.length rendered > 0)

(* --- merge join integration --- *)

let test_merge_join_only_plans () =
  let catalog = small_catalog () in
  (* force merge joins by disabling nothing: instead check merge-join plans
     produce identical answers when the optimizer may pick them *)
  let engine =
    Engine.create
      ~opt_options:
        { Mqr_opt.Optimizer.default_options with
          Mqr_opt.Optimizer.enable_index_join = false }
      catalog
  in
  let sql = "select a.grp, count(*) as n from items a, items b \
             where a.id = b.id group by a.grp order by a.grp" in
  let q = Engine.bind_sql engine sql in
  let expect, _, bounds = Reference.eval catalog q in
  let r = Engine.run_sql engine sql in
  Reference.check ~tol:(Reference.within bounds) "self-join agrees" expect
    r.Dispatcher.rows

(* --- plan cache --- *)

let test_plan_cache_hits () =
  let catalog = small_catalog () in
  let engine = Engine.create ~plan_cache:true catalog in
  let sql = "select grp, count(*) as n from items group by grp" in
  let r1 = Engine.run_sql engine sql in
  let r2 = Engine.run_sql engine sql in
  (* second run pays no optimizer time *)
  Alcotest.(check int) "no optimizer invocation on hit" 0
    r2.Dispatcher.counters.Sim_clock.opt_invocations;
  Alcotest.(check bool) "first run optimized" true
    (r1.Dispatcher.counters.Sim_clock.opt_invocations >= 1);
  (match Engine.plan_cache_stats engine with
   | Some (hits, misses, size) ->
     Alcotest.(check int) "one hit" 1 hits;
     Alcotest.(check int) "one miss" 1 misses;
     Alcotest.(check int) "one entry" 1 size
   | None -> Alcotest.fail "cache enabled");
  Reference.check "same answers" r1.Dispatcher.rows r2.Dispatcher.rows

let test_plan_cache_execute_select () =
  let catalog = small_catalog () in
  let engine = Engine.create ~plan_cache:true catalog in
  let sql = "select grp, count(*) as n from items group by grp" in
  let select () =
    match Engine.execute engine sql with
    | Engine.Rows r -> r
    | _ -> Alcotest.fail "SELECT returns rows"
  in
  let r1 = select () in
  let r2 = select () in
  Alcotest.(check int) "no optimizer invocation on hit" 0
    r2.Dispatcher.counters.Sim_clock.opt_invocations;
  (match Engine.plan_cache_stats engine with
   | Some (hits, misses, _) ->
     Alcotest.(check int) "one hit" 1 hits;
     Alcotest.(check int) "one miss" 1 misses
   | None -> Alcotest.fail "cache enabled");
  Reference.check "same answers" r1.Dispatcher.rows r2.Dispatcher.rows

let test_plan_cache_invalidated_by_updates () =
  let catalog = small_catalog () in
  let engine = Engine.create ~plan_cache:true catalog in
  let sql = "select grp, count(*) as n from items group by grp" in
  ignore (Engine.run_sql engine sql);
  (* heavy update activity: > 10% of the table *)
  ignore (Engine.execute engine "delete from items where grp = 1");
  let r = Engine.run_sql engine sql in
  Alcotest.(check bool) "re-optimized after drift" true
    (r.Dispatcher.counters.Sim_clock.opt_invocations >= 1)

let test_plan_cache_invalidated_by_analyze () =
  let catalog = small_catalog () in
  let engine = Engine.create ~plan_cache:true catalog in
  let sql = "select grp, count(*) as n from items group by grp" in
  ignore (Engine.run_sql engine sql);
  (* ANALYZE refreshes statistics without any update activity — the update
     counter stays 0, so only the stats epoch can reveal the change *)
  Engine.analyze engine ~keys:[ "id" ] "items";
  let r = Engine.run_sql engine sql in
  Alcotest.(check bool) "re-optimized after analyze" true
    (r.Dispatcher.counters.Sim_clock.opt_invocations >= 1)

let test_plan_cache_per_mode () =
  let catalog = small_catalog () in
  let engine = Engine.create ~plan_cache:true catalog in
  let sql = "select grp, count(*) as n from items group by grp" in
  ignore (Engine.run_sql engine ~mode:Dispatcher.Off sql);
  let r = Engine.run_sql engine ~mode:Dispatcher.Full sql in
  (* different mode is a different cache key: full mode optimized anew *)
  Alcotest.(check bool) "full mode not served the off-mode plan" true
    (r.Dispatcher.counters.Sim_clock.opt_invocations >= 1)

module Plan_cache = Mqr_core.Plan_cache

(* A stale entry that [find] dropped leaves nothing in the eviction order:
   storing its key again makes it the newest entry, so the next eviction
   takes the oldest live one. *)
let test_plan_cache_restore_after_stale () =
  let catalog = small_catalog () in
  let engine = Engine.create catalog in
  let sql = "select grp from items" in
  let query = Engine.bind_sql engine sql and plan = Engine.explain engine sql in
  let cache = Plan_cache.create ~capacity:2 () in
  let store key = Plan_cache.store cache catalog key ~plan ~query ~collectors:0 in
  let cached key = Plan_cache.find cache catalog key <> None in
  store "A";
  Catalog.analyze_table catalog "items";
  Alcotest.(check bool) "A stale after ANALYZE" false (cached "A");
  List.iter store [ "B"; "A"; "C" ];
  Alcotest.(check bool) "A kept" true (cached "A");
  Alcotest.(check bool) "B evicted" false (cached "B");
  Alcotest.(check bool) "C kept" true (cached "C");
  Alcotest.(check int) "two entries" 2 (Plan_cache.size cache)

(* --- no array a reader holds ever changes --- *)

(* each tuple of [rows] and each of its cells, physically *)
let snapshot rows = (Array.copy rows, Array.map Array.copy rows)

let unchanged (tuples, cells) rows =
  Array.length rows = Array.length tuples
  && Array.for_all2 ( == ) rows tuples
  && Array.for_all2 (Array.for_all2 ( == )) rows cells

(* A full scan hands out the table's own storage: neither a DELETE nor an
   INSERT after it may write that array, or the report of a SELECT. *)
let test_scan_survives_dml () =
  let catalog = small_catalog () in
  let engine = Engine.create catalog in
  let heap = (Catalog.find_exn catalog "items").Catalog.heap in
  let scan () =
    let ctx = Mqr_exec.Exec_ctx.create () in
    Heap_file.read heap ~pool:ctx.Mqr_exec.Exec_ctx.pool
      ~clock:ctx.Mqr_exec.Exec_ctx.clock ~from_rid:0
      ~to_rid:(Heap_file.tuple_count heap)
  in
  let first = scan () in
  let reported = (Engine.run_sql engine "select * from items").Dispatcher.rows in
  let first0 = snapshot first and reported0 = snapshot reported in
  ignore (Engine.execute engine "delete from items where grp = 0");
  let second = scan () in
  let second0 = snapshot second in
  ignore (Engine.execute engine "insert into items values (500, 1, 1.5)");
  Alcotest.(check int) "the table changed" 161 (Heap_file.tuple_count heap);
  Alcotest.(check bool) "scan before the DELETE unchanged" true
    (unchanged first0 first);
  Alcotest.(check bool) "scan before the INSERT unchanged" true
    (unchanged second0 second);
  Alcotest.(check bool) "report rows unchanged" true
    (unchanged reported0 reported)

(* A DELETE that matches no row moves nothing: the heap keeps its rows
   array, and the index keeps its tree, since no rid moved. *)
let test_no_match_delete_moves_nothing () =
  let catalog = small_catalog () in
  let engine = Engine.create catalog in
  let tbl = Catalog.find_exn catalog "items" in
  let ix = Option.get (Catalog.find_index tbl ~column:"id") in
  let rows = Heap_file.rows tbl.Catalog.heap and tree = Catalog.index_tree tbl ix in
  (match Engine.execute engine "delete from items where id < 0" with
   | Engine.Modified { count; _ } -> Alcotest.(check int) "deleted" 0 count
   | _ -> Alcotest.fail "delete result");
  Alcotest.(check bool) "rows array physically the same" true
    (Heap_file.rows tbl.Catalog.heap == rows);
  Alcotest.(check bool) "index tree kept" true (Catalog.index_tree tbl ix == tree)

(* A scan leaf's codes live only inside the unit that scanned them: a
   Materialized leaf carries none.  The prepared plan's first unit joins
   a one-row table to a full scan of items, so that scan is the unit's
   coded leaf; the second unit groups a temp table that is items' own
   array, as read before.  A DELETE and
   an INSERT between the two steps renumber items' rids and codes, but
   the grouping must still see the rows it was handed: the stepped run
   returns the rows of an uninterrupted run. *)
let test_codes_stay_in_their_unit () =
  let catalog = small_catalog () in
  let engine = Engine.create catalog in
  let items = (Catalog.find_exn catalog "items").Catalog.heap in
  let one_schema = Schema.make [ Schema.col "k" Value.TInt ] in
  let one = Heap_file.create one_schema in
  Heap_file.append one [| Value.Int 0 |];
  ignore (Catalog.add_table catalog "one" one);
  let held = Heap_file.of_rows (Heap_file.schema items) (Heap_file.rows items) in
  ignore (Catalog.add_temp catalog "held_items" held);
  let id = ref 0 in
  let node schema node =
    incr id;
    { Plan.id = !id; node; schema;
      est = { Plan.rows = 1.0; width = 8.0; op_ms = 0.0; total_ms = 0.0 };
      min_mem = 0; max_mem = 0; mem = 0; dop = 1 }
  in
  let scan table alias heap =
    node (Schema.qualify (Heap_file.schema heap) alias)
      (Plan.Seq_scan { table; alias; filter = None })
  in
  let join =
    node (Schema.make [])
      (Plan.Hash_join
         { build = scan "one" "o" one; probe = scan "items" "i" items;
           keys = [ ("i.id", "o.k") ]; extra = None; rf = [] })
  in
  let grouped =
    node (Schema.make [])
      (Plan.Aggregate
         { input =
             node (Heap_file.schema held)
               (Plan.Materialized { name = "held_items"; covers = [ "i" ]; bytes = 0 });
           group_by = [ "grp" ];
           aggs =
             [ { Mqr_exec.Aggregate.fn = Mqr_exec.Aggregate.Count;
                 distinct_arg = false; arg = None; out_name = "n" } ] })
  in
  let plan =
    node (Schema.make []) (Plan.Block_nl_join { outer = grouped; inner = join; pred = None })
  in
  let cfg = Engine.dispatcher_config engine ~mode:Dispatcher.Off () in
  let query = Engine.bind_sql engine "select * from items i, one o where i.id = o.k" in
  let expected = (Dispatcher.run ~prepared:(plan, 0) cfg query).Dispatcher.rows in
  let r = Dispatcher.start ~prepared:(plan, 0) cfg query in
  Alcotest.(check bool) "a unit is left after the first" true (Dispatcher.step r = None);
  ignore (Engine.execute engine "delete from items where grp < 2");
  ignore (Engine.execute engine "insert into items values (500, 4, 1.5)");
  let rec finish () = match Dispatcher.step r with Some rep -> rep | None -> finish () in
  let got = (finish ()).Dispatcher.rows in
  Catalog.drop_table catalog "held_items";
  Alcotest.(check int) "five groups" 5 (Array.length expected);
  Alcotest.(check bool) "the grouping saw the rows it was handed" true
    (Array.length got = Array.length expected
     && Array.for_all2 Tuple.equal got expected)

(* An empty scan leaf lends no codes to an empty join output above it.
   Here the join's last scan is "one" (one column), filtered to nothing,
   under a hash join and under an index nested-loop join; the join's
   output is empty too, and the collector and GROUP BY above it read
   items' columns, at positions past one's arity.  A join's output is
   [Leaf.of_rows], so no codes reach them, and a join ends its unit, so
   they read it through a Materialized leaf; in Off and in Full mode the
   plan returns no groups. *)
let test_empty_leaf_under_join () =
  let catalog = small_catalog () in
  let engine = Engine.create catalog in
  let items = (Catalog.find_exn catalog "items").Catalog.heap in
  let one = Heap_file.create (Schema.make [ Schema.col "k" Value.TInt ]) in
  Heap_file.append one [| Value.Int 0 |];
  ignore (Catalog.add_table catalog "one" one);
  let id = ref 0 in
  let node schema node =
    incr id;
    { Plan.id = !id; node; schema;
      est = { Plan.rows = 1.0; width = 8.0; op_ms = 0.0; total_ms = 0.0 };
      min_mem = 0; max_mem = 0; mem = 0; dop = 1 }
  in
  let scan ?filter table alias heap =
    node (Schema.qualify (Heap_file.schema heap) alias)
      (Plan.Seq_scan { table; alias; filter })
  in
  let nothing = Expr.Cmp (Expr.Eq, Expr.Col "o.k", Expr.Const (Value.Int 99)) in
  let joins =
    [ ("hash join",
       Plan.Hash_join
         { build = scan "items" "i" items; probe = scan ~filter:nothing "one" "o" one;
           keys = [ ("o.k", "i.id") ]; extra = None; rf = [] });
      ("index nested-loop join",
       Plan.Index_nl_join
         { outer = scan ~filter:nothing "one" "o" one; table = "items"; alias = "i";
           outer_col = "o.k"; inner_col = "id"; inner_filter = None; extra = None }) ]
  in
  let query = Engine.bind_sql engine "select * from items i, one o where i.id = o.k" in
  List.iter
    (fun (what, join) ->
       let plan =
         node (Schema.make [])
           (Plan.Aggregate
              { input =
                  node (Schema.make [])
                    (Plan.Collect
                       { input =
                           node
                             (Schema.concat
                                (Schema.qualify (Heap_file.schema one) "o")
                                (Schema.qualify (Heap_file.schema items) "i"))
                             join;
                         spec = Mqr_exec.Collector.spec ~distinct_cols:[ "i.grp" ] ();
                         cid = 100 });
                group_by = [ "i.grp"; "i.amount" ];
                aggs =
                  [ { Mqr_exec.Aggregate.fn = Mqr_exec.Aggregate.Count;
                      distinct_arg = false; arg = None; out_name = "n" } ] })
       in
       List.iter
         (fun mode ->
            let cfg = Engine.dispatcher_config engine ~mode () in
            let r = Dispatcher.run ~prepared:(plan, 0) cfg query in
            Alcotest.(check int)
              (Printf.sprintf "%s, %s: no groups" what (Dispatcher.mode_to_string mode))
              0 (Array.length r.Dispatcher.rows))
         [ Dispatcher.Off; Dispatcher.Full ])
    joins

let tpcd_catalog () = Mqr_tpcd.Workload.experiment_catalog ~sf:0.001 ()

(* The datagen catalog's twin: the same tables, statistics and indexes,
   each heap an [of_rows] copy of the same tuples, so it has no codes and
   every operator takes its plain path. *)
let twin_catalog catalog =
  let twin = Catalog.create () in
  List.iter
    (fun (tbl : Catalog.table) ->
       let heap = tbl.Catalog.heap in
       let copy =
         Catalog.add_table twin tbl.Catalog.name
           (Heap_file.of_rows (Heap_file.schema heap) (Array.copy (Heap_file.rows heap)))
       in
       copy.Catalog.believed_rows <- tbl.Catalog.believed_rows;
       copy.Catalog.believed_pages <- tbl.Catalog.believed_pages;
       copy.Catalog.stats <- tbl.Catalog.stats;
       copy.Catalog.indexes <- tbl.Catalog.indexes;
       copy.Catalog.updates_since_analyze <- tbl.Catalog.updates_since_analyze;
       copy.Catalog.stats_epoch <- tbl.Catalog.stats_epoch)
    (Catalog.tables catalog);
  twin

(* Every benchmark query in five modes, serial and parallel (a striped
   scan carries the file's codes), with and without runtime filters, on
   the datagen catalog and on its twin
   without codes: the same rows in the same order, the same simulated
   time and the same actual rows per plan node. *)
let test_codes_match_twin () =
  let catalog = tpcd_catalog () in
  let twin = twin_catalog catalog in
  List.iter
    (fun (max_dop, runtime_filters) ->
       let engine catalog =
         Engine.create ~budget_pages:64 ~pool_pages:512 ~runtime_filters
           ~opt_options:{ Mqr_opt.Optimizer.default_options with max_dop }
           catalog
       in
       let coded = engine catalog and plain = engine twin in
       List.iter
         (fun mode ->
            List.iter
              (fun (q : Mqr_tpcd.Queries.query) ->
                 let run e = Engine.run_sql e ~mode q.Mqr_tpcd.Queries.sql in
                 let a = run coded and b = run plain in
                 let what =
                   Printf.sprintf "%s, %s, max dop %d, runtime filters %b"
                     q.Mqr_tpcd.Queries.name (Dispatcher.mode_to_string mode)
                     max_dop runtime_filters
                 in
                 Alcotest.(check bool) (what ^ ": rows") true
                   (Array.length a.Dispatcher.rows = Array.length b.Dispatcher.rows
                    && Array.for_all2 Tuple.equal a.Dispatcher.rows b.Dispatcher.rows);
                 Alcotest.(check int64) (what ^ ": elapsed")
                   (Int64.bits_of_float b.Dispatcher.elapsed_ms)
                   (Int64.bits_of_float a.Dispatcher.elapsed_ms);
                 Alcotest.(check (list (pair int int))) (what ^ ": actual rows")
                   b.Dispatcher.actual_rows a.Dispatcher.actual_rows)
              Mqr_tpcd.Queries.all)
         [ Dispatcher.Off; Dispatcher.Memory_only; Dispatcher.Plan_only;
           Dispatcher.Full; Dispatcher.Bound_checked ])
    [ (1, false); (1, true); (2, false); (2, true) ]

(* A SELECT's rows are the caller's to write, also when the plan is a bare
   full scan (a prepared plan: the optimizer's own puts a projection on
   top). *)
let test_sorting_report_leaves_table () =
  let catalog = tpcd_catalog () in
  let engine = Engine.create catalog in
  let heap = (Catalog.find_exn catalog "region").Catalog.heap in
  let stored = snapshot (Heap_file.rows heap) in
  let sql = "select * from region" in
  let bare =
    match (Engine.explain engine sql).Plan.node with
    | Plan.Project { input; _ } -> input
    | _ -> Alcotest.fail "expected a projection on top"
  in
  let cfg = Engine.dispatcher_config engine ~mode:Dispatcher.Off () in
  List.iter
    (fun (what, (report : Dispatcher.report)) ->
       let rows = report.Dispatcher.rows in
       Alcotest.(check int) (what ^ ": every region") 5 (Array.length rows);
       Array.sort (fun a b -> compare b a) rows;
       Alcotest.(check bool) (what ^ ": region unchanged") true
         (unchanged stored (Heap_file.rows heap)))
    [ ("select", Engine.run_sql engine sql);
      ( "bare scan",
        Dispatcher.run ~prepared:(bare, 0) cfg (Engine.bind_sql engine sql) ) ]

(* Every benchmark query in every mode, with serial and with parallel
   plans, leaves each base table's tuples and cells where they were. *)
let test_queries_leave_base_heaps () =
  List.iter
    (fun max_dop ->
       let catalog = tpcd_catalog () in
       let engine =
         Engine.create ~budget_pages:64 ~pool_pages:512
           ~opt_options:{ Mqr_opt.Optimizer.default_options with max_dop }
           catalog
       in
       let heaps =
         List.map
           (fun tbl ->
              let heap = tbl.Catalog.heap in
              (tbl.Catalog.name, heap, snapshot (Heap_file.rows heap)))
           (Catalog.tables catalog)
       in
       List.iter
         (fun mode ->
            List.iter
              (fun (q : Mqr_tpcd.Queries.query) ->
                 ignore (Engine.run_sql engine ~mode q.Mqr_tpcd.Queries.sql))
              Mqr_tpcd.Queries.all)
         [ Dispatcher.Off; Dispatcher.Memory_only; Dispatcher.Plan_only;
           Dispatcher.Full; Dispatcher.Bound_checked ];
       List.iter
         (fun (name, heap, stored) ->
            Alcotest.(check bool)
              (Printf.sprintf "%s unchanged at max dop %d" name max_dop)
              true
              (unchanged stored (Heap_file.rows heap)))
         heaps)
    [ 1; 2 ]

let suite =
  [ Alcotest.test_case "insert" `Quick test_insert;
    Alcotest.test_case "insert coercion" `Quick test_insert_coercion;
    Alcotest.test_case "insert arity error" `Quick test_insert_arity_error;
    Alcotest.test_case "insert type error" `Quick test_insert_type_error;
    Alcotest.test_case "delete" `Quick test_delete;
    Alcotest.test_case "delete keeps index" `Quick test_delete_keeps_index_consistent;
    Alcotest.test_case "update activity stale" `Quick test_update_activity_marks_stale;
    Alcotest.test_case "query after dml" `Quick test_query_after_dml_correct;
    Alcotest.test_case "sampling measures selectivity" `Quick test_sampling_probe_measures_selectivity;
    Alcotest.test_case "sampling charges io" `Quick test_sampling_charges_io;
    Alcotest.test_case "sampling skips certain" `Quick test_sampling_skips_certain_predicates;
    Alcotest.test_case "engine probe_rows" `Quick test_engine_probe_rows_event;
    Alcotest.test_case "a probe does not depend on earlier heap files" `Quick
      test_probe_history_free;
    Alcotest.test_case "actual rows recorded" `Quick test_actual_rows_recorded;
    Alcotest.test_case "merge-join plans agree" `Quick test_merge_join_only_plans;
    Alcotest.test_case "plan cache hits" `Quick test_plan_cache_hits;
    Alcotest.test_case "plan cache serves execute" `Quick
      test_plan_cache_execute_select;
    Alcotest.test_case "plan cache invalidation" `Quick test_plan_cache_invalidated_by_updates;
    Alcotest.test_case "plan cache analyze invalidation" `Quick test_plan_cache_invalidated_by_analyze;
    Alcotest.test_case "plan cache per mode" `Quick test_plan_cache_per_mode;
    Alcotest.test_case "a re-stored stale key is the newest entry" `Quick
      test_plan_cache_restore_after_stale;
    Alcotest.test_case "codes never outlive their unit" `Quick
      test_codes_stay_in_their_unit;
    Alcotest.test_case "an empty scan leaf gives no codes to a join's output" `Quick
      test_empty_leaf_under_join;
    Alcotest.test_case "coded catalog = its twin without codes" `Quick
      test_codes_match_twin;
    Alcotest.test_case "a full-scan result survives INSERT and DELETE" `Quick
      test_scan_survives_dml;
    Alcotest.test_case "a DELETE that matches nothing moves nothing" `Quick
      test_no_match_delete_moves_nothing;
    Alcotest.test_case "sorting report rows leaves the table" `Quick
      test_sorting_report_leaves_table;
    Alcotest.test_case "queries leave base heaps physically identical" `Quick
      test_queries_leave_base_heaps ]
