(* Additional coverage: simulated clock accounting, dispatcher mechanics
   (plan switches, temp tables, remainder reconstruction), parser DML,
   inaccuracy rules for merge/index joins, engine configuration. *)
open Mqr_storage
module Catalog = Mqr_catalog.Catalog
module Engine = Mqr_core.Engine
module Dispatcher = Mqr_core.Dispatcher
module Inaccuracy = Mqr_core.Inaccuracy
module Reopt_policy = Mqr_core.Reopt_policy
module Parser = Mqr_sql.Parser
module Query = Mqr_sql.Query
module Plan = Mqr_opt.Plan
module Optimizer = Mqr_opt.Optimizer
module Stats_env = Mqr_opt.Stats_env
module Expr = Mqr_expr.Expr
module Exec_ctx = Mqr_exec.Exec_ctx

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* --- Sim_clock --- *)

let test_clock_accounting () =
  let c = Sim_clock.create () in
  Sim_clock.charge_seq_read c 10;
  Sim_clock.charge_rand_read c 2;
  Sim_clock.charge_write c 3;
  Sim_clock.charge_cpu_tuples c 1000;
  let expect =
    (10.0 *. Sim_clock.seq_read_ms)
    +. (2.0 *. Sim_clock.rand_read_ms)
    +. (3.0 *. Sim_clock.write_ms)
    +. (1000.0 *. Sim_clock.cpu_tuple_ms)
  in
  Alcotest.(check (float 1e-9)) "elapsed" expect (Sim_clock.elapsed_ms c)

let test_clock_since () =
  let c = Sim_clock.create () in
  Sim_clock.charge_seq_read c 5;
  let snap = Sim_clock.snapshot c in
  Sim_clock.charge_write c 7;
  Alcotest.(check (float 1e-9)) "delta only"
    (7.0 *. Sim_clock.write_ms)
    (Sim_clock.since c snap)

let test_clock_optimizer_charge () =
  let c = Sim_clock.create () in
  Sim_clock.charge_optimizer c ~plans:100;
  let counters = Sim_clock.counters c in
  Alcotest.(check int) "invocations" 1 counters.Sim_clock.opt_invocations;
  Alcotest.(check bool) "opt time recorded" true (counters.Sim_clock.opt_ms > 0.0)

let test_pages_of_bytes () =
  Alcotest.(check int) "one page" 1 (Exec_ctx.pages_of_bytes 10);
  Alcotest.(check int) "exact page" 1 (Exec_ctx.pages_of_bytes 4096);
  Alcotest.(check int) "two pages" 2 (Exec_ctx.pages_of_bytes 4097);
  Alcotest.(check int) "zero is one" 1 (Exec_ctx.pages_of_bytes 0)

(* --- parser DML --- *)

let test_parse_insert () =
  match Parser.parse_statement "insert into t values (1, 'a'), (2, 'b')" with
  | Parser.Insert
      { table = "t";
        rows = [ { values = [| _; _ |]; _ }; { values = [| _; _ |]; _ } ] } ->
    ()
  | _ -> Alcotest.fail "insert parse"

let test_parse_delete () =
  (match Parser.parse_statement "delete from t where a < 3" with
   | Parser.Delete { table = "t"; where = Some _ } -> ()
   | _ -> Alcotest.fail "delete parse");
  match Parser.parse_statement "delete from t" with
  | Parser.Delete { table = "t"; where = None } -> ()
  | _ -> Alcotest.fail "delete-all parse"

let test_parse_statement_select () =
  match Parser.parse_statement "select a from t" with
  | Parser.Select _ -> ()
  | _ -> Alcotest.fail "select statement"

let test_parse_insert_negative_number () =
  match Parser.parse_statement "insert into t values (-3)" with
  | Parser.Insert { rows = [ { values = [| _ |]; _ } ]; _ } -> ()
  | _ -> Alcotest.fail "negative literal"

let test_parse_insert_errors () =
  List.iter
    (fun sql ->
       Alcotest.(check bool) sql true
         (try
            ignore (Parser.parse_statement sql);
            false
          with Parser.Parse_error _ | Mqr_sql.Lexer.Lex_error _ -> true))
    [ "insert t values (1)"; "insert into t (1)"; "delete t"; "insert into t values 1" ]

(* --- dispatcher mechanics: a scenario engineered to switch plans --- *)

let switching_catalog () =
  (* big fact table with a badly under-estimated filter feeding two joins;
     the bad estimate makes the first plan terrible so a switch pays *)
  let catalog = Catalog.create () in
  let rng = Mqr_stats.Rng.create 5150 in
  let fact =
    Heap_file.create
      (Schema.make
         [ Schema.col "fk1" Value.TInt; Schema.col "fk2" Value.TInt;
           Schema.col "v" Value.TInt;
           Schema.col ~width:48 "pad" Value.TString ])
  in
  for i = 0 to 29_999 do
    Heap_file.append fact
      [| Value.Int (i mod 300); Value.Int (i mod 500);
         Value.Int (Mqr_stats.Rng.int rng 1000);
         Value.String (String.make 40 'x') |]
  done;
  let dim1 =
    Heap_file.create
      (Schema.make [ Schema.col "k1" Value.TInt; Schema.col "a1" Value.TInt ])
  in
  for i = 0 to 299 do
    Heap_file.append dim1 [| Value.Int i; Value.Int (i mod 7) |]
  done;
  let dim2 =
    Heap_file.create
      (Schema.make [ Schema.col "k2" Value.TInt; Schema.col "a2" Value.TInt ])
  in
  for i = 0 to 499 do
    Heap_file.append dim2 [| Value.Int i; Value.Int (i mod 11) |]
  done;
  ignore (Catalog.add_table catalog "fact" fact);
  ignore (Catalog.add_table catalog "dim1" dim1);
  ignore (Catalog.add_table catalog "dim2" dim2);
  Catalog.analyze_table catalog "fact";
  Catalog.analyze_table ~keys:[ "k1" ] catalog "dim1";
  Catalog.analyze_table ~keys:[ "k2" ] catalog "dim2";
  (* the filter column was never analyzed AND the table tripled since the
     catalog was built *)
  Catalog.degrade_drop_column_stats catalog ~table:"fact" ~column:"v";
  Catalog.degrade_scale_cardinality catalog ~table:"fact" 0.2;
  catalog

let switching_sql =
  "select a1, sum(a2) as s from fact, dim1, dim2 \
   where fact.fk1 = dim1.k1 and fact.fk2 = dim2.k2 and v < 900 \
   group by a1"

let test_plan_only_correct_under_pressure () =
  let catalog = switching_catalog () in
  let engine = Engine.create ~budget_pages:48 catalog in
  let off = Engine.run_sql engine ~mode:Dispatcher.Off switching_sql in
  let plan_only = Engine.run_sql engine ~mode:Dispatcher.Plan_only switching_sql in
  Alcotest.(check (list (list string))) "same answers"
    (Reference.canonical off.Dispatcher.rows)
    (Reference.canonical plan_only.Dispatcher.rows)

let test_switch_materialization_charged () =
  let catalog = switching_catalog () in
  let engine = Engine.create ~budget_pages:48 catalog in
  let r = Engine.run_sql engine ~mode:Dispatcher.Plan_only switching_sql in
  if r.Dispatcher.switches > 0 then begin
    (* a switch pays for writing the intermediate *)
    Alcotest.(check bool) "writes charged" true
      (r.Dispatcher.counters.Sim_clock.writes > 0)
  end

let test_considered_events_have_sane_numbers () =
  let catalog = switching_catalog () in
  let engine = Engine.create ~budget_pages:48 catalog in
  let r = Engine.run_sql engine ~mode:Dispatcher.Full switching_sql in
  List.iter
    (fun (_, ev) ->
       match ev with
       | Dispatcher.Ev_considered { t_improved; t_optimizer; t_opt_estimated; _ } ->
         Alcotest.(check bool) "positive times" true
           (t_improved >= 0.0 && t_optimizer >= 0.0 && t_opt_estimated > 0.0)
       | _ -> ())
    r.Dispatcher.timed_events

let test_opt_invocations_counted () =
  let catalog = switching_catalog () in
  let engine = Engine.create ~budget_pages:48 catalog in
  let r = Engine.run_sql engine ~mode:Dispatcher.Full switching_sql in
  (* at least the initial optimization *)
  Alcotest.(check bool) "optimizer charged" true
    (r.Dispatcher.counters.Sim_clock.opt_invocations >= 1);
  Alcotest.(check bool) "re-optimizations counted too" true
    (r.Dispatcher.counters.Sim_clock.opt_invocations >= 1 + r.Dispatcher.switches)

let test_max_switches_respected () =
  let catalog = switching_catalog () in
  let engine =
    Engine.with_params
      (Engine.create ~budget_pages:48 catalog)
      { Reopt_policy.default_params with Reopt_policy.max_switches = 0 }
  in
  let r = Engine.run_sql engine ~mode:Dispatcher.Full switching_sql in
  Alcotest.(check int) "no switches allowed" 0 r.Dispatcher.switches

let test_mu_zero_means_no_collectors () =
  let catalog = switching_catalog () in
  let engine =
    Engine.with_params
      (Engine.create ~budget_pages:48 catalog)
      { Reopt_policy.default_params with Reopt_policy.mu = 0.0 }
  in
  let r = Engine.run_sql engine ~mode:Dispatcher.Full switching_sql in
  Alcotest.(check int) "no collectors" 0 r.Dispatcher.collectors

(* --- inaccuracy rules for the other join types --- *)

let test_inaccuracy_merge_and_inl_joins () =
  let catalog = switching_catalog () in
  let q =
    Query.bind catalog
      (Parser.parse
         "select a1 from fact, dim1 where fact.fk1 = dim1.k1 and v < 900")
  in
  let env = Stats_env.create catalog q.Query.relations in
  let r = Optimizer.optimize ~env q in
  (* whatever join the optimizer chose, a filter with no statistics makes
     the output-cardinality level High *)
  Alcotest.(check string) "high above unanalyzed filter" "high"
    (Inaccuracy.level_to_string
       (Inaccuracy.cardinality_level env r.Optimizer.plan))

let test_filter_level_none_is_low () =
  let catalog = switching_catalog () in
  let q = Query.bind catalog (Parser.parse "select a1 from dim1") in
  let env = Stats_env.create catalog q.Query.relations in
  Alcotest.(check string) "no filter -> low" "low"
    (Inaccuracy.level_to_string (Inaccuracy.filter_level env None))

(* --- engine configuration --- *)

let test_time_ms_smoke () =
  let catalog = switching_catalog () in
  let engine = Engine.create catalog in
  Alcotest.(check bool) "positive time" true
    ((Engine.run_sql engine "select count(*) as n from dim1")
       .Dispatcher.elapsed_ms
     > 0.0)

(* --- plan pretty-printing --- *)

let test_plan_to_string_mentions_ops () =
  let catalog = switching_catalog () in
  let engine = Engine.create catalog in
  let plan = Engine.explain engine switching_sql in
  let text = Plan.to_string plan in
  Alcotest.(check bool) "mentions aggregate" true
    (contains text "aggregate");
  Alcotest.(check bool) "mentions scan" true
    (contains text "seq_scan(fact)" || contains text "index_scan")

let test_actual_ms_accounts_for_elapsed () =
  (* per-node exclusive times sum to (approximately) the execution part of
     the clock: optimizer time and temp-registration overheads sit outside
     the instrumented nodes *)
  let catalog = switching_catalog () in
  let engine = Engine.create ~budget_pages:48 catalog in
  let r = Engine.run_sql engine ~mode:Dispatcher.Off switching_sql in
  let node_sum = List.fold_left (fun acc (_, ms) -> acc +. ms) 0.0 r.Dispatcher.actual_ms in
  Alcotest.(check bool)
    (Printf.sprintf "nodes %.1f <= total %.1f" node_sum r.Dispatcher.elapsed_ms)
    true
    (node_sum <= r.Dispatcher.elapsed_ms +. 1e-6);
  Alcotest.(check bool) "nodes dominate total" true
    (node_sum >= 0.5 *. r.Dispatcher.elapsed_ms)

let test_explain_analyze_renders () =
  let catalog = switching_catalog () in
  let engine = Engine.create ~budget_pages:48 catalog in
  let r = Engine.run_sql engine switching_sql in
  let text = Fmt.str "%a" Dispatcher.pp_explain_analyze r in
  Alcotest.(check bool) "mentions actual" true (contains text "actual");
  Alcotest.(check bool) "mentions ms" true (contains text "ms")

(* --- plan cache unit behaviour --- *)

module Plan_cache = Mqr_core.Plan_cache

let test_plan_cache_capacity_eviction () =
  let catalog = switching_catalog () in
  let engine = Engine.create catalog in
  let q = Engine.bind_sql engine "select a1 from dim1" in
  let plan = Engine.explain engine "select a1 from dim1" in
  let cache = Plan_cache.create ~capacity:2 () in
  List.iter
    (fun key -> Plan_cache.store cache catalog key ~plan ~query:q ~collectors:0)
    [ "q1"; "q2"; "q3" ];
  Alcotest.(check bool) "bounded" true (Plan_cache.size cache <= 2);
  (* the oldest entry was evicted FIFO *)
  Alcotest.(check bool) "q1 gone" true (Plan_cache.find cache catalog "q1" = None)

let test_plan_cache_invalidate_on_analyze () =
  let catalog = switching_catalog () in
  let engine = Engine.create catalog in
  let q = Engine.bind_sql engine "select a1 from dim1" in
  let plan = Engine.explain engine "select a1 from dim1" in
  let cache = Plan_cache.create () in
  (* simulate update activity recorded before caching *)
  Catalog.note_updates catalog ~table:"dim1" 5;
  Plan_cache.store cache catalog "k" ~plan ~query:q ~collectors:0;
  Alcotest.(check bool) "hit while stable" true
    (Plan_cache.find cache catalog "k" <> None);
  (* ANALYZE resets the counter below the cached version: statistics moved
     under the plan, so it must be invalidated *)
  Catalog.analyze_table catalog "dim1";
  Alcotest.(check bool) "invalidated after analyze" true
    (Plan_cache.find cache catalog "k" = None)

(* --- result schema and ordering guarantees at the engine surface --- *)

let test_result_schema_names () =
  let catalog = switching_catalog () in
  let engine = Engine.create catalog in
  let r =
    Engine.run_sql engine
      "select a1, count(*) as cnt, sum(a2) as total from fact, dim1, dim2        where fact.fk1 = dim1.k1 and fact.fk2 = dim2.k2 group by a1"
  in
  let names =
    List.map (fun c -> c.Mqr_storage.Schema.name)
      (Mqr_storage.Schema.columns r.Dispatcher.result_schema)
  in
  Alcotest.(check (list string)) "output columns" [ "a1"; "cnt"; "total" ] names

let test_order_by_non_selected_column () =
  (* regression: ORDER BY may reference a column the SELECT list drops *)
  let catalog = switching_catalog () in
  let engine = Engine.create catalog in
  let r =
    Engine.run_sql engine "select a1 from dim1 order by k1 desc limit 3"
  in
  Alcotest.(check int) "limited" 3 (Array.length r.Dispatcher.rows);
  Alcotest.(check int) "one output column" 1
    (Mqr_storage.Schema.arity r.Dispatcher.result_schema);
  (* k1 descending: a1 of rows 299,298,297 = k1 mod 7 *)
  let expect = List.map (fun k -> string_of_int (k mod 7)) [ 299; 298; 297 ] in
  let got =
    Array.to_list
      (Array.map (fun t -> Mqr_storage.Value.to_string t.(0)) r.Dispatcher.rows)
  in
  Alcotest.(check (list string)) "right rows in order" expect got

let test_multi_key_merge_join_correct () =
  (* regression: pre-sorted flags must not fire on multi-key merges *)
  let c = Mqr_exec.Exec_ctx.create () in
  let schema q =
    Mqr_storage.Schema.make
      [ Mqr_storage.Schema.col ~qualifier:q "a" Mqr_storage.Value.TInt;
        Mqr_storage.Schema.col ~qualifier:q "b" Mqr_storage.Value.TInt ]
  in
  (* left sorted by a only; b deliberately unsorted within equal a *)
  let mk q off =
    ignore q;
    Array.of_list
      (List.concat_map
         (fun a ->
            List.map
              (fun b -> [| Mqr_storage.Value.Int a; Mqr_storage.Value.Int ((7 - b + off) mod 5) |])
              [ 0; 1; 2; 3; 4 ])
         [ 0; 0; 1; 1; 2 ])
  in
  let left = mk "l" 0 and right = mk "r" 1 in
  let m =
    Mqr_exec.Merge_join.merge_join c ~mem_pages:16 ~left:(left, schema "l")
      ~right:(right, schema "r")
      ~keys:[ ("l.a", "r.a"); ("l.b", "r.b") ] ()
  in
  let h =
    Mqr_exec.Join.hash_join c ~mem_pages:16 ~build:(right, schema "r")
      ~probe:(Mqr_exec.Leaf.of_rows left, schema "l")
      ~keys:[ ("l.a", "r.a"); ("l.b", "r.b") ] ()
  in
  Alcotest.(check int) "same match count"
    (Array.length h.Mqr_exec.Join.rows)
    (Array.length m.Mqr_exec.Merge_join.rows)

let test_optimizer_never_presorts_multikey () =
  let catalog = switching_catalog () in
  let engine = Engine.create catalog in
  (* a query with a two-key join via both fk columns against a self-join *)
  let plan =
    Engine.explain engine
      "select a.v from fact a, fact b where a.fk1 = b.fk1 and a.fk2 = b.fk2        and a.v < 10"
  in
  List.iter
    (fun (n : Plan.t) ->
       match n.Plan.node with
       | Plan.Merge_join { keys; left_sorted; right_sorted; _ }
         when List.length keys > 1 ->
         Alcotest.(check bool) "no presort on multi-key" false
           (left_sorted || right_sorted)
       | _ -> ())
    (Plan.nodes plan)

(* --- temp statistics cover the query's read set --- *)

(* Q7 and Q8 stepped unit by unit, sanitizer and progress attached.  A
   temp table's column carries min/max exactly when it is in the query's
   read set, the temp holds rows and no collector observed the column
   before the temp was registered; a collected column carries its
   collector's histogram or distinct count instead.  The collected
   columns come from the report's [Ev_collected] events, by emission
   time. *)
let test_temp_stats_cover_read_set () =
  let catalog = Mqr_tpcd.Workload.experiment_catalog ~sf:0.001 () in
  let engine =
    Engine.create ~budget_pages:64 ~pool_pages:512
      ~sanitize:true catalog
  in
  let ranged = ref 0 and empty = ref 0 and collected = ref 0 in
  List.iter
    (fun name ->
       let q =
         Engine.bind_sql engine (Mqr_tpcd.Queries.find name).Mqr_tpcd.Queries.sql
       in
       let read = Query.read_columns q in
       List.iter
         (fun mode ->
            let label = name ^ "/" ^ Dispatcher.mode_to_string mode in
            let progress = Mqr_obs.Progress.create () in
            let r =
              Dispatcher.start (Engine.dispatcher_config engine ~mode ~progress ()) q
            in
            (* each temp's statistics as first seen, with the sim time of
               the step that registered it *)
            let temps = Hashtbl.create 8 in
            let observe () =
              List.iter
                (fun (t : Catalog.table) ->
                   if t.Catalog.temp && not (Hashtbl.mem temps t.Catalog.name)
                   then
                     Hashtbl.add temps t.Catalog.name
                       (Dispatcher.run_elapsed_ms r, t))
                (Catalog.tables catalog)
            in
            let rec drive () =
              match Dispatcher.step r with
              | None -> observe (); drive ()
              | Some report -> report
            in
            let report = drive () in
            if mode = Dispatcher.Full then
              Alcotest.(check bool) (label ^ " switches") true
                (report.Dispatcher.switches > 0);
            Alcotest.(check bool) (label ^ " registered temps") true
              (Hashtbl.length temps > 0);
            let collected_by now =
              List.concat_map
                (function
                  | ts, Dispatcher.Ev_collected { columns; _ } when ts <= now ->
                    columns
                  | _ -> [])
                report.Dispatcher.timed_events
            in
            Hashtbl.iter
              (fun temp (now, (t : Catalog.table)) ->
                 let overridden = collected_by now in
                 let rows = Heap_file.tuple_count t.Catalog.heap in
                 List.iteri
                   (fun i (col : Schema.column) ->
                      let c = col.Schema.qualifier ^ "." ^ col.Schema.name in
                      let st = t.Catalog.stats.(i) in
                      let what = Printf.sprintf "%s %s %s" label temp c in
                      if List.mem c overridden then begin
                        incr collected;
                        Alcotest.(check bool) (what ^ " collected") true
                          (st.Mqr_catalog.Column_stats.histogram <> None
                           || st.Mqr_catalog.Column_stats.distinct <> None)
                      end
                      else begin
                        let expect = List.mem c read && rows > 0 in
                        if expect then incr ranged else incr empty;
                        Alcotest.(check bool) (what ^ " min") expect
                          (st.Mqr_catalog.Column_stats.min_v <> None);
                        Alcotest.(check bool) (what ^ " max") expect
                          (st.Mqr_catalog.Column_stats.max_v <> None)
                      end)
                   (Schema.columns (Heap_file.schema t.Catalog.heap)))
              temps)
         [ Dispatcher.Full; Dispatcher.Bound_checked ])
    [ "Q7"; "Q8" ];
  Alcotest.(check bool) "read-set columns ranged" true (!ranged > 0);
  Alcotest.(check bool) "other columns left empty" true (!empty > 0);
  Alcotest.(check bool) "collected columns seen" true (!collected > 0)

let suite =
  [ Alcotest.test_case "clock accounting" `Quick test_clock_accounting;
    Alcotest.test_case "clock since" `Quick test_clock_since;
    Alcotest.test_case "clock optimizer charge" `Quick test_clock_optimizer_charge;
    Alcotest.test_case "pages of bytes" `Quick test_pages_of_bytes;
    Alcotest.test_case "parse insert" `Quick test_parse_insert;
    Alcotest.test_case "parse delete" `Quick test_parse_delete;
    Alcotest.test_case "parse statement select" `Quick test_parse_statement_select;
    Alcotest.test_case "parse negative literal" `Quick test_parse_insert_negative_number;
    Alcotest.test_case "parse dml errors" `Quick test_parse_insert_errors;
    Alcotest.test_case "plan-only correct" `Quick test_plan_only_correct_under_pressure;
    Alcotest.test_case "switch pays materialization" `Quick test_switch_materialization_charged;
    Alcotest.test_case "considered events sane" `Quick test_considered_events_have_sane_numbers;
    Alcotest.test_case "optimizer invocations" `Quick test_opt_invocations_counted;
    Alcotest.test_case "max switches" `Quick test_max_switches_respected;
    Alcotest.test_case "mu=0 no collectors" `Quick test_mu_zero_means_no_collectors;
    Alcotest.test_case "inaccuracy high over unanalyzed" `Quick test_inaccuracy_merge_and_inl_joins;
    Alcotest.test_case "filter level none" `Quick test_filter_level_none_is_low;
    Alcotest.test_case "time_ms" `Quick test_time_ms_smoke;
    Alcotest.test_case "plan to_string" `Quick test_plan_to_string_mentions_ops;
    Alcotest.test_case "actual_ms accounting" `Quick test_actual_ms_accounts_for_elapsed;
    Alcotest.test_case "explain analyze renders" `Quick test_explain_analyze_renders;
    Alcotest.test_case "plan cache eviction" `Quick test_plan_cache_capacity_eviction;
    Alcotest.test_case "plan cache analyze invalidation" `Quick test_plan_cache_invalidate_on_analyze;
    Alcotest.test_case "result schema names" `Quick test_result_schema_names;
    Alcotest.test_case "order by non-selected column" `Quick test_order_by_non_selected_column;
    Alcotest.test_case "multi-key merge join correct" `Quick test_multi_key_merge_join_correct;
    Alcotest.test_case "no presort on multi-key" `Quick test_optimizer_never_presorts_multikey;
    Alcotest.test_case "temp statistics cover the read set" `Quick
      test_temp_stats_cover_read_set ]
