open Mqr_storage
module Catalog = Mqr_catalog.Catalog
module Parser = Mqr_sql.Parser
module Query = Mqr_sql.Query
module Optimizer = Mqr_opt.Optimizer
module Stats_env = Mqr_opt.Stats_env
module Verifier = Mqr_analysis.Verifier
module Trace = Mqr_obs.Trace

type t = {
  catalog : Catalog.t;
  pool_pages : int;
  budget_pages : int;
  params : Reopt_policy.params;
  opt_options : Optimizer.options;
  udfs : Parser.udf_def list ref;
  plan_cache : Plan_cache.t option;
  verify : Verifier.mode;
  trace : Trace.t option;
}

let create ?(pool_pages = 2048) ?(budget_pages = 512) ?opt_options
    ?runtime_filters ?(plan_cache = false)
    ?(verify_plans = Verifier.Off) ?trace ?(parallel = 1) catalog =
  (* Unless told otherwise, the optimizer assumes each memory consumer will
     receive about half the memory-manager budget and keeps every operator
     at or below [parallel] degrees. *)
  let opt_options =
    match opt_options with
    | Some o ->
      { o with
        Optimizer.enable_runtime_filters =
          Option.value runtime_filters ~default:o.Optimizer.enable_runtime_filters }
    | None ->
      { Optimizer.default_options with
        Optimizer.planning_mem_pages = max 8 (budget_pages / 2);
        enable_runtime_filters = Option.value runtime_filters ~default:false;
        max_dop = max 1 parallel }
  in
  { catalog; pool_pages; budget_pages; params = Reopt_policy.default_params;
    opt_options;
    udfs = ref [];
    plan_cache = (if plan_cache then Some (Plan_cache.create ()) else None);
    verify = verify_plans;
    trace }

let shutdown (_ : t) = ()

let catalog t = t.catalog

let verify_mode t = t.verify

let plan_cache_stats t =
  Option.map (fun c -> (Plan_cache.hits c, Plan_cache.misses c, Plan_cache.size c))
    t.plan_cache
let params t = t.params
(* Reconfigured engines get a fresh plan cache: plans compiled under the
   old parameters (different mu, planning memory) must not be served. *)
let fresh_cache t =
  Option.map (fun _ -> Plan_cache.create ()) t.plan_cache

let with_params t params = { t with params; plan_cache = fresh_cache t }
let with_budget t ~budget_pages =
  { t with
    budget_pages;
    plan_cache = fresh_cache t;
    opt_options =
      { t.opt_options with
        Optimizer.planning_mem_pages = max 8 (budget_pages / 2) } }

let register_udf t ~name fn =
  t.udfs := { Parser.name; fn; selectivity = None } :: !(t.udfs)

(* One trace lane per query: the scope's label is what the Chrome-trace
   thread is called, so prefer the (truncated) SQL text. *)
let truncate_label s =
  let s = String.map (function '\n' | '\t' | '\r' -> ' ' | c -> c) s in
  if String.length s <= 48 then s else String.sub s 0 45 ^ "..."

let scope_for t label =
  Option.map (fun tr -> Trace.scope tr ~label ()) t.trace

let config ?trace ?progress t mode start_sampling =
  { Dispatcher.catalog = t.catalog;
    model = Sim_clock.default_model;
    pool_pages = t.pool_pages;
    budget_pages = t.budget_pages;
    params = t.params;
    opt_options = t.opt_options;
    mode;
    start_sampling;
    broker = None;
    env_overlay = None;
    temp_prefix = "";
    verify = t.verify;
    trace;
    progress }

let budget_pages t = t.budget_pages

(* Workload managers build per-query dispatcher configurations from the
   engine's settings, overriding the pieces they own (memory broker,
   statistics overlay, temp-table namespace). *)
let dispatcher_config t ~mode ?broker ?env_overlay ?(temp_prefix = "") ?trace
    ?progress () =
  { (config ?trace ?progress t mode None) with
    Dispatcher.broker;
    env_overlay;
    temp_prefix }

let bind_sql t sql = Query.bind t.catalog (Parser.parse ~udfs:!(t.udfs) sql)

type exec_result =
  | Rows of Dispatcher.report
  | Modified of { table : string; count : int }
  | Created of string
  | Analyzed of string

exception Dml_error of string

let const_value schema_col e =
  let v =
    match e with
    | Mqr_expr.Expr.Const v -> v
    | e ->
      (* allow constant arithmetic, e.g. -3 or 2+2 *)
      (try Mqr_expr.Expr.compile (Schema.make []) e [||]
       with _ -> raise (Dml_error "INSERT values must be constants"))
  in
  (* light coercion toward the column type *)
  match v, schema_col.Schema.ty with
  | Value.Null, _ -> Value.Null
  | Value.Int i, Value.TFloat -> Value.Float (float_of_int i)
  | Value.Int i, Value.TDate -> Value.Date i
  | v, ty when Value.type_of v = ty -> v
  | v, ty ->
    raise
      (Dml_error
         (Printf.sprintf "value %s does not fit column %s of type %s"
            (Value.to_string v) schema_col.Schema.name (Value.ty_to_string ty)))

let insert_rows t ~table rows =
  let tbl = Catalog.find_exn t.catalog table in
  let schema = Heap_file.schema tbl.Catalog.heap in
  let arity = Schema.arity schema in
  List.iter
    (fun row ->
       if List.length row <> arity then
         raise
           (Dml_error
              (Printf.sprintf "expected %d values for %s, got %d" arity table
                 (List.length row)));
       let tuple =
         Array.of_list
           (List.mapi (fun i e -> const_value (Schema.column schema i) e) row)
       in
       Catalog.insert_row tbl tuple)
    rows;
  Catalog.note_updates t.catalog ~table (List.length rows);
  List.length rows

let delete_rows t ~table ~where =
  let tbl = Catalog.find_exn t.catalog table in
  let schema = Schema.qualify (Heap_file.schema tbl.Catalog.heap) table in
  let keep =
    match where with
    | None -> fun _ -> false
    | Some pred ->
      let p = Mqr_expr.Expr.compile_pred schema pred in
      fun tuple -> not (p tuple)
  in
  let deleted = Catalog.delete_rows tbl keep in
  Catalog.note_updates t.catalog ~table deleted;
  deleted

let run_query t ?(mode = Dispatcher.Full) ?(label = "query") ?progress q =
  Dispatcher.run (config ?trace:(scope_for t label) ?progress t mode None) q

(* A SELECT by its SQL text, through the plan cache when there is one:
   a hit reuses the cached bound query and static plan, a miss binds with
   [bind] and stores the plan the run started from. *)
let run_select t ?(mode = Dispatcher.Full) ?probe_rows ?progress ~bind sql =
  (* plans are instrumented per mode, so the mode is part of the key *)
  let key = Dispatcher.mode_to_string mode ^ "|" ^ sql in
  let cached =
    Option.bind t.plan_cache (fun cache -> Plan_cache.find cache t.catalog key)
  in
  let q, prepared =
    match cached with
    | Some entry ->
      ( entry.Plan_cache.query,
        Some (entry.Plan_cache.plan, entry.Plan_cache.collectors) )
    | None -> (bind (), None)
  in
  let report =
    Dispatcher.run ?prepared
      (config ?trace:(scope_for t (truncate_label sql)) ?progress t mode
         probe_rows)
      q
  in
  (match t.plan_cache, cached with
   | Some cache, None ->
     Plan_cache.store cache t.catalog key
       ~plan:report.Dispatcher.initial_plan ~query:q
       ~collectors:report.Dispatcher.collectors
   | _ -> ());
  report

let run_sql t ?mode ?probe_rows ?progress sql =
  run_select t ?mode ?probe_rows ?progress ~bind:(fun () -> bind_sql t sql) sql

let coerce_csv_field col s =
  if s = "" then Value.Null
  else
    try
      match col.Schema.ty with
      | Value.TInt -> Value.Int (int_of_string (String.trim s))
      | Value.TFloat -> Value.Float (float_of_string (String.trim s))
      | Value.TBool -> Value.Bool (bool_of_string (String.trim s))
      | Value.TDate -> Value.date_of_string (String.trim s)
      | Value.TString -> Value.String s
    with Failure _ | Invalid_argument _ ->
      raise
        (Dml_error
           (Printf.sprintf "cannot read %S as %s for column %s" s
              (Value.ty_to_string col.Schema.ty) col.Schema.name))

let copy_csv t ~table ~file =
  let tbl = Catalog.find_exn t.catalog table in
  let schema = Heap_file.schema tbl.Catalog.heap in
  let arity = Schema.arity schema in
  let count = ref 0 in
  List.iter
    (fun record ->
       if List.length record <> arity then
         raise
           (Dml_error
              (Printf.sprintf "expected %d fields, got %d" arity
                 (List.length record)));
       let tuple =
         Array.of_list
           (List.mapi (fun i s -> coerce_csv_field (Schema.column schema i) s)
              record)
       in
       Catalog.insert_row tbl tuple;
       incr count)
    (Mqr_storage.Csv.read_file file);
  Catalog.note_updates t.catalog ~table !count;
  !count

let execute t ?mode ?probe_rows sql =
  match Parser.parse_statement ~udfs:!(t.udfs) sql with
  | Parser.Select q ->
    Rows
      (run_select t ?mode ?probe_rows ~bind:(fun () -> Query.bind t.catalog q)
         sql)
  | Parser.Insert { table; rows } ->
    Modified { table; count = insert_rows t ~table rows }
  | Parser.Delete { table; where } ->
    Modified { table; count = delete_rows t ~table ~where }
  | Parser.Create_table { table; columns } ->
    let schema =
      Schema.make
        (List.map (fun (name, ty, width) -> Schema.col ?width name ty) columns)
    in
    ignore (Catalog.add_table t.catalog table (Heap_file.create schema));
    Created table
  | Parser.Create_index { table; column } ->
    ignore (Catalog.create_index t.catalog ~table ~column);
    Created (table ^ "." ^ column)
  | Parser.Copy { table; file } ->
    Modified { table; count = copy_csv t ~table ~file }
  | Parser.Analyze table ->
    Catalog.analyze_table t.catalog table;
    Analyzed table

let analyze t ?kind ?buckets ?keys table =
  Catalog.analyze_table ?kind ?buckets ?keys t.catalog table

let explain t sql =
  let q = bind_sql t sql in
  let env = Stats_env.create t.catalog q.Query.relations in
  (Optimizer.optimize ~options:t.opt_options ~env q).Optimizer.plan

(* Static analysis without execution: the plan the dispatcher would start
   from, run through the verifier. *)
let lint t ?(mode = Dispatcher.Full) sql =
  let plan = Dispatcher.initial_plan (config t mode None) (bind_sql t sql) in
  let vctx =
    Verifier.context ~budget_pages:t.budget_pages
      ~mu:t.params.Reopt_policy.mu t.catalog
  in
  (plan, Verifier.verify vctx plan)

let pp_summary fmt (r : Dispatcher.report) =
  Fmt.pf fmt "@[<v>%d result rows in %.1f simulated ms@," (Array.length r.Dispatcher.rows)
    r.Dispatcher.elapsed_ms;
  Fmt.pf fmt "I/O: %a@," Sim_clock.pp_counters r.Dispatcher.counters;
  Fmt.pf fmt "buffer pool: %d hits / %d misses@," r.Dispatcher.pool_hits
    r.Dispatcher.pool_misses;
  Fmt.pf fmt "collectors inserted: %d, plan switches: %d@,"
    r.Dispatcher.collectors r.Dispatcher.switches;
  List.iter
    (fun (_, ev) -> Fmt.pf fmt "  %a@," Dispatcher.pp_event ev)
    r.Dispatcher.timed_events;
  Fmt.pf fmt "@]"

let print_summary r = Fmt.pr "%a@." pp_summary r
