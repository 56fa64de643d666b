open Mqr_storage
module Catalog = Mqr_catalog.Catalog
module Parser = Mqr_sql.Parser
module Query = Mqr_sql.Query
module Optimizer = Mqr_opt.Optimizer
module Stats_env = Mqr_opt.Stats_env
module Verifier = Mqr_analysis.Verifier
module Trace = Mqr_obs.Trace

(* One base run configuration; every run is a record update of it.  The
   rest is not a per-run setting: registered UDFs, the plan cache and the
   session trace each query opens a scope in. *)
type t = {
  base : Dispatcher.config;
  udfs : Parser.udf_def list ref;
  plan_cache : Plan_cache.t option;
  trace : Trace.t option;
}

let create ?(pool_pages = 2048) ?(budget_pages = 512) ?opt_options
    ?runtime_filters ?(plan_cache = false) ?(sanitize = false) ?trace
    ?(parallel = 1) catalog =
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
  { base =
      { Dispatcher.catalog;
        model = Sim_clock.default_model;
        pool_pages;
        budget_pages;
        params = Reopt_policy.default_params;
        opt_options;
        mode = Dispatcher.Full;
        start_sampling = None;
        broker = None;
        env_overlay = None;
        temp_prefix = "";
        sanitize;
        trace = None;
        progress = None;
        scratch = Mqr_exec.Exec_ctx.scratch () };
    udfs = ref [];
    plan_cache = (if plan_cache then Some (Plan_cache.create ()) else None);
    trace }

let shutdown (_ : t) = ()

let catalog t = t.base.Dispatcher.catalog
let sanitize t = t.base.Dispatcher.sanitize
let budget_pages t = t.base.Dispatcher.budget_pages
let params t = t.base.Dispatcher.params

let plan_cache_stats t =
  Option.map (fun c -> (Plan_cache.hits c, Plan_cache.misses c, Plan_cache.size c))
    t.plan_cache
(* A reconfigured engine gets a fresh plan cache: plans compiled under
   the old parameters (a different mu) must not be served. *)
let with_params t params =
  { t with
    base = { t.base with Dispatcher.params };
    plan_cache = Option.map (fun _ -> Plan_cache.create ()) t.plan_cache }

let register_udf t ~name fn =
  t.udfs := { Parser.name; fn; selectivity = None } :: !(t.udfs)

(* One trace lane per query: the scope's label is what the Chrome-trace
   thread is called, so prefer the (truncated) SQL text. *)
let truncate_label s =
  let s = String.map (function '\n' | '\t' | '\r' -> ' ' | c -> c) s in
  if String.length s <= 48 then s else String.sub s 0 45 ^ "..."

let scope_for t label =
  Option.map (fun tr -> Trace.scope tr ~label ()) t.trace

(* Workload managers build per-query dispatcher configurations from the
   engine's settings, overriding the pieces they own (memory broker,
   statistics overlay, temp-table namespace). *)
let dispatcher_config t ~mode ?broker ?env_overlay ?(temp_prefix = "") ?trace
    ?progress () =
  { t.base with
    Dispatcher.mode; broker; env_overlay; temp_prefix; trace; progress }

let bind_sql t sql = Query.bind (catalog t) (Parser.parse ~udfs:!(t.udfs) sql)

type exec_result =
  | Rows of Dispatcher.report
  | Modified of { table : string; count : int }
  | Created of string
  | Analyzed of string

exception Dml_error of string

(* An INSERT item the parser left as an expression: constant arithmetic
   such as 2+2 evaluates, anything that reads a column does not. *)
let const_eval e =
  try Mqr_expr.Expr.compile (Schema.make []) e [||]
  with _ -> raise (Dml_error "INSERT values must be constants")

(* light coercion toward the column type *)
let coerce schema_col v =
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

(* Append [tuple_of x] for each [x] in order and return the count.  When
   one raises, the rows before it stay in the table and its indexes, so
   they are counted toward [updates_since_analyze] either way. *)
let append_rows t ~table tbl tuple_of xs =
  let count = ref 0 in
  Fun.protect
    ~finally:(fun () -> Catalog.note_updates (catalog t) ~table !count)
    (fun () ->
       List.iter
         (fun x ->
            Catalog.insert_row tbl (tuple_of x);
            incr count)
         xs);
  !count

(* Each row's items are evaluated and coerced left to right, so the first
   bad item raises, and the row's array becomes the stored tuple: only
   [execute], which parsed the statement, ever holds it. *)
let insert_rows t ~table rows =
  let tbl = Catalog.find_exn (catalog t) table in
  let schema = Heap_file.schema tbl.Catalog.heap in
  let arity = Schema.arity schema in
  append_rows t ~table tbl
    (fun { Parser.values; exprs } ->
       if Array.length values <> arity then
         raise
           (Dml_error
              (Printf.sprintf "expected %d values for %s, got %d" arity table
                 (Array.length values)));
       let exprs = ref exprs in
       for i = 0 to arity - 1 do
         let v =
           match !exprs with
           | (j, e) :: rest when j = i ->
             exprs := rest;
             const_eval e
           | _ -> values.(i)
         in
         values.(i) <- coerce (Schema.column schema i) v
       done;
       values)
    rows

let delete_rows t ~table ~where =
  let tbl = Catalog.find_exn (catalog t) table in
  let schema = Schema.qualify (Heap_file.schema tbl.Catalog.heap) table in
  let keep =
    match where with
    | None -> fun _ -> false
    | Some pred ->
      let p = Mqr_expr.Expr.compile_pred schema pred in
      fun tuple -> not (p tuple)
  in
  let deleted = Catalog.delete_rows tbl keep in
  Catalog.note_updates (catalog t) ~table deleted;
  deleted

let run_query t ?(mode = Dispatcher.Full) ?(label = "query") ?progress q =
  Dispatcher.run
    (dispatcher_config t ~mode ?trace:(scope_for t label) ?progress ())
    q

(* A SELECT by its SQL text, through the plan cache when there is one:
   a hit reuses the cached bound query and static plan, a miss binds with
   [bind] and stores the plan the run started from. *)
let run_select t ?(mode = Dispatcher.Full) ?probe_rows ?progress ~bind sql =
  (* plans are instrumented per mode, so the mode is part of the key *)
  let key = Dispatcher.mode_to_string mode ^ "|" ^ sql in
  let cached =
    Option.bind t.plan_cache (fun cache -> Plan_cache.find cache (catalog t) key)
  in
  let q, prepared =
    match cached with
    | Some entry ->
      ( entry.Plan_cache.query,
        Some (entry.Plan_cache.plan, entry.Plan_cache.collectors) )
    | None -> (bind (), None)
  in
  let cfg =
    dispatcher_config t ~mode ?trace:(scope_for t (truncate_label sql))
      ?progress ()
  in
  let report =
    Dispatcher.run ?prepared { cfg with Dispatcher.start_sampling = probe_rows } q
  in
  (match t.plan_cache, cached with
   | Some cache, None ->
     Plan_cache.store cache (catalog t) key
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
  let tbl = Catalog.find_exn (catalog t) table in
  let schema = Heap_file.schema tbl.Catalog.heap in
  let arity = Schema.arity schema in
  append_rows t ~table tbl
    (fun record ->
       if List.length record <> arity then
         raise
           (Dml_error
              (Printf.sprintf "expected %d fields, got %d" arity
                 (List.length record)));
       Array.of_list
         (List.mapi (fun i s -> coerce_csv_field (Schema.column schema i) s)
            record))
    (Mqr_storage.Csv.read_file file)

let execute t ?mode ?probe_rows sql =
  match Parser.parse_statement ~udfs:!(t.udfs) sql with
  | Parser.Select q ->
    Rows
      (run_select t ?mode ?probe_rows ~bind:(fun () -> Query.bind (catalog t) q)
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
    ignore (Catalog.add_table (catalog t) table (Heap_file.create schema));
    Created table
  | Parser.Create_index { table; column } ->
    ignore (Catalog.create_index (catalog t) ~table ~column);
    Created (table ^ "." ^ column)
  | Parser.Copy { table; file } ->
    Modified { table; count = copy_csv t ~table ~file }
  | Parser.Analyze table ->
    Catalog.analyze_table (catalog t) table;
    Analyzed table

let analyze t ?kind ?buckets ?keys table =
  Catalog.analyze_table ?kind ?buckets ?keys (catalog t) table

let explain t sql =
  let q = bind_sql t sql in
  let env = Stats_env.create (catalog t) q.Query.relations in
  (Optimizer.optimize ~options:t.base.Dispatcher.opt_options ~env q).Optimizer.plan

(* Static analysis without execution: the plan the dispatcher would start
   from, run through the verifier. *)
let lint t ?(mode = Dispatcher.Full) sql =
  let plan = Dispatcher.initial_plan (dispatcher_config t ~mode ()) (bind_sql t sql) in
  let vctx =
    Verifier.context ~budget_pages:(budget_pages t)
      ~mu:(params t).Reopt_policy.mu (catalog t)
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
