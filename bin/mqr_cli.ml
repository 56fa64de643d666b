(* Command-line interface: run SQL (or the named TPC-D benchmark queries)
   against a freshly generated TPC-D catalog, with dynamic re-optimization
   on or off.

     mqr_cli run Q5 --sf 0.005 --mode full --verbose
     mqr_cli run "select count(*) as n from lineitem" --sf 0.002
     mqr_cli explain Q3
     mqr_cli queries *)

module Engine = Mqr_core.Engine
module Dispatcher = Mqr_core.Dispatcher
module Queries = Mqr_tpcd.Queries
module Workload = Mqr_tpcd.Workload
module Verifier = Mqr_analysis.Verifier
module Diagnostic = Mqr_analysis.Diagnostic
module Trace = Mqr_obs.Trace
module Metrics = Mqr_obs.Metrics

open Cmdliner

let sf_arg =
  let doc = "TPC-D scale factor for the generated catalog." in
  Arg.(value & opt float 0.002 & info [ "sf" ] ~docv:"SF" ~doc)

let skew_arg =
  let doc = "Zipf skew parameter z for non-key attributes (0 = uniform)." in
  Arg.(value & opt float 0.0 & info [ "skew" ] ~docv:"Z" ~doc)

let budget_arg =
  let doc = "Memory-manager budget in 4 KB pages." in
  Arg.(value & opt int 128 & info [ "budget" ] ~docv:"PAGES" ~doc)

let mode_arg =
  let modes =
    [ ("off", Dispatcher.Off); ("memory", Dispatcher.Memory_only);
      ("plan", Dispatcher.Plan_only); ("full", Dispatcher.Full);
      ("bound-checked", Dispatcher.Bound_checked) ]
  in
  let doc = "Re-optimization mode: off, memory, plan, full, or \
             bound-checked (full, but a switch must provably win: the \
             candidate's worst-case cost bound must beat the current \
             plan's best-case bound)." in
  Arg.(value & opt (enum modes) Dispatcher.Full & info [ "mode" ] ~doc)

let verbose_arg =
  let doc = "Print the event log and final plan." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

let query_arg =
  let doc = "SQL text, or the name of a benchmark query (Q1 Q3 Q5 Q6 Q7 Q8 Q10)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY" ~doc)

let pristine_arg =
  let doc = "Keep catalog statistics accurate (skip the stale-statistics \
             degradations used by the experiments)." in
  Arg.(value & flag & info [ "pristine" ] ~doc)

let rf_arg =
  let doc = "Enable runtime join filters: a finished hash/merge-join build \
             side publishes a bloom filter plus min-max bounds that prune \
             the probe-side scans (sideways information passing)." in
  Arg.(value & flag & info [ "runtime-filters" ] ~doc)

let parallel_arg =
  let doc = "Enable intra-query parallelism: let the optimizer assign \
             operators a degree of parallelism up to $(docv).  The \
             simulated clock charges each parallel operator's slowest \
             worker plus its exchange; the workers themselves run one \
             after another." in
  Arg.(value & opt int 1 & info [ "parallel" ] ~docv:"N" ~doc)

(* user-facing errors (bad SQL, missing tables/files) print cleanly
   instead of dying with a backtrace *)
let friendly action =
  try action () with
  | Mqr_sql.Lexer.Lex_error m -> Fmt.epr "error: %s@." m; exit 1
  | Verifier.Rejected { what; diags } ->
    Fmt.epr "plan verification failed (%s):@.%a" what Diagnostic.pp_report
      diags;
    exit 1
  | Mqr_sql.Parser.Parse_error m -> Fmt.epr "error: %s@." m; exit 1
  | Mqr_sql.Query.Bind_error m -> Fmt.epr "error: %s@." m; exit 1
  | Engine.Dml_error m -> Fmt.epr "error: %s@." m; exit 1
  | Invalid_argument m -> Fmt.epr "error: %s@." m; exit 1
  | Sys_error m -> Fmt.epr "error: %s@." m; exit 1

let resolve_sql q =
  match Queries.find q with
  | query -> query.Queries.sql
  | exception Invalid_argument _ -> q

let make_engine ?(runtime_filters = false) ?(sanitize = false) ?trace
    ?(parallel = 1) ~sf ~skew ~budget ~pristine () =
  let degradations = if pristine then [] else Workload.paper_degradations in
  let catalog = Workload.experiment_catalog ~sf ~skew_z:skew ~degradations () in
  Engine.create ~budget_pages:budget ~pool_pages:(8 * budget) ~runtime_filters
    ~sanitize ?trace ~parallel catalog

let write_file file contents =
  Out_channel.with_open_text file (fun oc ->
    Out_channel.output_string oc contents)

let export_chrome tr file =
  write_file file (Trace.to_chrome_json tr);
  Fmt.pr "chrome trace written to %s (load it in chrome://tracing or \
          ui.perfetto.dev)@." file

let sanitize_arg =
  let doc = "Run under the sanitizer: statically verify the instrumented \
             plan before executing it (refuse to run a plan with \
             error-severity findings), re-verify the remainder plan at \
             every decision point and after every mid-query plan switch, \
             and check observed cardinalities and page leases." in
  Arg.(value & flag & info [ "sanitize" ] ~doc)

let queries_arg ~what =
  let doc =
    Printf.sprintf
      "Queries to %s (benchmark names like Q5, or SQL text); defaults to \
       every benchmark query." what
  in
  Arg.(value & pos_all string [] & info [] ~docv:"QUERY" ~doc)

let benchmark_or = function
  | [] -> List.map (fun (q : Queries.query) -> q.Queries.name) Queries.all
  | qs -> qs

let trace_out_arg =
  let doc = "Also record an execution trace and write it to $(docv) as \
             Chrome trace-event JSON (chrome://tracing, ui.perfetto.dev)." in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let run_cmd =
  let action queries sf skew budget mode verbose pristine runtime_filters
      sanitize trace_out summary parallel progress_flag =
    friendly @@ fun () ->
    let tr =
      if trace_out = None && summary = None then None else Some (Trace.create ())
    in
    let engine =
      make_engine ~sanitize ~runtime_filters ?trace:tr ~parallel ~sf ~skew
        ~budget ~pristine ()
    in
    List.iteri
      (fun i q ->
         if i > 0 then Fmt.pr "@.";
         let sql = resolve_sql q in
         Fmt.pr "running [%s]: %s@.@." (Dispatcher.mode_to_string mode) sql;
         let progress =
           if progress_flag then Some (Mqr_obs.Progress.create ()) else None
         in
         let report =
           Engine.run_query engine ~mode ~label:q ?progress
             (Engine.bind_sql engine sql)
         in
         Option.iter
           (fun p ->
              List.iter
                (fun (s : Mqr_obs.Progress.sample) ->
                   Fmt.pr
                     "progress #%d @%9.1f ms  %-8s %5.1f%%  remaining ~%.1f \
                      ms  eta [%.1f, %.1f] ms@."
                     s.Mqr_obs.Progress.seq s.Mqr_obs.Progress.ts_ms
                     (Mqr_obs.Progress.label_to_string s.Mqr_obs.Progress.label)
                     s.Mqr_obs.Progress.percent
                     s.Mqr_obs.Progress.remaining_est_ms
                     s.Mqr_obs.Progress.eta_lo_ms s.Mqr_obs.Progress.eta_hi_ms)
                (Mqr_obs.Progress.samples p);
              Fmt.pr "@.")
           progress;
         Array.iter
           (fun t -> Fmt.pr "%a@." Mqr_storage.Tuple.pp t)
           report.Dispatcher.rows;
         Fmt.pr
           "@.%d rows in %.1f simulated ms (%d collectors, %d plan switches)@."
           (Array.length report.Dispatcher.rows)
           report.Dispatcher.elapsed_ms report.Dispatcher.collectors
           report.Dispatcher.switches;
         if verbose then begin
           List.iter
             (fun (_, ev) -> Fmt.pr "  %a@." Dispatcher.pp_event ev)
             report.Dispatcher.timed_events;
           Fmt.pr "@.initial plan:@.%s@."
             (Mqr_opt.Plan.to_string report.Dispatcher.initial_plan)
         end;
         if report.Dispatcher.verifications > 0 then
           Fmt.pr "plan verified %d time(s), %d filter pages held at \
                   completion@."
             report.Dispatcher.verifications
             report.Dispatcher.filter_pages_held;
         if report.Dispatcher.worker_pages_peak > 0 then
           Fmt.pr "parallel workers: %d pages peak, %d held at completion@."
             report.Dispatcher.worker_pages_peak
             report.Dispatcher.worker_pages_held)
      (benchmark_or queries);
    Option.iter
      (fun tr ->
         Fmt.pr "@.%a@." Trace.pp_ledger tr;
         Fmt.pr "@.metrics:@.%a@." Metrics.pp (Trace.metrics tr);
         Option.iter (export_chrome tr) trace_out;
         Option.iter
           (fun file ->
              write_file file (Trace.to_summary_json tr);
              Fmt.pr "summary written to %s@." file)
           summary)
      tr
  in
  let summary_arg =
    let doc = "Also record an execution trace and write its compact JSON \
               summary (spans, metrics, ledger) to $(docv)." in
    Arg.(value & opt (some string) None & info [ "summary" ] ~docv:"FILE" ~doc)
  in
  let progress_arg =
    let doc = "Print one decision-point progress line per estimator update \
               (percent done and the provable ETA interval on the \
               simulated clock)." in
    Arg.(value & flag & info [ "progress" ] ~doc)
  in
  let info =
    Cmd.info "run"
      ~doc:
        "Execute queries.  With --trace or --summary the observability \
         subsystem is attached: operator/unit/query spans over the \
         simulated clock, a decision-point audit ledger with the Eq. 1/Eq. 2 \
         terms behind every re-optimization decision, and engine metrics, \
         printed after the runs.  Tracing never charges the simulated \
         clock, so timings match an untraced run exactly."
  in
  Cmd.v info
    Term.(const action $ queries_arg ~what:"run" $ sf_arg $ skew_arg
          $ budget_arg $ mode_arg $ verbose_arg $ pristine_arg $ rf_arg
          $ sanitize_arg $ trace_out_arg $ summary_arg $ parallel_arg
          $ progress_arg)

let explain_cmd =
  let action query sf skew budget pristine runtime_filters =
    friendly @@ fun () ->
    let engine = make_engine ~runtime_filters ~sf ~skew ~budget ~pristine () in
    Fmt.pr "%s@."
      (Mqr_opt.Plan.to_string (Engine.explain engine (resolve_sql query)))
  in
  let info =
    Cmd.info "explain"
      ~doc:
        "Show the annotated plan without executing (lint --mode off prints \
         the verifier's findings on the same plan)."
  in
  Cmd.v info
    Term.(const action $ query_arg $ sf_arg $ skew_arg $ budget_arg
          $ pristine_arg $ rf_arg)

(* Machine-readable lint output.  Hand-rolled serialization (no JSON
   dependency in the image); diagnostics are emitted in the stable
   [Diagnostic.compare] order, queries in argument order, so the output
   is diffable across runs. *)
let json_of_diag (d : Diagnostic.t) =
  Printf.sprintf
    "{\"code\":\"%s\",\"severity\":\"%s\",\"pass\":\"%s\",\"node_id\":%d,\
     \"path\":[%s],\"message\":\"%s\"%s}"
    (Trace.json_escape d.Diagnostic.code)
    (Diagnostic.severity_to_string d.Diagnostic.severity)
    (Trace.json_escape d.Diagnostic.pass_name)
    d.Diagnostic.node_id
    (String.concat ","
       (List.map
          (fun p -> Printf.sprintf "\"%s\"" (Trace.json_escape p))
          d.Diagnostic.path))
    (Trace.json_escape d.Diagnostic.message)
    (match d.Diagnostic.hint with
     | None -> ""
     | Some h -> Printf.sprintf ",\"hint\":\"%s\"" (Trace.json_escape h))

let lint_cmd =
  let json_arg =
    let doc = "Emit machine-readable JSON (one object per query with its \
               diagnostics in stable order) instead of text.  The exit \
               code is unchanged: non-zero iff any error-severity finding." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let action queries sf skew budget mode pristine runtime_filters json =
    friendly @@ fun () ->
    let engine = make_engine ~runtime_filters ~sf ~skew ~budget ~pristine () in
    let error_count = ref 0 in
    let json_objs = ref [] in
    List.iter
      (fun q ->
         let _plan, diags = Engine.lint engine ~mode (resolve_sql q) in
         let diags = List.stable_sort Diagnostic.compare diags in
         let errs = Diagnostic.errors diags in
         let warns = Diagnostic.warnings diags in
         error_count := !error_count + List.length errs;
         if json then
           json_objs :=
             Printf.sprintf
               "{\"query\":\"%s\",\"mode\":\"%s\",\"errors\":%d,\
                \"warnings\":%d,\"diagnostics\":[%s]}"
               (Trace.json_escape q)
               (Dispatcher.mode_to_string mode)
               (List.length errs) (List.length warns)
               (String.concat "," (List.map json_of_diag diags))
             :: !json_objs
         else begin
           Fmt.pr "%s [%s]: %s (%d error(s), %d warning(s))@." q
             (Dispatcher.mode_to_string mode)
             (if errs = [] then "ok" else "FAILED")
             (List.length errs) (List.length warns);
           List.iter (fun d -> Fmt.pr "  %a@." Diagnostic.pp d) diags
         end)
      (benchmark_or queries);
    if json then
      Fmt.pr "[%s]@." (String.concat "," (List.rev !json_objs));
    if !error_count > 0 then begin
      if not json then Fmt.epr "lint: %d error(s)@." !error_count;
      exit 1
    end
  in
  let info =
    Cmd.info "lint"
      ~doc:
        "Statically verify query plans without executing them: build each \
         plan exactly as the dispatcher would (instrumented with \
         statistics collectors unless --mode off) and run the analysis \
         passes (schema dataflow, annotation lints, SCIA legality, \
         resource/lifetime checks, parallel shape, cardinality bounds)."
  in
  Cmd.v info
    Term.(const action $ queries_arg ~what:"lint" $ sf_arg $ skew_arg
          $ budget_arg $ mode_arg $ pristine_arg $ rf_arg $ json_arg)

(* The interactive shell: SQL statements
   (benchmark names like Q5 expand to their SQL) and backslash commands,
   until \q or end of input. *)
let repl ~banner engine =
  let mode = ref Dispatcher.Full in
  Fmt.pr "%s@." banner;
  Fmt.pr
    "Commands: SQL statements, \\explain <sql>, \\analyze <table>, \\mode off|memory|plan|full|bound-checked, \\tables, \\q@.";
  let rec loop () =
    Fmt.pr "mqr> %!";
    match In_channel.input_line stdin with
    | None -> ()
    | Some line ->
      let line = String.trim line in
      (try
         if line = "" then ()
         else if line = "\\q" || line = "\\quit" then raise Exit
         else if line = "\\tables" then
           List.iter
             (fun (tbl : Mqr_catalog.Catalog.table) ->
                Fmt.pr "  %-12s %8d rows (catalog believes %d)@."
                  tbl.Mqr_catalog.Catalog.name
                  (Mqr_storage.Heap_file.tuple_count
                     tbl.Mqr_catalog.Catalog.heap)
                  tbl.Mqr_catalog.Catalog.believed_rows)
             (List.sort
                (fun (a : Mqr_catalog.Catalog.table) b ->
                   compare a.Mqr_catalog.Catalog.name
                     b.Mqr_catalog.Catalog.name)
                (Mqr_catalog.Catalog.tables (Engine.catalog engine)))
         else if String.length line > 6 && String.sub line 0 6 = "\\mode " then begin
           match String.sub line 6 (String.length line - 6) with
           | "off" -> mode := Dispatcher.Off
           | "memory" -> mode := Dispatcher.Memory_only
           | "plan" -> mode := Dispatcher.Plan_only
           | "full" -> mode := Dispatcher.Full
           | "bound-checked" -> mode := Dispatcher.Bound_checked
           | m -> Fmt.pr "unknown mode %s@." m
         end
         else if String.length line > 9 && String.sub line 0 9 = "\\explain " then
           Fmt.pr "%s@."
             (Mqr_opt.Plan.to_string
                (Engine.explain engine
                   (resolve_sql (String.sub line 9 (String.length line - 9)))))
         else if String.length line > 9 && String.sub line 0 9 = "\\analyze " then begin
           Engine.analyze engine (String.sub line 9 (String.length line - 9));
           Fmt.pr "analyzed.@."
         end
         else begin
           match Engine.execute engine ~mode:!mode (resolve_sql line) with
           | Engine.Rows report ->
             Array.iter
               (fun t -> Fmt.pr "%a@." Mqr_storage.Tuple.pp t)
               report.Dispatcher.rows;
             Fmt.pr "(%d rows, %.1f simulated ms, %d switches)@."
               (Array.length report.Dispatcher.rows)
               report.Dispatcher.elapsed_ms report.Dispatcher.switches
           | Engine.Modified { table; count } ->
             Fmt.pr "%d rows affected in %s@." count table
           | Engine.Created what -> Fmt.pr "created %s@." what
           | Engine.Analyzed table -> Fmt.pr "analyzed %s@." table
         end
       with
       | Exit -> raise Exit
       | e -> Fmt.pr "error: %s@." (Printexc.to_string e));
      loop ()
  in
  (try loop () with Exit -> ());
  Fmt.pr "bye.@."

let repl_cmd =
  let action sf skew budget pristine =
    let engine = make_engine ~sf ~skew ~budget ~pristine () in
    repl engine
      ~banner:(Fmt.str "mqr repl over a generated TPC-D catalog (sf=%g)." sf)
  in
  let info = Cmd.info "repl" ~doc:"Interactive SQL shell over a TPC-D catalog." in
  Cmd.v info Term.(const action $ sf_arg $ skew_arg $ budget_arg $ pristine_arg)

let concurrency_arg =
  let doc = "Maximum number of statements executing at once." in
  Arg.(value & opt int 4 & info [ "concurrency" ] ~docv:"N" ~doc)

let queue_arg =
  let doc = "Admission-queue capacity; further statements are shed." in
  Arg.(value & opt int 64 & info [ "queue" ] ~docv:"N" ~doc)

let workload_cmd =
  let module Service = Mqr_wlm.Service in
  let module Session = Mqr_wlm.Session in
  let queries_arg =
    let doc =
      "Queries to submit, in order (benchmark names like Q5, or SQL text)."
    in
    Arg.(non_empty & pos_all string [] & info [] ~docv:"QUERY" ~doc)
  in
  let no_feedback_arg =
    let doc = "Disable the cross-query statistics feedback cache." in
    Arg.(value & flag & info [ "no-feedback" ] ~doc)
  in
  let action queries sf skew budget mode pristine concurrency queue
      no_feedback trace_out parallel =
    friendly @@ fun () ->
    let tr = Option.map (fun _ -> Trace.create ()) trace_out in
    let engine = make_engine ~parallel ~sf ~skew ~budget ~pristine () in
    let options =
      { Service.default_options with
        Service.max_concurrency = concurrency;
        max_queue = queue;
        feedback = not no_feedback }
    in
    let svc = Service.create ~options ?trace:tr engine in
    Service.add_tenant svc ~slo:Session.Batch "batch";
    let session = Service.open_session svc ~tenant:"batch" in
    List.iter
      (fun q ->
         let sql = resolve_sql q in
         (* benchmark names label themselves; raw SQL gets q<n> *)
         let label = if sql = q then "" else q in
         ignore (Session.submit ~label ~mode session sql))
      queries;
    Service.drain svc;
    Fmt.pr "%a@." Service.pp_report (Service.report svc);
    match tr, trace_out with
    | Some tr, Some file -> export_chrome tr file
    | _ -> ()
  in
  let info =
    Cmd.info "workload"
      ~doc:
        "Run a batch of queries concurrently through the query service \
         (one batch tenant stepped round-robin, admission control, shared \
         memory broker, statistics feedback)."
  in
  Cmd.v info
    Term.(const action $ queries_arg $ sf_arg $ skew_arg $ budget_arg
          $ mode_arg $ pristine_arg $ concurrency_arg $ queue_arg
          $ no_feedback_arg $ trace_out_arg $ parallel_arg)

(* The query service: a long-lived multi-tenant scheduler driven by a
   line protocol.  Interactive over stdin, scripted via --driver FILE
   (the driver-mode client the smoke tests use).  All printed times are
   simulated, so driver runs are byte-deterministic; --wall additionally
   feeds the scheduler a real clock for the wall makespan of `report`. *)
let serve_cmd =
  let module Service = Mqr_wlm.Service in
  let module Session = Mqr_wlm.Session in
  let driver_arg =
    let doc = "Read protocol commands from $(docv) instead of stdin \
               (driver mode: no prompts, deterministic output)." in
    Arg.(value & opt (some string) None & info [ "driver" ] ~docv:"FILE" ~doc)
  in
  let wall_arg =
    let doc = "Measure wall-clock time (the wall makespan line of \
               `report`).  Off by default so driver runs stay \
               byte-deterministic." in
    Arg.(value & flag & info [ "wall" ] ~doc)
  in
  (* first whitespace-separated token, and the trimmed remainder (which
     keeps inner spacing: SQL text survives verbatim) *)
  let split1 s =
    match String.index_opt s ' ' with
    | None -> (s, "")
    | Some i ->
      (String.sub s 0 i, String.trim (String.sub s (i + 1) (String.length s - i - 1)))
  in
  let action driver wall sf skew budget mode pristine runtime_filters sanitize
      concurrency queue trace_out parallel =
    friendly @@ fun () ->
    (* the service always carries a trace so `monitor metrics` and
       `monitor ledger` work without --trace; attaching one is pure
       observation (zero simulated ms), and the chrome export stays
       gated on the flag *)
    let tr = Trace.create () in
    let engine =
      make_engine ~runtime_filters ~sanitize ~parallel ~sf ~skew ~budget
        ~pristine ()
    in
    let options =
      { Service.default_options with
        Service.max_concurrency = concurrency;
        max_queue = queue;
        wall_clock = (if wall then Some Unix.gettimeofday else None) }
    in
    let svc = Service.create ~options ~trace:tr engine in
    let sessions : (string, Session.t) Hashtbl.t = Hashtbl.create 8 in
    let handles : (string, int) Hashtbl.t = Hashtbl.create 32 in
    let find_session name =
      match Hashtbl.find_opt sessions name with
      | Some s -> s
      | None -> invalid_arg (Printf.sprintf "serve: unknown session %s" name)
    in
    let find_handle sname label =
      match Hashtbl.find_opt handles (sname ^ "/" ^ label) with
      | Some id -> id
      | None ->
        invalid_arg (Printf.sprintf "serve: unknown statement %s/%s" sname label)
    in
    let do_step n =
      let rec go i = if i < n && Service.step svc then go (i + 1) else i in
      Fmt.pr "stepped %d unit(s)@." (go 0)
    in
    let pp_status sname label = function
      | Session.Done rep ->
        Fmt.pr "%s/%s: done (%d rows, %.1f sim ms, %d switches)@." sname label
          (Array.length rep.Dispatcher.rows)
          rep.Dispatcher.elapsed_ms rep.Dispatcher.switches
      | Session.Failed m -> Fmt.pr "%s/%s: failed (%s)@." sname label m
      | st -> Fmt.pr "%s/%s: %s@." sname label (Session.status_to_string st)
    in
    let exec_line line =
      let cmd, rest = split1 line in
      match cmd with
      | "tenant" ->
        let name, rest = split1 rest in
        let slo_s, rest = split1 rest in
        let slo =
          match slo_s with
          | "interactive" -> Session.Interactive
          | "batch" -> Session.Batch
          | s -> invalid_arg (Printf.sprintf "serve: unknown SLO class %s" s)
        in
        let weight, rest =
          match split1 rest with
          | "", _ -> (None, "")
          | w, r -> (Some (int_of_string w), r)
        in
        let target_ms =
          match split1 rest with
          | "", _ -> None
          | t, _ -> Some (float_of_string t)
        in
        Service.add_tenant ?weight ?target_ms svc ~slo name;
        Fmt.pr "tenant %s registered (%s)@." name (Session.slo_to_string slo)
      | "session" ->
        let sname, rest = split1 rest in
        let tenant, _ = split1 rest in
        if Hashtbl.mem sessions sname then
          invalid_arg (Printf.sprintf "serve: session %s already open" sname);
        let s = Service.open_session svc ~tenant in
        Hashtbl.replace sessions sname s;
        Fmt.pr "session %s open for tenant %s (#%d)@." sname tenant (Session.id s)
      | "submit" ->
        let sname, rest = split1 rest in
        let label, rest = split1 rest in
        let arrival_ms, sql =
          if rest <> "" && rest.[0] = '@' then
            let a, rest = split1 rest in
            (float_of_string (String.sub a 1 (String.length a - 1)), rest)
          else (0.0, rest)
        in
        if label = "" || sql = "" then
          invalid_arg "serve: usage: submit SESSION LABEL [@ARRIVAL_MS] SQL";
        let s = find_session sname in
        let id = Session.submit ~label ~mode ~arrival_ms s (resolve_sql sql) in
        Hashtbl.replace handles (sname ^ "/" ^ label) id;
        Fmt.pr "submitted %s/%s (#%d, %s)@." sname label id
          (Session.status_to_string (Session.poll s id))
      | "step" ->
        let n = match rest with "" -> 1 | n -> int_of_string n in
        do_step n
      | "drain" ->
        Service.drain svc;
        Fmt.pr "drained (idle)@."
      | "poll" ->
        let sname, rest = split1 rest in
        let label, _ = split1 rest in
        pp_status sname label (Session.poll (find_session sname) (find_handle sname label))
      | "rows" ->
        let sname, rest = split1 rest in
        let label, _ = split1 rest in
        (match Session.result (find_session sname) (find_handle sname label) with
         | Some rep ->
           Array.iter
             (fun t -> Fmt.pr "%a@." Mqr_storage.Tuple.pp t)
             rep.Dispatcher.rows;
           Fmt.pr "(%d rows)@." (Array.length rep.Dispatcher.rows)
         | None -> Fmt.pr "%s/%s: no result@." sname label)
      | "cancel" ->
        let sname, rest = split1 rest in
        let label, _ = split1 rest in
        let ok = Session.cancel (find_session sname) (find_handle sname label) in
        Fmt.pr "cancel %s/%s: %s@." sname label (if ok then "ok" else "no-op")
      | "close" ->
        let sname, _ = split1 rest in
        Session.close (find_session sname);
        Fmt.pr "session %s closed@." sname
      | "report" -> Fmt.pr "%a@." Service.pp_report (Service.report svc)
      | "monitor" ->
        (* monitor VIEW [json [FILE]] | monitor metrics [FILE] *)
        let module Monitor = Mqr_wlm.Monitor in
        let what, rest = split1 rest in
        let emit file contents =
          match file with
          | "" -> print_string contents
          | f ->
            write_file f contents;
            Fmt.pr "wrote %s@." f
        in
        (match what with
         | "metrics" ->
           let file, _ = split1 rest in
           emit file (Monitor.prometheus svc)
         | _ ->
           (match Monitor.view_of_string what with
            | None ->
              invalid_arg
                (Printf.sprintf
                   "serve: unknown monitor view %s (expected %s or metrics)"
                   what
                   (String.concat "|" Monitor.view_names))
            | Some view ->
              (match split1 rest with
               | "json", rest ->
                 let file, _ = split1 rest in
                 emit file (Monitor.to_json svc view)
               | "", _ -> print_string (Monitor.render svc view)
               | fmt, _ ->
                 invalid_arg
                   (Printf.sprintf "serve: unknown monitor format %s" fmt))))
      | c -> invalid_arg (Printf.sprintf "serve: unknown command %s" c)
    in
    let ic = match driver with Some f -> open_in f | None -> stdin in
    Fmt.pr "mqr service: concurrency %d, budget %d pages%s@." concurrency budget
      (if sanitize then " [sanitize]" else "");
    let cleanup () = if driver <> None then close_in_noerr ic in
    Fun.protect ~finally:cleanup (fun () ->
      let rec loop () =
        (if driver = None then Fmt.pr "svc> %!");
        match In_channel.input_line ic with
        | None -> ()
        | Some line ->
          let line = String.trim line in
          if line = "quit" then ()
          else begin
            if line <> "" && line.[0] <> '#' then
              (try exec_line line with
               (* sanitizer findings (TEN-LIFETIME etc.) are bugs: abort
                  the serve loop so smokes fail loudly *)
               | Verifier.Rejected _ as e -> raise e
               | Invalid_argument m | Failure m -> Fmt.pr "error: %s@." m
               | Mqr_sql.Lexer.Lex_error m
               | Mqr_sql.Parser.Parse_error m
               | Mqr_sql.Query.Bind_error m -> Fmt.pr "error: %s@." m);
            loop ()
          end
      in
      loop ());
    Fmt.pr "bye.@.";
    match trace_out with
    | Some file -> export_chrome tr file
    | None -> ()
  in
  let info =
    Cmd.info "serve"
      ~doc:
        "Run the engine as a long-lived multi-tenant query service.  \
         Commands (one per line, # comments): tenant NAME \
         interactive|batch [WEIGHT] [TARGET_MS]; session NAME TENANT; \
         submit SESSION LABEL [@ARRIVAL_MS] SQL; step [N]; drain; poll \
         SESSION LABEL; rows SESSION LABEL; cancel SESSION LABEL; close \
         SESSION; report; monitor \
         statements|sessions|tenants|broker|ledger [json [FILE]]; monitor \
         metrics [FILE]; quit."
  in
  Cmd.v info
    Term.(const action $ driver_arg $ wall_arg $ sf_arg $ skew_arg
          $ budget_arg $ mode_arg $ pristine_arg $ rf_arg $ sanitize_arg
          $ concurrency_arg $ queue_arg
          $ trace_out_arg $ parallel_arg)

let queries_cmd =
  let action () =
    List.iter
      (fun (q : Queries.query) ->
         Fmt.pr "%-4s %-8s %d joins@.  %s@.@." q.Queries.name
           (Queries.klass_to_string q.Queries.klass)
           q.Queries.joins q.Queries.sql)
      Queries.all
  in
  let info = Cmd.info "queries" ~doc:"List the benchmark queries." in
  Cmd.v info Term.(const action $ const ())

let () =
  let info =
    Cmd.info "mqr_cli"
      ~doc:"Mid-query re-optimization engine (Kabra & DeWitt, SIGMOD 1998)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ run_cmd; explain_cmd; lint_cmd; queries_cmd; workload_cmd;
            serve_cmd; repl_cmd ]))
