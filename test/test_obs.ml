(* Observability subsystem: metrics registry, span nesting, audit ledger
   consistency with the dispatcher's event log, and the zero-overhead
   guarantee (tracing never moves the simulated clock). *)
module Engine = Mqr_core.Engine
module Dispatcher = Mqr_core.Dispatcher
module Service = Mqr_wlm.Service
module Session = Mqr_wlm.Session
module Queries = Mqr_tpcd.Queries
module Tpcd = Mqr_tpcd.Workload
module Trace = Mqr_obs.Trace
module Metrics = Mqr_obs.Metrics

let engine ?trace () =
  let catalog = Tpcd.experiment_catalog ~sf:0.001 () in
  Engine.create ~budget_pages:64 ~pool_pages:512 ?trace catalog

let sql name = (Queries.find name).Queries.sql

(* --- metrics registry --- *)

let test_metrics_counters_and_gauges () =
  let m = Metrics.create () in
  Metrics.incr m "a";
  Metrics.incr m ~by:4 "a";
  Metrics.incr m "b";
  Metrics.set_gauge m "g" 0.25;
  Metrics.set_gauge m "g" 0.5;
  Alcotest.(check int) "counter accumulates" 5 (Metrics.counter m "a");
  Alcotest.(check int) "unknown counter is 0" 0 (Metrics.counter m "zzz");
  Alcotest.(check (list (pair string int)))
    "counters sorted by name"
    [ ("a", 5); ("b", 1) ]
    (Metrics.counters m);
  Alcotest.(check (list (pair string (float 1e-9))))
    "gauge keeps latest value"
    [ ("g", 0.5) ]
    (Metrics.gauges m)

let test_metrics_log_histogram () =
  let m = Metrics.create () in
  List.iter (Metrics.observe m "ms") [ 1.0; 2.0; 4.0; 1024.0 ];
  match Metrics.histograms m with
  | [ ("ms", s) ] ->
    Alcotest.(check int) "n" 4 s.Metrics.n;
    Alcotest.(check (float 1e-9)) "min" 1.0 s.Metrics.min;
    Alcotest.(check (float 1e-9)) "max" 1024.0 s.Metrics.max;
    Alcotest.(check (float 1e-9)) "sum" 1031.0 s.Metrics.sum;
    Alcotest.(check int) "all samples binned" 4
      (List.fold_left (fun acc (_, _, c) -> acc + c) 0 s.Metrics.buckets);
    (* log-scale: boundaries stay positive (and may collapse to a
       singleton — histogram buckets are inclusive on both ends) *)
    List.iter
      (fun (lo, hi, c) ->
         if c > 0 then
           Alcotest.(check bool) "bucket is a positive interval" true
             (0.0 < lo && lo <= hi))
      s.Metrics.buckets
  | hs ->
    Alcotest.failf "expected exactly one histogram series, got %d"
      (List.length hs)

(* --- span stack discipline --- *)

let test_span_stack_discipline () =
  let tr = Trace.create () in
  let s = Trace.scope tr ~label:"q" () in
  let outer = Trace.open_span s ~name:"outer" ~ts_ms:0.0 () in
  let inner = Trace.open_span s ~name:"inner" ~ts_ms:1.0 () in
  Alcotest.check_raises "closing out of order is malformed nesting"
    (Invalid_argument "Trace.close_span: span closed out of order")
    (fun () -> Trace.close_span s ~ts_ms:2.0 outer);
  Trace.close_span s ~ts_ms:2.0 inner;
  Trace.close_span s ~ts_ms:3.0 outer;
  Alcotest.(check int) "no spans left open" 0 (Trace.open_spans tr);
  match Trace.spans tr with
  | [ i; o ] ->
    (* completion order: inner closes first *)
    Alcotest.(check string) "inner first" "inner" i.Trace.sp_name;
    Alcotest.(check int) "inner depth" 1 i.Trace.sp_depth;
    Alcotest.(check string) "outer second" "outer" o.Trace.sp_name;
    Alcotest.(check int) "outer depth" 0 o.Trace.sp_depth
  | spans -> Alcotest.failf "expected 2 spans, got %d" (List.length spans)

(* Two spans on the same lane must be disjoint or properly nested —
   partial overlap means the trace forest is malformed. *)
let assert_well_formed tr =
  Alcotest.(check int) "no orphan (unclosed) spans" 0 (Trace.open_spans tr);
  let spans = Trace.spans tr in
  List.iter
    (fun (a : Trace.span) ->
       Alcotest.(check bool) "span interval is ordered" true
         (a.Trace.sp_begin_ms <= a.Trace.sp_end_ms))
    spans;
  List.iter
    (fun (a : Trace.span) ->
       List.iter
         (fun (b : Trace.span) ->
            if a != b && a.Trace.sp_tid = b.Trace.sp_tid then begin
              let disjoint =
                a.Trace.sp_end_ms <= b.Trace.sp_begin_ms
                || b.Trace.sp_end_ms <= a.Trace.sp_begin_ms
              in
              let a_inside_b =
                b.Trace.sp_begin_ms <= a.Trace.sp_begin_ms
                && a.Trace.sp_end_ms <= b.Trace.sp_end_ms
              in
              let b_inside_a =
                a.Trace.sp_begin_ms <= b.Trace.sp_begin_ms
                && b.Trace.sp_end_ms <= a.Trace.sp_end_ms
              in
              Alcotest.(check bool) "spans disjoint or nested" true
                (disjoint || a_inside_b || b_inside_a)
            end)
         spans)
    spans

let test_single_query_spans () =
  let tr = Trace.create () in
  let e = engine ~trace:tr () in
  let r = Engine.run_sql e (sql "Q3") in
  assert_well_formed tr;
  Alcotest.(check int) "one trace lane" 1 (List.length (Trace.queries tr));
  let spans = Trace.spans tr in
  Alcotest.(check bool) "at least one span per operator" true
    (List.length spans >= List.length r.Dispatcher.actual_rows);
  let cats =
    List.sort_uniq compare (List.map (fun s -> s.Trace.sp_cat) spans)
  in
  List.iter
    (fun c ->
       Alcotest.(check bool) (c ^ " spans present") true (List.mem c cats))
    [ "query"; "unit"; "operator" ];
  (* exactly one query-depth span and it covers the whole run *)
  match List.filter (fun s -> s.Trace.sp_cat = "query") spans with
  | [ q ] ->
    Alcotest.(check (float 1e-9)) "query span starts at 0" 0.0
      q.Trace.sp_begin_ms;
    Alcotest.(check (float 1e-6)) "query span ends at elapsed"
      r.Dispatcher.elapsed_ms q.Trace.sp_end_ms
  | qs -> Alcotest.failf "expected 1 query span, got %d" (List.length qs)

let test_workload_spans_well_formed () =
  let tr = Trace.create () in
  let svc =
    Service.create
      ~options:
        { Service.default_options with Service.max_concurrency = 2 }
      ~trace:tr (engine ())
  in
  Service.add_tenant svc ~slo:Session.Batch "batch";
  let session = Service.open_session svc ~tenant:"batch" in
  List.iter
    (fun n -> ignore (Session.submit ~label:n session (sql n)))
    [ "Q3"; "Q10"; "Q5" ];
  Service.drain svc;
  let stmts = Session.statements session in
  Alcotest.(check (list string)) "all statements completed"
    [ "done"; "done"; "done" ]
    (List.map
       (fun (s : Session.stmt) -> Session.status_to_string s.Session.stmt_status)
       stmts);
  assert_well_formed tr;
  Alcotest.(check (list string)) "one lane per statement, <tenant>/<label>"
    [ "batch/Q3"; "batch/Q10"; "batch/Q5" ]
    (List.map snd (Trace.queries tr));
  (* each statement's span timestamps are anchored at its admission time *)
  List.iter
    (fun (s : Session.stmt) ->
       let lane = "batch/" ^ s.Session.stmt_label in
       let tid =
         fst (List.find (fun (_, label) -> label = lane) (Trace.queries tr))
       in
       List.iter
         (fun (sp : Trace.span) ->
            if sp.Trace.sp_tid = tid then
              Alcotest.(check bool) (lane ^ " span begins after admission")
                true
                (sp.Trace.sp_begin_ms >= s.Session.stmt_admit_ms -. 1e-9))
         (Trace.spans tr))
    stmts;
  (* queue waits landed in the tenant's histogram *)
  let m = Trace.metrics tr in
  match List.assoc_opt "svc.batch.queue_ms" (Metrics.histograms m) with
  | Some s -> Alcotest.(check int) "one queue sample per statement" 3 s.Metrics.n
  | None -> Alcotest.fail "svc.batch.queue_ms histogram missing"

(* --- audit ledger vs the dispatcher event log --- *)

let test_ledger_matches_events () =
  let tr = Trace.create () in
  let e = engine ~trace:tr () in
  let r = Engine.run_sql e (sql "Q7") in
  (* each decision event, rendered as the ledger entry it must produce:
     kind, the Eq. 1/Eq. 2 terms, the newest Ev_unit_done before it (none
     before the first unit) and, for a Considered entry, its forced flag *)
  let f x = Trace.Float x in
  let expected =
    List.rev
      (snd
         (List.fold_left
            (fun ((op, est, act) as ctx, acc) ev ->
               let entry kind terms = (ctx, (kind, terms) :: acc) in
               let unit =
                 [ ("unit_op", Trace.Str op); ("est_rows", f est);
                   ("actual_rows", Trace.Int act) ]
               in
               match ev with
               | Dispatcher.Ev_unit_done { op; est_rows; actual_rows } ->
                 ((op, est_rows, actual_rows), acc)
               | Dispatcher.Ev_considered
                   { t_improved; t_optimizer; t_opt_estimated; forced; _ } ->
                 entry "considered"
                   (unit
                    @ [ ("t_improved_ms", f t_improved);
                        ("t_optimizer_ms", f t_optimizer);
                        ("t_opt_estimated_ms", f t_opt_estimated);
                        ("forced_by_filter_surprise", Trace.Bool forced) ])
               | Dispatcher.Ev_switched
                   { t_new_total; t_improved; plans_enumerated; opt_ms; _ } ->
                 entry "switched"
                   (unit
                    @ [ ("t_new_total_ms", f t_new_total);
                        ("t_improved_ms", f t_improved);
                        ("plans_enumerated", Trace.Int plans_enumerated);
                        ("t_opt_charged_ms", f opt_ms) ])
               | Dispatcher.Ev_rejected
                   { t_new_total; t_improved; plans_enumerated; opt_ms } ->
                 entry "rejected"
                   (unit
                    @ [ ("t_new_total_ms", f t_new_total);
                        ("t_improved_ms", f t_improved);
                        ("plans_enumerated", Trace.Int plans_enumerated);
                        ("t_opt_charged_ms", f opt_ms) ])
               | Dispatcher.Ev_realloc { grants } ->
                 entry "realloc"
                   (unit @ [ ("consumers", Trace.Int (List.length grants)) ])
               | _ -> (ctx, acc))
            (("", 0.0, 0), [])
            (List.map snd r.Dispatcher.timed_events)))
  in
  let ledger = Trace.ledger tr in
  let arg (d : Trace.instant) k =
    match List.assoc_opt k d.Trace.i_args with
    | Some v -> v
    | None -> Alcotest.failf "%s entry lacks %s" d.Trace.i_name k
  in
  let count kind xs = List.length (List.filter (fun (k, _) -> k = kind) xs) in
  List.iter
    (fun kind ->
       Alcotest.(check int)
         (Printf.sprintf "one %s entry per event" kind)
         (count kind expected)
         (List.length
            (List.filter (fun (d : Trace.instant) -> d.Trace.i_name = kind)
               ledger)))
    [ "considered"; "switched"; "rejected"; "realloc" ];
  let recorded =
    List.map2
      (fun (_, terms) (d : Trace.instant) ->
         (d.Trace.i_name, List.map (fun (k, _) -> (k, arg d k)) terms))
      expected ledger
  in
  let arg_t = Alcotest.testable (Fmt.of_to_string Trace.arg_json) ( = ) in
  Alcotest.(check (list (pair string (list (pair string arg_t)))))
    "ledger kinds, Eq. 1/Eq. 2 terms, unit context and forced flag follow \
     the event stream"
    expected recorded;
  (* every entry records estimated-vs-observed cardinalities coherently *)
  List.iter
    (fun d ->
       Alcotest.(check string) "decision category" "decision" d.Trace.i_cat;
       Alcotest.(check bool) "kind arg names the instant" true
         (arg d "kind" = Trace.Str d.Trace.i_name);
       match arg d "seq", arg d "actual_rows", arg d "est_rows",
             arg d "cardinality_error" with
       | Trace.Int seq, Trace.Int act, Trace.Float est, Trace.Float err ->
         Alcotest.(check bool) "decision point ordinal positive" true
           (seq >= 1);
         Alcotest.(check bool) "observed rows non-negative" true (act >= 0);
         Alcotest.(check (float 1e-6)) "estimation error is actual/est"
           (float_of_int act /. Float.max 1e-9 est) err
       | _ -> Alcotest.fail "ledger prefix args mistyped")
    ledger

(* --- timestamped events --- *)

let test_timed_events () =
  let e = engine () in
  let r = Engine.run_sql e (sql "Q5") in
  let rec monotone = function
    | (t1, _) :: ((t2, _) :: _ as rest) ->
      Alcotest.(check bool) "timestamps non-decreasing" true (t1 <= t2);
      monotone rest
    | _ -> ()
  in
  monotone r.Dispatcher.timed_events;
  List.iter
    (fun (t, _) ->
       Alcotest.(check bool) "timestamps within the run" true
         (0.0 <= t && t <= r.Dispatcher.elapsed_ms))
    r.Dispatcher.timed_events

(* --- zero overhead: tracing never touches the simulated clock --- *)

let test_tracing_zero_overhead () =
  let catalog = Tpcd.experiment_catalog ~sf:0.001 () in
  let plain = Engine.create ~budget_pages:64 ~pool_pages:512 catalog in
  let tr = Trace.create () in
  let traced =
    Engine.create ~budget_pages:64 ~pool_pages:512 ~trace:tr catalog
  in
  List.iter
    (fun q ->
       let off = Engine.run_sql plain (sql q) in
       let on = Engine.run_sql traced (sql q) in
       Alcotest.(check (float 0.0))
         (q ^ ": elapsed identical") off.Dispatcher.elapsed_ms
         on.Dispatcher.elapsed_ms;
       Alcotest.(check bool) (q ^ ": rows identical") true
         (off.Dispatcher.rows = on.Dispatcher.rows))
    [ "Q3"; "Q7" ];
  Alcotest.(check bool) "the traced runs actually recorded spans" true
    (Trace.spans tr <> [])

(* --- exporters --- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* --- bounded series memory + quantiles + Prometheus export --- *)

let test_metrics_bounded_reservoir () =
  let m = Metrics.create () in
  for i = 1 to 100_000 do
    Metrics.observe m "ms" (float_of_int i)
  done;
  match Metrics.histograms m with
  | [ ("ms", s) ] ->
    (* exact streaming stats survive reservoir replacement... *)
    Alcotest.(check int) "n is the exact stream count" 100_000 s.Metrics.n;
    Alcotest.(check (float 1e-9)) "min exact" 1.0 s.Metrics.min;
    Alcotest.(check (float 1e-9)) "max exact" 100_000.0 s.Metrics.max;
    Alcotest.(check (float 1e-3)) "sum exact" 5_000_050_000.0 s.Metrics.sum;
    (* ...while the buckets come from a bounded sample *)
    let binned =
      List.fold_left (fun acc (_, _, c) -> acc + c) 0 s.Metrics.buckets
    in
    Alcotest.(check bool) "buckets bounded by the reservoir" true
      (binned <= 512);
    List.iter
      (fun (what, q) ->
         Alcotest.(check bool) (what ^ " within observed range") true
           (s.Metrics.min <= q && q <= s.Metrics.max))
      [ ("p50", s.Metrics.p50); ("p95", s.Metrics.p95);
        ("p99", s.Metrics.p99) ];
    Alcotest.(check bool) "quantiles ordered" true
      (s.Metrics.p50 <= s.Metrics.p95 && s.Metrics.p95 <= s.Metrics.p99)
  | hs -> Alcotest.failf "expected one series, got %d" (List.length hs)

let test_metrics_quantiles_exact_when_small () =
  let m = Metrics.create () in
  (* fewer samples than the reservoir capacity: nearest-rank is exact *)
  List.iter (Metrics.observe m "lat") [ 5.0; 1.0; 3.0; 2.0; 4.0 ];
  match Metrics.histograms m with
  | [ ("lat", s) ] ->
    Alcotest.(check (float 1e-9)) "p50 nearest-rank" 3.0 s.Metrics.p50;
    Alcotest.(check (float 1e-9)) "p95 nearest-rank" 5.0 s.Metrics.p95;
    Alcotest.(check (float 1e-9)) "p99 nearest-rank" 5.0 s.Metrics.p99
  | _ -> Alcotest.fail "expected one series"

let test_metrics_deterministic_reservoir () =
  let fill () =
    let m = Metrics.create () in
    for i = 1 to 10_000 do
      Metrics.observe m "ms" (float_of_int (i * 7 mod 997))
    done;
    m
  in
  (* name-seeded rng: two registries fed identically agree exactly *)
  Alcotest.(check string) "exports byte-identical"
    (Metrics.to_prometheus (fill ()))
    (Metrics.to_prometheus (fill ()))

let test_prometheus_exposition () =
  let m = Metrics.create () in
  Metrics.incr m ~by:3 "reopt.switches";
  Metrics.set_gauge m "svc.web.slo_headroom_ms" 1502.5;
  List.iter (Metrics.observe m "unit ms") [ 1.0; 2.0; 4.0; 8.0 ];
  let text = Metrics.to_prometheus m in
  List.iter
    (fun frag ->
       Alcotest.(check bool) ("exposition contains " ^ frag) true
         (contains text frag))
    [ "# TYPE mqr_reopt_switches counter"; "mqr_reopt_switches 3";
      "# TYPE mqr_svc_web_slo_headroom_ms gauge";
      "mqr_svc_web_slo_headroom_ms 1502.5";
      "# TYPE mqr_unit_ms histogram"; "mqr_unit_ms_bucket{le=\"+Inf\"} 4";
      "mqr_unit_ms_sum 15"; "mqr_unit_ms_count 4" ];
  (* families sorted by mangled name *)
  let type_lines =
    String.split_on_char '\n' text
    |> List.filter_map (fun l ->
      if String.length l > 7 && String.sub l 0 7 = "# TYPE " then
        Some (List.nth (String.split_on_char ' ' l) 2)
      else None)
  in
  Alcotest.(check (list string)) "families sorted"
    (List.sort String.compare type_lines) type_lines

let test_chrome_export_shape () =
  let tr = Trace.create () in
  let e = engine ~trace:tr () in
  ignore (Engine.run_sql e (sql "Q3"));
  let json = Trace.to_chrome_json tr in
  Alcotest.(check bool) "top-level object" true (json.[0] = '{');
  List.iter
    (fun frag ->
       Alcotest.(check bool) ("contains " ^ frag) true (contains json frag))
    [ "\"traceEvents\""; "\"ph\": \"X\""; "\"ph\": \"M\"";
      "\"thread_name\""; "\"displayTimeUnit\""; "\"pid\": 1" ];
  let summary = Trace.to_summary_json tr in
  List.iter
    (fun frag ->
       Alcotest.(check bool) ("summary contains " ^ frag) true
         (contains summary frag))
    [ "\"queries\""; "\"spans\""; "\"metrics\""; "\"ledger\"";
      "\"open_spans\": 0" ]

(* --- explain-analyze renders one uniform stat block, sanitized or not --- *)

let test_explain_analyze_uniform () =
  let catalog = Tpcd.experiment_catalog ~sf:0.001 () in
  let off = Engine.create ~budget_pages:64 ~pool_pages:512 catalog in
  let sane =
    Engine.create ~budget_pages:64 ~pool_pages:512
      ~sanitize:true catalog
  in
  let render e =
    Fmt.str "%a" Dispatcher.pp_explain_analyze (Engine.run_sql e (sql "Q3"))
  in
  let strip_verification text =
    String.split_on_char '\n' text
    |> List.filter (fun l ->
      not (String.length l >= 12 && String.sub l 0 12 = "verification"))
    |> String.concat "\n"
  in
  let t_off = render off and t_sane = render sane in
  (* both modes always render the full stat block... *)
  List.iter
    (fun frag ->
       List.iter
         (fun (name, text) ->
            Alcotest.(check bool)
              (Printf.sprintf "%s block present under %s" frag name)
              true (contains text frag))
         [ ("off", t_off); ("sanitize", t_sane) ])
    [ "collectors:"; "runtime filters:"; "buffer pool:"; "verification:" ];
  (* ...and everything except the verification count is identical *)
  Alcotest.(check string) "identical columns across verify modes"
    (strip_verification t_off) (strip_verification t_sane)

let suite =
  [ Alcotest.test_case "metrics counters and gauges" `Quick
      test_metrics_counters_and_gauges;
    Alcotest.test_case "metrics log-scale histogram" `Quick
      test_metrics_log_histogram;
    Alcotest.test_case "metrics reservoir bounded" `Quick
      test_metrics_bounded_reservoir;
    Alcotest.test_case "metrics quantiles exact when small" `Quick
      test_metrics_quantiles_exact_when_small;
    Alcotest.test_case "metrics reservoir deterministic" `Quick
      test_metrics_deterministic_reservoir;
    Alcotest.test_case "prometheus exposition shape" `Quick
      test_prometheus_exposition;
    Alcotest.test_case "span stack discipline" `Quick
      test_span_stack_discipline;
    Alcotest.test_case "single query spans" `Quick test_single_query_spans;
    Alcotest.test_case "workload spans well-formed" `Quick
      test_workload_spans_well_formed;
    Alcotest.test_case "ledger matches events" `Quick
      test_ledger_matches_events;
    Alcotest.test_case "timed events stamped and monotone" `Quick
      test_timed_events;
    Alcotest.test_case "tracing has zero simulated overhead" `Quick
      test_tracing_zero_overhead;
    Alcotest.test_case "chrome and summary export shape" `Quick
      test_chrome_export_shape;
    Alcotest.test_case "explain analyze uniform across verify modes" `Quick
      test_explain_analyze_uniform ]

(* --- the JSON string escaper every hand-rolled emitter shares --- *)

let test_escape_specials () =
  Alcotest.(check string) "quote and backslash" {|a\"b\\c|}
    (Trace.json_escape {|a"b\c|});
  Alcotest.(check string) "short escapes" {|\n\t\r|}
    (Trace.json_escape "\n\t\r");
  Alcotest.(check string) "other control characters" {|\u0001\u001f|}
    (Trace.json_escape "\001\031")

let test_escape_passthrough () =
  List.iter
    (fun s -> Alcotest.(check string) s s (Trace.json_escape s))
    [ ""; "Q5 full"; "select * from lineitem where l_tax < 0.05";
      "caf\xc3\xa9 \xe2\x9c\x93" ]

let json_escape_suite =
  [ Alcotest.test_case "specials escaped" `Quick test_escape_specials;
    Alcotest.test_case "plain text passes through" `Quick
      test_escape_passthrough ]
