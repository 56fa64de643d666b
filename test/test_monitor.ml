(* The monitoring plane: system views over a live service (human and
   stable-JSON renderings), per-tenant SLO headroom / deadline-miss
   accounting, and the Prometheus text exposition. *)
module Engine = Mqr_core.Engine
module Service = Mqr_wlm.Service
module Session = Mqr_wlm.Session
module Monitor = Mqr_wlm.Monitor
module Trace = Mqr_obs.Trace
module Queries = Mqr_tpcd.Queries
module Tpcd = Mqr_tpcd.Workload

let sql n = (Queries.find n).Queries.sql

let engine () =
  let catalog = Tpcd.experiment_catalog ~sf:0.001 () in
  Engine.create ~budget_pages:128 ~pool_pages:512 catalog

let service ?trace eng =
  Service.create
    ~options:
      { Service.default_options with Service.max_concurrency = 2 }
    ?trace eng

let setup ?trace () =
  let svc = service ?trace (engine ()) in
  Service.add_tenant svc ~slo:Session.Batch "etl";
  Service.add_tenant ~target_ms:1500.0 svc ~slo:Session.Interactive "web";
  let e = Service.open_session svc ~tenant:"etl" in
  let w = Service.open_session svc ~tenant:"web" in
  ignore (Session.submit ~label:"q5" ~arrival_ms:0.0 e (sql "Q5"));
  ignore (Session.submit ~label:"q3" ~arrival_ms:5.0 w (sql "Q3"));
  (svc, e, w)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let check_contains what hay needle =
  if not (contains hay needle) then
    Alcotest.failf "%s: %S not found in:\n%s" what needle hay

(* --- view name round-trip --- *)

let test_view_names () =
  Alcotest.(check int) "five views" 5 (List.length Monitor.view_names);
  List.iter
    (fun name ->
       match Monitor.view_of_string name with
       | None -> Alcotest.failf "view %s unknown" name
       | Some v ->
         Alcotest.(check string) "round-trip" name (Monitor.view_to_string v))
    Monitor.view_names;
  Alcotest.(check bool) "unknown view rejected" true
    (Monitor.view_of_string "bogus" = None)

(* --- mid-run views reflect live progress --- *)

let test_live_statements_view () =
  let svc, _, _ = setup () in
  for _ = 1 to 4 do ignore (Service.step svc) done;
  let json = Monitor.to_json svc Monitor.Statements in
  check_contains "statements json" json "\"view\": \"statements\"";
  check_contains "statements json" json "\"label\": \"q5\"";
  check_contains "statements json" json "\"percent\":";
  check_contains "statements json" json "\"eta_hi_ms\":";
  let human = Monitor.render svc Monitor.Statements in
  check_contains "statements human" human "etl/q5";
  (* pure observation: rendering must not advance the clock *)
  let before = Service.now_ms svc in
  ignore (Monitor.render svc Monitor.Statements);
  ignore (Monitor.to_json svc Monitor.Tenants);
  ignore (Monitor.prometheus svc);
  Alcotest.(check (float 0.0)) "views never advance the virtual clock"
    before (Service.now_ms svc);
  Service.drain svc;
  let json = Monitor.to_json svc Monitor.Statements in
  check_contains "drained statements json" json "\"state\": \"done\"";
  check_contains "drained statements json" json "\"percent\": 100.000"

let test_sessions_and_broker_views () =
  let svc, _, _ = setup () in
  Service.drain svc;
  let sessions = Monitor.to_json svc Monitor.Sessions in
  check_contains "sessions json" sessions "\"view\": \"sessions\"";
  check_contains "sessions json" sessions "\"tenant\": \"etl\"";
  check_contains "sessions json" sessions "\"done\": 1";
  let broker = Monitor.to_json svc Monitor.Broker_leases in
  check_contains "broker json" broker "\"budget_pages\":";
  check_contains "broker json" broker "\"leases\": []"

(* --- tenant SLO accounting (headroom, deadline misses) --- *)

let test_tenant_slo_accounting () =
  let svc, _, _ = setup () in
  Service.drain svc;
  let rep = Service.report svc in
  let tn name =
    List.find (fun t -> t.Service.tns_tenant = name) rep.Service.tenants
  in
  let web = tn "web" and etl = tn "etl" in
  (* Q3 at sf 0.001 finishes well inside web's 1500 ms target *)
  Alcotest.(check int) "web misses" 0 web.Service.tns_deadline_miss;
  Alcotest.(check bool) "web headroom positive and finite" true
    (Float.is_finite web.Service.tns_min_headroom_ms
     && web.Service.tns_min_headroom_ms > 0.0);
  Alcotest.(check bool) "headroom bounded by target" true
    (web.Service.tns_min_headroom_ms <= web.Service.tns_target_ms);
  Alcotest.(check int) "etl misses" 0 etl.Service.tns_deadline_miss;
  let json = Monitor.to_json svc Monitor.Tenants in
  check_contains "tenants json" json "\"deadline_misses\": 0";
  check_contains "tenants json" json "\"min_headroom_ms\":"

let test_cancelled_statement_is_a_miss () =
  let svc, _, w = setup () in
  let id = Session.submit ~label:"doomed" ~arrival_ms:0.0 w (sql "Q10") in
  ignore (Service.step svc);
  Alcotest.(check bool) "cancelled" true (Session.cancel w id);
  Service.drain svc;
  let rep = Service.report svc in
  let web =
    List.find (fun t -> t.Service.tns_tenant = "web") rep.Service.tenants
  in
  Alcotest.(check int)
    "a cancelled statement counts as a deadline miss" 1
    web.Service.tns_deadline_miss;
  Alcotest.(check int) "but not as an SLO violation" 0
    web.Service.tns_violations

(* --- ledger view and Prometheus exposition need the trace --- *)

let test_ledger_and_prometheus () =
  let tr = Trace.create () in
  let svc, _, _ = setup ~trace:tr () in
  Service.drain svc;
  let json = Monitor.to_json svc Monitor.Ledger in
  check_contains "ledger json" json "\"view\": \"ledger\"";
  check_contains "ledger json" json "\"kind\":";
  let prom = Monitor.prometheus svc in
  check_contains "prometheus" prom "# TYPE mqr_";
  check_contains "prometheus" prom "mqr_svc_web_slo_headroom_ms";
  check_contains "prometheus" prom "le=\"+Inf\"";
  (* deterministic: the same service state exports the same text *)
  Alcotest.(check string) "export is stable" prom (Monitor.prometheus svc)

let test_traceless_service () =
  let svc, _, _ = setup () in
  Service.drain svc;
  Alcotest.(check string) "no trace, empty exposition" ""
    (Monitor.prometheus svc);
  let json = Monitor.to_json svc Monitor.Ledger in
  check_contains "traceless ledger json" json "\"ledger\": []"

let suite =
  [ Alcotest.test_case "view names round-trip" `Quick test_view_names;
    Alcotest.test_case "live statements view" `Quick
      test_live_statements_view;
    Alcotest.test_case "sessions and broker views" `Quick
      test_sessions_and_broker_views;
    Alcotest.test_case "tenant SLO accounting" `Quick
      test_tenant_slo_accounting;
    Alcotest.test_case "cancelled statement is a deadline miss" `Quick
      test_cancelled_statement_is_a_miss;
    Alcotest.test_case "ledger view and prometheus export" `Quick
      test_ledger_and_prometheus;
    Alcotest.test_case "traceless service degrades gracefully" `Quick
      test_traceless_service ]
