(* Query service: session lifecycle, the scheduling rule (earliest
   deadline first, round-robin among equal deadlines), determinism,
   failure isolation and cancellation. *)
module Engine = Mqr_core.Engine
module Dispatcher = Mqr_core.Dispatcher
module Verifier = Mqr_analysis.Verifier
module Optimizer = Mqr_opt.Optimizer
module Service = Mqr_wlm.Service
module Session = Mqr_wlm.Session
module Broker = Mqr_wlm.Broker
module Monitor = Mqr_wlm.Monitor
module Queries = Mqr_tpcd.Queries
module Tpcd = Mqr_tpcd.Workload

let sql n = (Queries.find n).Queries.sql

let engine ?(sanitize = true) () =
  let catalog = Tpcd.experiment_catalog ~sf:0.001 () in
  Engine.create ~budget_pages:128 ~pool_pages:512 ~sanitize
    ~opt_options:{ Optimizer.default_options with Optimizer.max_dop = 2 }
    catalog

let service ?(max_concurrency = 2) eng =
  Service.create
    ~options:{ Service.default_options with Service.max_concurrency }
    eng

(* The bench scenario in miniature: batch work arrives first, interactive
   statements must overtake it.  Returns the sessions in (etl, web)
   order; every statement is drained to a terminal status. *)
let mixed_workload ?(web = Session.Interactive) svc =
  Service.add_tenant svc ~slo:Session.Batch "etl";
  Service.add_tenant svc ~slo:web "web";
  let e = Service.open_session svc ~tenant:"etl" in
  let w = Service.open_session svc ~tenant:"web" in
  ignore (Session.submit ~label:"q5" ~arrival_ms:0.0 e (sql "Q5"));
  ignore (Session.submit ~label:"q10" ~arrival_ms:0.0 e (sql "Q10"));
  ignore (Session.submit ~label:"q3" ~arrival_ms:5.0 w (sql "Q3"));
  ignore (Session.submit ~label:"q6" ~arrival_ms:10.0 w (sql "Q6"));
  Service.drain svc;
  (e, w)

let assert_all_done sess =
  List.iter
    (fun (s : Session.stmt) ->
       Alcotest.(check string) (s.Session.stmt_label ^ " done") "done"
         (Session.status_to_string s.Session.stmt_status))
    (Session.statements sess)

let stmt_rows (s : Session.stmt) =
  match s.Session.stmt_status with
  | Session.Done r -> r.Dispatcher.rows
  | _ -> Alcotest.failf "%s not done" s.Session.stmt_label

(* --- result identity --- *)

let test_rows_match_solo () =
  let eng = engine () in
  let svc = service eng in
  let e, w = mixed_workload svc in
  assert_all_done e;
  assert_all_done w;
  List.iter
    (fun (s : Session.stmt) ->
       let solo = Engine.run_sql (engine ()) s.Session.stmt_sql in
       Alcotest.(check bool)
         (s.Session.stmt_label ^ " rows bit-identical to solo run") true
         (stmt_rows s = solo.Dispatcher.rows))
    (Session.statements e @ Session.statements w);
  let r = Service.report svc in
  Alcotest.(check int) "no lease outlives its statement" 0
    r.Service.outstanding_leases

(* --- determinism --- *)

let fingerprint svc sessions =
  let r = Service.report svc in
  ( r.Service.makespan_ms,
    List.concat_map
      (fun sess ->
         List.map
           (fun (s : Session.stmt) ->
              ( s.Session.stmt_label,
                Session.status_to_string s.Session.stmt_status,
                s.Session.stmt_admit_ms,
                s.Session.stmt_finish_ms,
                Reference.canonical (stmt_rows s) ))
           (Session.statements sess))
      sessions )

let test_deterministic () =
  let run () =
    let eng = engine () in
    let svc = service eng in
    let e, w = mixed_workload svc in
    fingerprint svc [ e; w ]
  in
  let m1, fp1 = run () in
  let m2, fp2 = run () in
  Alcotest.(check (float 0.0)) "same simulated makespan" m1 m2;
  List.iter2
    (fun (l1, st1, a1, f1, rows1) (l2, st2, a2, f2, rows2) ->
       Alcotest.(check string) "same label" l1 l2;
       Alcotest.(check string) (l1 ^ " same status") st1 st2;
       Alcotest.(check (float 0.0)) (l1 ^ " same admit") a1 a2;
       Alcotest.(check (float 0.0)) (l1 ^ " same finish") f1 f2;
       Alcotest.(check (list (list string))) (l1 ^ " same rows") rows1 rows2)
    fp1 fp2

(* The wall clock is measured and reported only: with an injected clock
   the wall makespan is positive, without one it is 0, and the simulated
   side of the report is identical either way. *)
let test_wall_clock_reported_only () =
  let run wall_clock =
    let options =
      { Service.default_options with Service.max_concurrency = 2; wall_clock }
    in
    let svc = Service.create ~options (engine ()) in
    let e, w = mixed_workload svc in
    let r = Service.report svc in
    ( r.Service.wall_makespan_ms,
      r.Service.makespan_ms,
      List.map
        (fun (slo, (c : Service.class_stats)) ->
           ( Session.slo_to_string slo, c.Service.cs_p50_ms,
             c.Service.cs_p99_ms ))
        r.Service.classes,
      List.map
        (fun (s : Session.stmt) ->
           (s.Session.stmt_label, s.Session.stmt_admit_ms,
            s.Session.stmt_finish_ms))
        (Session.statements e @ Session.statements w) )
  in
  (* a fake clock: each read is one millisecond after the last *)
  let now = ref 0.0 in
  let clock () = now := !now +. 0.001; !now in
  let wall_on, mksp_on, classes_on, stmts_on = run (Some clock) in
  let wall_off, mksp_off, classes_off, stmts_off = run None in
  let times = Alcotest.(list (triple string (float 0.0) (float 0.0))) in
  Alcotest.(check bool) "wall makespan > 0 with a clock" true (wall_on > 0.0);
  Alcotest.(check (float 0.0)) "wall makespan 0 without" 0.0 wall_off;
  Alcotest.(check (float 0.0)) "same simulated makespan" mksp_off mksp_on;
  Alcotest.check times "same class p50/p99" classes_off classes_on;
  Alcotest.check times "same admit and finish times" stmts_off stmts_on

(* --- the scheduling rule --- *)

(* Three batch statements arriving at 0 share a deadline, so until the
   first completes they are stepped in rotation, in admission order.  A
   step's statement is the one whose lane time moved. *)
let test_equal_deadlines_rotate () =
  let svc = service ~max_concurrency:3 (engine ()) in
  Service.add_tenant svc ~slo:Session.Batch "etl";
  let e = Service.open_session svc ~tenant:"etl" in
  let ids = List.map (fun n -> Session.submit e (sql n)) [ "Q5"; "Q10"; "Q3" ] in
  let lane (s : Session.stmt) =
    Option.map Dispatcher.run_elapsed_ms s.Session.stmt_run
  in
  let rec picks acc =
    match Service.running_statements svc with
    | [ _; _; _ ] as running ->
      let before = List.map lane running in
      ignore (Service.step svc);
      let moved = List.filteri (fun i s -> lane s <> List.nth before i) running in
      picks (List.map (fun (s : Session.stmt) -> s.Session.stmt_id) moved :: acc)
    | _ -> List.rev acc
  in
  let got = picks [] in
  Alcotest.(check (list (list int)))
    "one a step, in rotation, admission order, two sweeps at least"
    (List.init (max 6 (List.length got)) (fun i -> [ List.nth ids (i mod 3) ]))
    got

(* Which statement runs follows from the input: the same arrivals finish
   the web tenant's statements sooner with it registered interactive
   than with it registered batch. *)
let test_interactive_beats_batch () =
  let latencies web =
    let _, w = mixed_workload ~web (service ~max_concurrency:1 (engine ())) in
    assert_all_done w;
    List.map
      (fun (s : Session.stmt) ->
         s.Session.stmt_finish_ms -. s.Session.stmt_arrival_ms)
      (Session.statements w)
  in
  let i = latencies Session.Interactive and b = latencies Session.Batch in
  Alcotest.(check bool)
    (Fmt.str "web sooner as interactive (%a vs %a ms)"
       Fmt.(Dump.list float) i Fmt.(Dump.list float) b)
    true (List.for_all2 ( < ) i b)

(* --- session lifecycle --- *)

let test_lifecycle () =
  let eng = engine () in
  let svc = service ~max_concurrency:1 eng in
  Service.add_tenant svc ~slo:Session.Interactive "web";
  let s = Service.open_session svc ~tenant:"web" in
  let q5 = Session.submit ~label:"q5" s (sql "Q5") in
  Alcotest.(check string) "admitted eagerly into the free slot" "running"
    (Session.status_to_string (Session.poll s q5));
  let q6 = Session.submit ~label:"q6" s (sql "Q6") in
  Alcotest.(check string) "second waits for the slot" "queued"
    (Session.status_to_string (Session.poll s q6));
  ignore (Service.step svc);
  Alcotest.(check string) "still running after a step" "running"
    (Session.status_to_string (Session.poll s q5));
  Alcotest.(check bool) "cancel queued statement" true (Session.cancel s q6);
  Service.drain svc;
  Alcotest.(check string) "first completed" "done"
    (Session.status_to_string (Session.poll s q5));
  Alcotest.(check string) "second stayed cancelled" "cancelled"
    (Session.status_to_string (Session.poll s q6));
  Alcotest.(check bool) "result available once done" true
    (Session.result s q5 <> None);
  Alcotest.(check bool) "cancelling a finished statement is a no-op" false
    (Session.cancel s q5);
  Session.close s;
  Alcotest.(check bool) "closed" true (Session.closed s);
  Alcotest.check_raises "submit on a closed session"
    (Invalid_argument "Session.submit: session is closed") (fun () ->
      ignore (Session.submit s (sql "Q6")))

let test_cancel_running_releases_lease () =
  let eng = engine () in
  let svc = service ~max_concurrency:1 eng in
  Service.add_tenant svc ~slo:Session.Batch "etl";
  let s = Service.open_session svc ~tenant:"etl" in
  let q5 = Session.submit ~label:"q5" s (sql "Q5") in
  ignore (Service.step svc);
  ignore (Service.step svc);
  Alcotest.(check string) "running mid-flight" "running"
    (Session.status_to_string (Session.poll s q5));
  Alcotest.(check bool) "cancel running statement" true (Session.cancel s q5);
  Alcotest.(check string) "cancelled" "cancelled"
    (Session.status_to_string (Session.poll s q5));
  Alcotest.(check int) "lease released on cancel" 0
    (Broker.outstanding (Service.broker svc));
  Alcotest.(check int) "no transient pages left" 0
    (Service.tenant_pages_in_flight svc "etl");
  (* the slot is free again: the session keeps serving *)
  let q6 = Session.submit ~label:"q6" s (sql "Q6") in
  Service.drain svc;
  Alcotest.(check string) "later statement completes" "done"
    (Session.status_to_string (Session.poll s q6))

(* --- failure isolation --- *)

let test_failure_isolated () =
  let eng = engine () in
  let svc = service eng in
  Service.add_tenant svc ~slo:Session.Interactive "web";
  let s = Service.open_session svc ~tenant:"web" in
  let bad = Session.submit ~label:"bad" s "select nope from lineitem" in
  let good = Session.submit ~label:"good" s (sql "Q6") in
  Service.drain svc;
  (match Session.poll s bad with
   | Session.Failed _ -> ()
   | st ->
     Alcotest.failf "expected failed, got %s" (Session.status_to_string st));
  Alcotest.(check string) "good statement unaffected" "done"
    (Session.status_to_string (Session.poll s good));
  Alcotest.(check int) "failed statement released its lease" 0
    (Broker.outstanding (Service.broker svc));
  let web =
    List.find
      (fun t -> t.Service.tns_tenant = "web")
      (Service.report svc).Service.tenants
  in
  Alcotest.(check int) "one failure" 1 web.Service.tns_failed;
  Alcotest.(check int) "the failure is a deadline miss" 1
    web.Service.tns_deadline_miss;
  (* the session survives: submit again after the failure *)
  let again = Session.submit ~label:"again" s (sql "Q6") in
  Service.drain svc;
  Alcotest.(check string) "service keeps serving" "done"
    (Session.status_to_string (Session.poll s again))

(* --- sanitizer --- *)

let test_sanitize_clean () =
  let eng = engine ~sanitize:true () in
  let svc = service eng in
  let e, w = mixed_workload svc in
  assert_all_done e;
  assert_all_done w;
  Alcotest.(check int) "TEN-LIFETIME: etl pages zero" 0
    (Service.tenant_pages_in_flight svc "etl");
  Alcotest.(check int) "TEN-LIFETIME: web pages zero" 0
    (Service.tenant_pages_in_flight svc "web")

(* --- soak: finished statements do not pin their runs --- *)

(* The same arrivals replayed episode after episode on one long-lived
   service: [t.all] keeps every finished statement, so the live heap
   stays flat only if each one let go of its dispatcher run. *)
let test_soak_heap_flat () =
  let eng = engine () in
  let svc = service eng in
  Service.add_tenant svc ~slo:Session.Batch "etl";
  Service.add_tenant svc ~slo:Session.Interactive "web";
  let e = Service.open_session svc ~tenant:"etl" in
  let w = Service.open_session svc ~tenant:"web" in
  (* the service benchmark's mix: batch Q5/Q7/Q8, interactive Q1/Q3/Q6/Q10 *)
  let arrivals =
    List.mapi
      (fun i (sess, label) -> (sess, label, 5.0 *. float_of_int i))
      [ (e, "q5"); (w, "q1"); (w, "q3"); (e, "q7"); (w, "q6"); (w, "q10");
        (e, "q8"); (w, "q3"); (w, "q6"); (e, "q5"); (w, "q10"); (w, "q1") ]
  in
  let live_words () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let episode () =
    let t0 = Service.now_ms svc in
    List.iter
      (fun (sess, label, at) ->
         ignore
           (Session.submit ~label ~arrival_ms:(t0 +. at) sess
              (sql (String.uppercase_ascii label))))
      arrivals;
    Service.drain svc;
    live_words ()
  in
  let first = episode () in
  let later = List.init 4 (fun _ -> episode ()) in
  let stmts = Session.statements e @ Session.statements w in
  Alcotest.(check int) "five episodes of twelve statements" 60
    (List.length stmts);
  assert_all_done e;
  assert_all_done w;
  List.iter
    (fun (s : Session.stmt) ->
       Alcotest.(check bool)
         (Printf.sprintf "#%d %s dropped its run" s.Session.stmt_id
            s.Session.stmt_label)
         true (Option.is_none s.Session.stmt_run))
    stmts;
  let occurrences sub s =
    let n = String.length sub in
    let rec go i acc =
      if i + n > String.length s then acc
      else go (i + 1) (if String.sub s i n = sub then acc + 1 else acc)
    in
    go 0 0
  in
  let view = Monitor.to_json svc Monitor.Statements in
  Alcotest.(check int) "statements view: every finished statement holds 0 pages"
    (List.length stmts) (occurrences "\"pages\": 0," view);
  List.iter
    (fun tenant ->
       Alcotest.(check int) (tenant ^ " holds no transient pages") 0
         (Service.tenant_pages_in_flight svc tenant))
    [ "etl"; "web" ];
  let limit_words = 2_000_000 / (Sys.word_size / 8) in
  List.iteri
    (fun i live ->
       Alcotest.(check bool)
         (Printf.sprintf
            "episode %d live heap within 2 MB of episode 1 (%+d words)" (i + 2)
            (live - first))
         true
         (live - first <= limit_words))
    later

let suite =
  [ Alcotest.test_case "rows match solo execution" `Quick
      test_rows_match_solo;
    Alcotest.test_case "service deterministic" `Quick test_deterministic;
    Alcotest.test_case "wall clock is reported only" `Quick
      test_wall_clock_reported_only;
    Alcotest.test_case "equal deadlines rotate in admission order" `Quick
      test_equal_deadlines_rotate;
    Alcotest.test_case "interactive registration beats batch" `Quick
      test_interactive_beats_batch;
    Alcotest.test_case "session lifecycle" `Quick test_lifecycle;
    Alcotest.test_case "cancel running releases lease" `Quick
      test_cancel_running_releases_lease;
    Alcotest.test_case "failure isolated" `Quick test_failure_isolated;
    Alcotest.test_case "sanitizer clean under service" `Quick
      test_sanitize_clean;
    Alcotest.test_case "soak: live heap flat across episodes" `Quick
      test_soak_heap_flat ]
