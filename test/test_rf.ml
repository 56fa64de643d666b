(* Runtime join filters: bloom/min-max semantics, end-to-end result
   equivalence, observed-selectivity feedback, and the broker page-lease
   invariant. *)
module Engine = Mqr_core.Engine
module Dispatcher = Mqr_core.Dispatcher
module Reopt_policy = Mqr_core.Reopt_policy
module Rf = Mqr_exec.Runtime_filter
module Exec_ctx = Mqr_exec.Exec_ctx
module Queries = Mqr_tpcd.Queries
module Tpcd = Mqr_tpcd.Workload
module Value = Mqr_storage.Value
module Schema = Mqr_storage.Schema

let sf = 0.001
let budget = 16 (* tight: mid-size builds spill, so pruning saves I/O *)

let engine ~runtime_filters catalog =
  Engine.create ~budget_pages:budget ~pool_pages:(8 * budget)
    ~runtime_filters catalog

let schema1 =
  Schema.make [ Schema.col ~qualifier:"t" "k" Value.TInt ]

let rows_of_keys keys =
  Array.of_list (List.map (fun k -> [| Value.Int k |]) keys)

let mk_filter ?(est_sel = 0.5) ?(max_pages = 4) keys =
  let ctx = Exec_ctx.create ~pool_pages:64 () in
  Rf.create ctx ~source:"test" ~build_col:"t.k" ~target_col:"u.k" ~est_sel
    ~max_pages ~key_idx:0 (rows_of_keys keys)

(* --- filter unit semantics --- *)

(* Does [v] pass the filter?  Asked the way the executor asks: one probe
   row through [Rf.apply]. *)
let admits f v =
  let ctx = Exec_ctx.create ~pool_pages:64 () in
  Array.length (Rf.apply ctx f ~idx:0 [| [| v |] |]) = 1

let test_no_false_negatives () =
  let build = List.init 100 (fun i -> 2 * i) in
  let f = mk_filter build in
  List.iter
    (fun k ->
       Alcotest.(check bool)
         (Printf.sprintf "build key %d admitted" k)
         true
         (admits f (Value.Int k)))
    build

let test_prunes_absent_keys () =
  (* interleaved so min-max cannot do the work: the bloom must *)
  let f = mk_filter (List.init 100 (fun i -> 2 * i)) in
  let ctx = Exec_ctx.create ~pool_pages:64 () in
  let probe = rows_of_keys (List.init 199 (fun i -> i)) in
  let out = Rf.apply ctx f ~idx:0 probe in
  Alcotest.(check bool) "all 100 build keys pass" true
    (Array.length out >= 100);
  Alcotest.(check bool)
    (Printf.sprintf "most absent keys dropped (passed %d)" (Array.length out))
    true
    (Array.length out < 150);
  Alcotest.(check int) "probed counts every input row" 199 (Rf.probed f);
  Alcotest.(check int) "dropped = probed - passed" (199 - Array.length out)
    (Rf.dropped f);
  Alcotest.(check (float 1e-9)) "observed_sel = passed/probed"
    (float_of_int (Array.length out) /. 199.0)
    (Rf.observed_sel f)

let test_minmax_and_nulls () =
  let f = mk_filter [ 10; 20; 30 ] in
  Alcotest.(check bool) "below min rejected" false (admits f (Value.Int 5));
  Alcotest.(check bool) "above max rejected" false (admits f (Value.Int 35));
  Alcotest.(check bool) "null never joins" false (admits f Value.Null);
  (* a String can never equi-join Int keys: the range check passes
     conservatively, but the bloom safely rejects it *)
  Alcotest.(check bool) "type-mismatched value rejected by bloom" false
    (admits f (Value.String "x"));
  (* without a bloom, the conservative range pass must let it through *)
  let mm = mk_filter ~max_pages:0 [ 10; 20; 30 ] in
  Alcotest.(check bool) "incomparable value passes min-max-only filter" true
    (admits mm (Value.String "x"))

let test_minmax_only_degradation () =
  let f = mk_filter ~max_pages:0 [ 10; 20; 30 ] in
  (* in-range but absent: only a bloom rejects it *)
  Alcotest.(check bool) "in-range rejected by the bloom" false
    (admits (mk_filter [ 10; 20; 30 ]) (Value.Int 15));
  Alcotest.(check bool) "in-range admitted without bloom" true
    (admits f (Value.Int 15));
  Alcotest.(check bool) "out-of-range still rejected" false
    (admits f (Value.Int 99))

let test_empty_build_drops_all () =
  let f = mk_filter [] in
  Alcotest.(check bool) "nothing joins an empty build" false
    (admits f (Value.Int 1))

let test_pages_for () =
  Alcotest.(check int) "no keys, no pages" 0 (Rf.pages_for ~keys:0);
  Alcotest.(check bool) "one key needs one page" true
    (Rf.pages_for ~keys:1 = 1);
  Alcotest.(check bool) "sizing grows with keys" true
    (Rf.pages_for ~keys:100_000 > Rf.pages_for ~keys:100)

(* --- end-to-end: identical results with filters on --- *)


let test_results_identical () =
  let catalog = Tpcd.experiment_catalog ~sf () in
  let off = engine ~runtime_filters:false catalog in
  let on = engine ~runtime_filters:true catalog in
  List.iter
    (fun (q : Queries.query) ->
       List.iter
         (fun mode ->
            let a = Engine.run_sql off ~mode q.Queries.sql in
            let b = Engine.run_sql on ~mode q.Queries.sql in
            let terms =
              Reference.largest_relation catalog
                (Engine.bind_sql off q.Queries.sql)
            in
            Reference.check ~tol:(Reference.one_sign ~terms)
              (Printf.sprintf "%s (%s) rows identical" q.Queries.name
                 (Dispatcher.mode_to_string mode))
              a.Dispatcher.rows b.Dispatcher.rows)
         [ Dispatcher.Off; Dispatcher.Full ])
    Queries.all

(* --- observed selectivity is reported and sane --- *)

let test_selectivity_feedback () =
  let catalog = Tpcd.experiment_catalog ~sf () in
  let on = engine ~runtime_filters:true catalog in
  let reports =
    List.map
      (fun name ->
         Engine.run_sql on ~mode:Dispatcher.Off (Queries.find name).Queries.sql)
      [ "Q3"; "Q5"; "Q10" ]
  in
  let filters =
    List.concat_map
      (fun (r : Dispatcher.report) ->
         List.filter_map
           (function
             | _, Dispatcher.Ev_filter { target_col; est_sel; observed_sel; _ }
               ->
               Some (target_col, est_sel, observed_sel)
             | _ -> None)
           r.Dispatcher.timed_events)
      reports
  in
  Alcotest.(check bool) "join-heavy queries built filters" true
    (filters <> []);
  List.iter
    (fun (col, est, obs) ->
       let ok v = v >= 0.0 && v <= 1.0 in
       Alcotest.(check bool) (col ^ " est in [0,1]") true (ok est);
       Alcotest.(check bool) (col ^ " observed in [0,1]") true (ok obs))
    filters;
  (* the estimates were degraded on purpose: at least one filter must
     observe real pruning *)
  Alcotest.(check bool) "some filter pruned below 90%" true
    (List.exists (fun (_, _, obs) -> obs < 0.9) filters)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_explain_shows_annotations () =
  let catalog = Tpcd.experiment_catalog ~sf () in
  let on = engine ~runtime_filters:true catalog in
  let off = engine ~runtime_filters:false catalog in
  let has_rf e name =
    contains
      (Mqr_opt.Plan.to_string
         (Engine.explain e (Queries.find name).Queries.sql))
      "rf:["
  in
  Alcotest.(check bool) "rf-on plan annotated" true
    (List.exists (has_rf on) [ "Q3"; "Q5"; "Q10" ]);
  Alcotest.(check bool) "rf-off plan clean" false
    (List.exists (has_rf off) [ "Q3"; "Q5"; "Q10" ])

(* [~opt_options] asking for filters keeps them unless [~runtime_filters]
   is passed too, which then overrides. *)
let test_opt_options_carry_filters () =
  let catalog = Tpcd.experiment_catalog ~sf () in
  let opt_options =
    { Mqr_opt.Optimizer.default_options with
      Mqr_opt.Optimizer.enable_runtime_filters = true }
  in
  let annotated e =
    contains
      (Mqr_opt.Plan.to_string (Engine.explain e (Queries.find "Q5").Queries.sql))
      "rf:["
  in
  Alcotest.(check bool) "filters from opt_options" true
    (annotated (Engine.create ~opt_options catalog));
  Alcotest.(check bool) "runtime_filters:false overrides" false
    (annotated (Engine.create ~opt_options ~runtime_filters:false catalog))

(* --- broker invariant: filter pages always come back --- *)

let test_broker_pages_returned () =
  let catalog = Tpcd.experiment_catalog ~sf () in
  let on = engine ~runtime_filters:true catalog in
  let lease_calls = ref 0 in
  let broker ~min_pages ~max_pages =
    incr lease_calls;
    ignore min_pages;
    min max_pages (4 * budget)
  in
  List.iter
    (fun (name, mode) ->
       let cfg = Engine.dispatcher_config on ~mode ~broker () in
       let r = Dispatcher.start cfg (Engine.bind_sql on (Queries.find name).Queries.sql) in
       let rec drive () =
         match Dispatcher.step r with
         | None ->
           (* a decision point: every filter of the finished unit must have
              retired and returned its lease — also across plan switches *)
           Alcotest.(check int)
             (name ^ " holds no transient pages at decision point") 0
             (Dispatcher.transient_pages_held r);
           drive ()
         | Some report ->
           Alcotest.(check int) (name ^ " holds no transient pages at end") 0
             (Dispatcher.transient_pages_held r);
           report
       in
       let report = drive () in
       if
         List.exists
           (function _, Dispatcher.Ev_filter _ -> true | _ -> false)
           report.Dispatcher.timed_events
       then
         Alcotest.(check bool) (name ^ " filters actually held pages") true
           (report.Dispatcher.filter_pages_peak > 0))
    [ ("Q3", Dispatcher.Off); ("Q5", Dispatcher.Full); ("Q7", Dispatcher.Full) ];
  Alcotest.(check bool) "broker was consulted" true (!lease_calls > 0)

(* --- surprise policy and error grading --- *)

let test_surprise_policy () =
  Alcotest.(check bool) "accurate estimate: no surprise" false
    (Reopt_policy.filter_surprise ~est:0.5 ~obs:0.5);
  Alcotest.(check bool) "3.3x off: within factor 4" false
    (Reopt_policy.filter_surprise ~est:1.0 ~obs:0.3);
  Alcotest.(check bool) "50x off: surprise" true
    (Reopt_policy.filter_surprise ~obs:0.5 ~est:0.01);
  Alcotest.(check bool) "surprise is symmetric" true
    (Reopt_policy.filter_surprise ~obs:0.01 ~est:0.5)

let suite =
  [ Alcotest.test_case "bloom has no false negatives" `Quick
      test_no_false_negatives;
    Alcotest.test_case "bloom prunes absent keys" `Quick
      test_prunes_absent_keys;
    Alcotest.test_case "min-max bounds and nulls" `Quick test_minmax_and_nulls;
    Alcotest.test_case "0 pages degrades to min-max only" `Quick
      test_minmax_only_degradation;
    Alcotest.test_case "empty build drops everything" `Quick
      test_empty_build_drops_all;
    Alcotest.test_case "bitmap page sizing" `Quick test_pages_for;
    Alcotest.test_case "results identical with filters on" `Slow
      test_results_identical;
    Alcotest.test_case "observed selectivity feedback" `Quick
      test_selectivity_feedback;
    Alcotest.test_case "explain shows rf annotations" `Quick
      test_explain_shows_annotations;
    Alcotest.test_case "opt_options carry runtime filters" `Quick
      test_opt_options_carry_filters;
    Alcotest.test_case "broker filter pages returned" `Quick
      test_broker_pages_returned;
    Alcotest.test_case "surprise policy and error grading" `Quick
      test_surprise_policy ]
