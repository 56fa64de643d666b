(* Benchmark harness: regenerates every data figure of the paper's
   evaluation (Section 3.2) plus the extension experiments listed in
   DESIGN.md.

     dune exec bench/main.exe            -- everything (figures, extensions)
     dune exec bench/main.exe -- figures -- just the paper figures (F10 F11 F12)
     dune exec bench/main.exe -- f10     -- one experiment

   Experiments report *simulated* milliseconds from the engine's cost
   clock, so results are deterministic and machine-independent.  The
   parallel, service, overhead and opt scenarios also report wall-clock
   min and median over repetitions. *)

module Engine = Mqr_core.Engine
module Dispatcher = Mqr_core.Dispatcher
module Reopt_policy = Mqr_core.Reopt_policy
module Queries = Mqr_tpcd.Queries
module Workload = Mqr_tpcd.Workload
module Datagen = Mqr_tpcd.Datagen
module Catalog = Mqr_catalog.Catalog

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)

let sf =
  try float_of_string (Sys.getenv "MQR_SF") with Not_found | Failure _ -> 0.005

(* Memory budget scaled so that complex queries' maximum hash-join demands
   exceed it — the paper's 32 MB-per-node pressure regime. *)
let budget_pages = max 64 (int_of_float (sf *. 40_000.0))
let pool_pages = 8 * budget_pages

let engine_for ?(skew_z = 0.0) ?(degradations = Workload.paper_degradations) () =
  let catalog = Workload.experiment_catalog ~sf ~skew_z ~degradations () in
  Engine.create ~budget_pages ~pool_pages catalog

let time engine mode (q : Queries.query) =
  (Engine.run_sql engine ~mode q.Queries.sql).Dispatcher.elapsed_ms

(* ------------------------------------------------------------------ *)
(* Machine-readable results: every recorded data point lands in
   BENCH_results.json next to the human-readable tables.               *)

(* [extra] appends scenario-specific fields, each value already JSON. *)
let json_results :
  (string * string * float * int * int * (string * string) list) list ref =
  ref []

let record_extra ~extra ~scenario ~mode ~elapsed_ms ~switches ~collectors =
  json_results :=
    (scenario, mode, elapsed_ms, switches, collectors, extra) :: !json_results

let record = record_extra ~extra:[]

(* run + record: the figure tables double as JSON data points *)
let time_r ~scenario engine mode (q : Queries.query) =
  let r = Engine.run_sql engine ~mode q.Queries.sql in
  record ~scenario
    ~mode:(Dispatcher.mode_to_string mode)
    ~elapsed_ms:r.Dispatcher.elapsed_ms ~switches:r.Dispatcher.switches
    ~collectors:r.Dispatcher.collectors;
  r

let emit_json () =
  let oc = open_out "BENCH_results.json" in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "[\n";
  List.iteri
    (fun i (scenario, mode, ms, sw, col, extra) ->
       if i > 0 then Buffer.add_string buf ",\n";
       Buffer.add_string buf
         (Printf.sprintf
            "  {\"scenario\": %S, \"mode\": %S, \"elapsed_ms\": %.3f, \
             \"switches\": %d, \"collectors\": %d%s}"
            scenario mode ms sw col
            (String.concat ""
               (List.map (fun (k, v) -> Printf.sprintf ", %S: %s" k v) extra))))
    (List.rev !json_results);
  Buffer.add_string buf "\n]\n";
  output_string oc (Buffer.contents buf);
  close_out oc;
  Fmt.pr "@.wrote %d data points to BENCH_results.json@."
    (List.length !json_results)

let pct_improvement ~normal ~reopt = 100.0 *. (normal -. reopt) /. normal

(* wall-clock timings are noisy: measured scenarios repeat each run and
   report min (least-interference estimate) and median (typical) *)
let wall_reps = 3

let min_median xs =
  match List.sort compare xs with
  | [] -> (0.0, 0.0)
  | sorted ->
    (List.hd sorted, List.nth sorted (List.length sorted / 2))

let hr () = Fmt.pr "%s@." (String.make 78 '-')

let header title =
  hr ();
  Fmt.pr "%s@." title;
  hr ()

(* ------------------------------------------------------------------ *)
(* Figure 10: Normal vs Re-Optimized, all seven queries.               *)

let figure10 () =
  header
    (Fmt.str
       "Figure 10 - Performance of Dynamic Re-Optimization (sf=%g, \
        budget=%d pages, mu=0.05 theta1=0.05 theta2=0.2)"
       sf budget_pages);
  Fmt.pr "%-5s %-8s %6s | %12s %12s %9s %9s@." "query" "class" "joins"
    "normal(ms)" "reopt(ms)" "improv%" "switches";
  let engine = engine_for () in
  List.iter
    (fun (q : Queries.query) ->
       let scenario = "f10/" ^ q.Queries.name in
       let normal =
         (time_r ~scenario engine Dispatcher.Off q).Dispatcher.elapsed_ms
       in
       let r = time_r ~scenario engine Dispatcher.Full q in
       let reopt = r.Dispatcher.elapsed_ms in
       Fmt.pr "%-5s %-8s %6d | %12.1f %12.1f %8.1f%% %9d@." q.Queries.name
         (Queries.klass_to_string q.Queries.klass)
         q.Queries.joins normal reopt
         (pct_improvement ~normal ~reopt)
         r.Dispatcher.switches)
    Queries.all;
  Fmt.pr
    "@.Paper's shape: simple queries unchanged (small collection overhead), \
     medium up to ~5%%,@.complex 10-30%% better with re-optimization.@."

(* ------------------------------------------------------------------ *)
(* Figure 11: isolating memory re-allocation vs plan modification.     *)

let figure11 () =
  header "Figure 11 - Isolating memory management vs plan modification";
  Fmt.pr "%-5s %-8s | %10s %12s %12s %12s@." "query" "class" "normal"
    "mem-only" "plan-only" "full";
  let engine = engine_for () in
  let interesting =
    List.filter
      (fun (q : Queries.query) -> q.Queries.klass <> Queries.Simple)
      Queries.all
  in
  List.iter
    (fun (q : Queries.query) ->
       let scenario = "f11/" ^ q.Queries.name in
       let ms mode = (time_r ~scenario engine mode q).Dispatcher.elapsed_ms in
       let normal = ms Dispatcher.Off in
       let mem = ms Dispatcher.Memory_only in
       let plan = ms Dispatcher.Plan_only in
       let full = ms Dispatcher.Full in
       Fmt.pr "%-5s %-8s | %10.1f %12.1f %12.1f %12.1f@." q.Queries.name
         (Queries.klass_to_string q.Queries.klass)
         normal mem plan full)
    interesting;
  Fmt.pr
    "@.Paper's shape: medium queries benefit only from memory management; \
     complex queries@.benefit from both (5-10%% memory, 10-20%% plan \
     modification).@."

(* ------------------------------------------------------------------ *)
(* Figure 12: effect of skew (z = 0.3, z = 0.6).                       *)

let figure12 () =
  header "Figure 12 - Effect of skew (ratio re-optimized / normal)";
  Fmt.pr "%-5s %-8s | %12s %12s %12s@." "query" "class" "z=0 ratio"
    "z=0.3 ratio" "z=0.6 ratio";
  let engines =
    List.map (fun z -> (z, engine_for ~skew_z:z ())) [ 0.0; 0.3; 0.6 ]
  in
  let interesting =
    List.filter
      (fun (q : Queries.query) -> q.Queries.klass <> Queries.Simple)
      Queries.all
  in
  List.iter
    (fun (q : Queries.query) ->
       let ratios =
         List.map
           (fun (z, engine) ->
              let scenario = Fmt.str "f12/%s/z=%g" q.Queries.name z in
              let normal =
                (time_r ~scenario engine Dispatcher.Off q).Dispatcher.elapsed_ms
              in
              let reopt =
                (time_r ~scenario engine Dispatcher.Full q).Dispatcher.elapsed_ms
              in
              reopt /. normal)
           engines
       in
       match ratios with
       | [ r0; r3; r6 ] ->
         Fmt.pr "%-5s %-8s | %12.3f %12.3f %12.3f@." q.Queries.name
           (Queries.klass_to_string q.Queries.klass)
           r0 r3 r6
       | _ -> ())
    interesting;
  Fmt.pr
    "@.Paper's shape: the relative benefit of re-optimization grows \
     slightly with skew@.(serial-style histograms stay accurate under skew, \
     while coarse catalog statistics degrade).@."

(* ------------------------------------------------------------------ *)
(* Extension X-fig3: the worked memory-re-allocation example.          *)

let xfig3 () =
  header
    "Extension - Figure 3 worked example: re-allocation avoids a 2-pass \
     hash join";
  let q = Queries.find "Q10" in
  let engine = engine_for () in
  let off = Engine.run_sql engine ~mode:Dispatcher.Off q.Queries.sql in
  let mem = Engine.run_sql engine ~mode:Dispatcher.Memory_only q.Queries.sql in
  Fmt.pr "normal:       %10.1f ms@." off.Dispatcher.elapsed_ms;
  Fmt.pr "memory-only:  %10.1f ms@." mem.Dispatcher.elapsed_ms;
  List.iter
    (fun (_, ev) ->
       match ev with
       | Dispatcher.Ev_realloc _ -> Fmt.pr "  %a@." Dispatcher.pp_event ev
       | _ -> ())
    mem.Dispatcher.timed_events

(* ------------------------------------------------------------------ *)
(* Extension X-sens: sensitivity to mu and theta2 (thesis [12]).       *)

let sensitivity () =
  header "Extension - Sensitivity to mu and theta2 (paper defers to [12])";
  (* Q7 is the query whose re-optimization actually switches plans, so the
     thresholds have something to gate *)
  let q = Queries.find "Q7" in
  let engine = engine_for () in
  let report params =
    let engine = Engine.with_params engine params in
    let r = Engine.run_sql engine ~mode:Dispatcher.Full q.Queries.sql in
    (r.Dispatcher.elapsed_ms, r.Dispatcher.switches, r.Dispatcher.collectors)
  in
  Fmt.pr "mu sweep (theta1=0.05 theta2=0.2):@.";
  List.iter
    (fun mu ->
       let ms, sw, col =
         report { Reopt_policy.default_params with Reopt_policy.mu }
       in
       Fmt.pr "  mu=%-5.2f -> %10.1f ms  (%d collectors, %d switches)@." mu ms
         col sw)
    [ 0.0; 0.01; 0.02; 0.05; 0.10; 0.20 ];
  Fmt.pr "theta2 sweep (mu=0.05):@.";
  List.iter
    (fun theta2 ->
       let ms, sw, _ =
         report { Reopt_policy.default_params with Reopt_policy.theta2 }
       in
       Fmt.pr "  theta2=%-5.2f -> %10.1f ms  (%d switches)@." theta2 ms sw)
    [ 0.05; 0.1; 0.2; 0.4; 0.8; 5.0 ];
  Fmt.pr "theta1 sweep (mu=0.05 theta2=0.2):@.";
  List.iter
    (fun theta1 ->
       let ms, sw, _ =
         report { Reopt_policy.default_params with Reopt_policy.theta1 }
       in
       Fmt.pr "  theta1=%-5.3f -> %10.1f ms  (%d switches)@." theta1 ms sw)
    [ 0.001; 0.01; 0.05; 0.25 ]

(* ------------------------------------------------------------------ *)
(* Extension X-overhead: simple queries never pay more than mu.  On both
   clocks: the simulated overhead is what SCIA budgets against mu; the
   wall overhead (min and median over overhead_reps runs per mode) is what
   the collectors really cost on this machine.                         *)

let overhead_reps = 7

let overhead () =
  header "Extension - Collection overhead on simple queries is bounded by mu";
  let engine = engine_for () in
  let pct ~normal ~reopt = 100.0 *. (reopt -. normal) /. normal in
  List.iter
    (fun name ->
       let q = Queries.find name in
       let measure mode =
         let runs =
           List.init overhead_reps (fun _ ->
               let t0 = Unix.gettimeofday () in
               let r = Engine.run_sql engine ~mode q.Queries.sql in
               (r, 1000.0 *. (Unix.gettimeofday () -. t0)))
         in
         let r = fst (List.hd runs) in
         let wall_min, wall_med = min_median (List.map snd runs) in
         record_extra ~scenario:("overhead/" ^ name)
           ~mode:(Dispatcher.mode_to_string mode)
           ~elapsed_ms:r.Dispatcher.elapsed_ms ~switches:r.Dispatcher.switches
           ~collectors:r.Dispatcher.collectors
           ~extra:
             [ ("wall_min_ms", Printf.sprintf "%.3f" wall_min);
               ("wall_median_ms", Printf.sprintf "%.3f" wall_med);
               ("reps", string_of_int overhead_reps) ];
         (r.Dispatcher.elapsed_ms, wall_min, wall_med)
       in
       let normal, off_min, off_med = measure Dispatcher.Off in
       let reopt, full_min, full_med = measure Dispatcher.Full in
       Fmt.pr
         "%-4s normal %10.1f ms, with collectors %10.1f ms -> overhead \
          %5.2f%% (mu = 5%%)@."
         name normal reopt (pct ~normal ~reopt);
       Fmt.pr
         "     wall (%d reps) normal min %.2f med %.2f ms, with collectors \
          min %.2f med %.2f ms -> overhead %5.2f%% (min) %5.2f%% (med)@."
         overhead_reps off_min off_med full_min full_med
         (pct ~normal:off_min ~reopt:full_min)
         (pct ~normal:off_med ~reopt:full_med))
    [ "Q1"; "Q6" ]

(* ------------------------------------------------------------------ *)
(* Ablation A1: join-algorithm availability.                           *)

let ablation_joins () =
  header "Ablation - join algorithms available to the optimizer (Q5, normal mode)";
  let variants =
    [ ("all", Mqr_opt.Optimizer.default_options);
      ("no index NL join",
       { Mqr_opt.Optimizer.default_options with
         Mqr_opt.Optimizer.enable_index_join = false });
      ("no merge join",
       { Mqr_opt.Optimizer.default_options with
         Mqr_opt.Optimizer.enable_merge_join = false });
      ("hash join only",
       { Mqr_opt.Optimizer.default_options with
         Mqr_opt.Optimizer.enable_index_join = false;
         enable_merge_join = false });
      ("left-deep only",
       { Mqr_opt.Optimizer.default_options with
         Mqr_opt.Optimizer.enable_bushy = false }) ]
  in
  let q = Queries.find "Q5" in
  List.iter
    (fun (label, base) ->
       let opt_options =
         { base with
           Mqr_opt.Optimizer.planning_mem_pages = max 8 (budget_pages / 2) }
       in
       let catalog = Workload.experiment_catalog ~sf () in
       let engine =
         Engine.create ~budget_pages ~pool_pages ~opt_options catalog
       in
       Fmt.pr "  %-18s normal %10.1f ms   reopt %10.1f ms@." label
         (time engine Dispatcher.Off q)
         (time engine Dispatcher.Full q))
    variants

(* ------------------------------------------------------------------ *)
(* Ablation A2: catalog histogram kinds (ties into the Fig. 12 story). *)

let ablation_histograms () =
  header "Ablation - catalog histogram kind under skew z=0.6 (Q3)";
  let q = Queries.find "Q3" in
  List.iter
    (fun kind ->
       (* pristine catalog, only the histogram kind varies: estimate
          quality differences come from the kind alone, under skewed data *)
       let degradations = [ Workload.Histogram_kind kind ] in
       let engine = engine_for ~skew_z:0.6 ~degradations () in
       let normal = time engine Dispatcher.Off q in
       let reopt = time engine Dispatcher.Full q in
       Fmt.pr "  %-12s normal %10.1f ms   reopt %10.1f ms   ratio %.3f@."
         (Mqr_stats.Histogram.kind_to_string kind)
         normal reopt (reopt /. normal))
    [ Mqr_stats.Histogram.Serial; Mqr_stats.Histogram.Maxdiff;
      Mqr_stats.Histogram.Equi_depth; Mqr_stats.Histogram.Equi_width ]

(* ------------------------------------------------------------------ *)
(* Ablation A3: start-time sampling hybrid (paper Sections 4-5).       *)

let hybrid () =
  header
    "Extension - hybrid: start-time sampling probes + mid-query      re-optimization (Q3/Q5/Q8)";
  Fmt.pr "%-5s | %10s %12s %12s %12s@." "query" "normal" "reopt"
    "probe-only" "probe+reopt";
  let engine = engine_for () in
  List.iter
    (fun name ->
       let q = Queries.find name in
       let normal = time engine Dispatcher.Off q in
       let reopt = time engine Dispatcher.Full q in
       let probe_only =
         (Engine.run_sql engine ~mode:Dispatcher.Off ~probe_rows:64
            q.Queries.sql).Dispatcher.elapsed_ms
       in
       let probe_reopt =
         (Engine.run_sql engine ~mode:Dispatcher.Full ~probe_rows:64
            q.Queries.sql).Dispatcher.elapsed_ms
       in
       Fmt.pr "%-5s | %10.1f %12.1f %12.1f %12.1f@." name normal reopt
         probe_only probe_reopt)
    [ "Q3"; "Q5"; "Q8" ];
  Fmt.pr
    "@.Observation (the paper's Section 4 trade-off): sampling fixes what \
     it can see@.(single-table predicate selectivities - a large win when \
     the bad predicate@.feeds the whole plan, as in Q8) but not \
     propagation or cardinality staleness,@.and sharpening one estimate \
     while others stay wrong can even flip the@.optimizer to a worse plan \
     (Q3, Q5).  Mid-query re-optimization repairs both@.cases; combining \
     them keeps sampling's head start where it helps.@."

(* ------------------------------------------------------------------ *)
(* Extension: Paradise-style scalability of the parallel substrate.    *)

let scalability () =
  header
    "Extension - partitioned-parallel substrate: join speedup by degree      (Paradise ran on 4 nodes)";
  let module Parallel = Mqr_exec.Parallel in
  let module Exec_ctx = Mqr_exec.Exec_ctx in
  let rows n =
    Array.init n (fun i ->
        [| Mqr_storage.Value.Int (i mod 4096); Mqr_storage.Value.Int i |])
  in
  let schema q =
    Mqr_storage.Schema.make
      [ Mqr_storage.Schema.col ~qualifier:q "a" Mqr_storage.Value.TInt;
        Mqr_storage.Schema.col ~qualifier:q "b" Mqr_storage.Value.TInt ]
  in
  let build = rows 40_000 and probe = rows 40_000 in
  let base = ref 0.0 in
  List.iter
    (fun degree ->
       let ctx = Exec_ctx.create ~pool_pages:4096 () in
       ignore
         (Parallel.hash_join ctx ~degree ~mem_pages:64
            ~build:(build, schema "r") ~probe:(probe, schema "l")
            ~keys:[ ("l.a", "r.a") ] ());
       let t = Exec_ctx.elapsed_ms ctx in
       if degree = 1 then base := t;
       Fmt.pr "  degree %d: %10.1f ms   speedup %.2fx@." degree t (!base /. t))
    [ 1; 2; 4; 8 ];
  Fmt.pr
    "@.Sub-linear speedup: repartitioning pays the interconnect, as on the      paper's cluster.@."

(* ------------------------------------------------------------------ *)
(* Runtime filters: bloom/min-max sideways information passing.        *)

let runtime_filters () =
  (* A budget tight enough that mid-size hash-join builds spill: the
     filter's probe-side pruning then saves partitioning I/O, not just
     per-tuple CPU. *)
  let rf_budget = max 20 (budget_pages / 8) in
  header
    (Fmt.str
       "Runtime filters - join-heavy queries, filters off vs on \
        (mode=off, sf=%g, budget=%d pages)"
       sf rf_budget);
  let catalog =
    Workload.experiment_catalog ~sf
      ~degradations:Workload.paper_degradations ()
  in
  (* both engines share one catalog: identical data, the flag is the only
     difference *)
  let engine_off =
    Engine.create ~budget_pages:rf_budget ~pool_pages:(8 * rf_budget) catalog
  in
  let engine_on =
    Engine.create ~budget_pages:rf_budget ~pool_pages:(8 * rf_budget)
      ~runtime_filters:true catalog
  in
  Fmt.pr "%-5s %6s | %12s %12s %9s %8s  %s@." "query" "joins" "off(ms)"
    "on(ms)" "improv%" "filters" "identical";
  List.iter
    (fun name ->
       let q = Queries.find name in
       let scenario = "rf/" ^ name in
       let off = Engine.run_sql engine_off ~mode:Dispatcher.Off q.Queries.sql in
       let on = Engine.run_sql engine_on ~mode:Dispatcher.Off q.Queries.sql in
       record ~scenario ~mode:"rf-off" ~elapsed_ms:off.Dispatcher.elapsed_ms
         ~switches:off.Dispatcher.switches
         ~collectors:off.Dispatcher.collectors;
       record ~scenario ~mode:"rf-on" ~elapsed_ms:on.Dispatcher.elapsed_ms
         ~switches:on.Dispatcher.switches ~collectors:on.Dispatcher.collectors;
       (* filters must never change the result; plans may differ, so
          compare as multisets *)
       let canon (r : Dispatcher.report) =
         List.sort compare
           (Array.to_list
              (Array.map (Fmt.str "%a" Mqr_storage.Tuple.pp) r.Dispatcher.rows))
       in
       let identical = canon off = canon on in
       Fmt.pr "%-5s %6d | %12.1f %12.1f %8.1f%% %8d  %s@." name
         q.Queries.joins off.Dispatcher.elapsed_ms on.Dispatcher.elapsed_ms
         (pct_improvement ~normal:off.Dispatcher.elapsed_ms
            ~reopt:on.Dispatcher.elapsed_ms)
         (List.length on.Dispatcher.filters)
         (if identical then "yes" else "** MISMATCH **"))
    [ "Q3"; "Q5"; "Q7"; "Q8"; "Q10" ];
  Fmt.pr
    "@.A filter built from a join's finished build side prunes probe-side \
     scans before@.they pay hashing, sorting and partitioning I/O; bloom \
     filters have no false@.negatives and min-max pruning is exact, so \
     results are identical.@."

(* ------------------------------------------------------------------ *)
(* Workload manager: a concurrent batch against the serial baseline, both
   through the query service's round-robin scheduler.  With one slot the
   broker's admission floor is the whole budget, so the serial run gives
   every query all of it, one at a time.                               *)

let wlm () =
  header
    (Fmt.str
       "Workload manager - 4-query batch, serial fixed budget vs shared \
        broker (budget=%d pages)"
       budget_pages);
  let module Service = Mqr_wlm.Service in
  let module Session = Mqr_wlm.Session in
  let run ~max_concurrency ~feedback =
    let svc =
      Service.create
        ~options:
          { Service.default_options with
            Service.max_concurrency;
            policy = Service.Round_robin;
            feedback }
        (engine_for ())
    in
    Service.add_tenant svc ~slo:Session.Batch "batch";
    let session = Service.open_session svc ~tenant:"batch" in
    List.iter
      (fun name ->
         ignore
           (Session.submit ~label:name session (Queries.find name).Queries.sql))
      [ "Q3"; "Q5"; "Q7"; "Q10" ];
    Service.drain svc;
    Service.report svc
  in
  let serial = run ~max_concurrency:1 ~feedback:false in
  let conc = run ~max_concurrency:4 ~feedback:true in
  Fmt.pr "serial (one at a time, all %d pages each):@.%a@.@." budget_pages
    Service.pp_report serial;
  Fmt.pr "concurrent (broker leases over the same %d pages):@.%a@.@."
    budget_pages Service.pp_report conc;
  Fmt.pr "makespan %.1f ms -> %.1f ms  (%.2fx)%s@." serial.Service.makespan_ms
    conc.Service.makespan_ms
    (serial.Service.makespan_ms /. conc.Service.makespan_ms)
    (if conc.Service.makespan_ms < serial.Service.makespan_ms then ""
     else "  ** NO IMPROVEMENT **");
  let total f (r : Service.report) =
    List.fold_left
      (fun acc (s : Session.stmt) ->
         match s.Session.stmt_status with
         | Session.Done d -> acc + f d
         | _ -> acc)
      0 r.Service.statements
  in
  let rec_wl mode (r : Service.report) =
    record ~scenario:"wlm/4q-batch" ~mode ~elapsed_ms:r.Service.makespan_ms
      ~switches:(total (fun d -> d.Dispatcher.switches) r)
      ~collectors:(total (fun d -> d.Dispatcher.collectors) r)
  in
  rec_wl "serial-fixed" serial;
  rec_wl "broker" conc

(* ------------------------------------------------------------------ *)
(* Plan-verifier sanitizer: the static analysis re-runs at every
   decision point and after every mid-query plan switch.  It must find
   zero violations and, being pure analysis, must not move the simulated
   clock by a single tick.                                             *)

let sanitize () =
  header
    (Fmt.str
       "Plan verifier sanitizer - every decision point and plan switch \
        re-verified (sf=%g, budget=%d pages)"
       sf budget_pages);
  let catalog = Workload.experiment_catalog ~sf () in
  (* one catalog, two engines: the sanitizer flag is the only difference *)
  let plain = Engine.create ~budget_pages ~pool_pages catalog in
  let sanitized =
    Engine.create ~budget_pages ~pool_pages
      ~verify_plans:Mqr_analysis.Verifier.Sanitize catalog
  in
  Fmt.pr "%-5s %-8s | %12s %12s %8s %9s %7s  %s@." "query" "mode" "plain(ms)"
    "sanit(ms)" "verifs" "switches" "pages" "identical";
  let mismatches = ref 0 in
  List.iter
    (fun (q : Queries.query) ->
       List.iter
         (fun mode ->
            let scenario = "sanitize/" ^ q.Queries.name in
            let ms = Dispatcher.mode_to_string mode in
            let off = Engine.run_sql plain ~mode q.Queries.sql in
            let on = Engine.run_sql sanitized ~mode q.Queries.sql in
            record ~scenario ~mode:(ms ^ "-plain")
              ~elapsed_ms:off.Dispatcher.elapsed_ms
              ~switches:off.Dispatcher.switches
              ~collectors:off.Dispatcher.collectors;
            record ~scenario ~mode:(ms ^ "-sanitize")
              ~elapsed_ms:on.Dispatcher.elapsed_ms
              ~switches:on.Dispatcher.switches
              ~collectors:on.Dispatcher.collectors;
            let identical =
              on.Dispatcher.elapsed_ms = off.Dispatcher.elapsed_ms
              && on.Dispatcher.filter_pages_held = 0
            in
            if not identical then incr mismatches;
            Fmt.pr "%-5s %-8s | %12.1f %12.1f %8d %9d %7d  %s@."
              q.Queries.name ms off.Dispatcher.elapsed_ms
              on.Dispatcher.elapsed_ms on.Dispatcher.verifications
              on.Dispatcher.switches on.Dispatcher.filter_pages_held
              (if identical then "yes" else "** MISMATCH **"))
         [ Dispatcher.Off; Dispatcher.Full ])
    Queries.all;
  if !mismatches = 0 then
    Fmt.pr
      "@.Verification is pure analysis: zero violations, zero filter pages \
       held, and@.the simulated clock is bit-identical with the sanitizer \
       on.@."
  else Fmt.pr "@.** %d sanitizer mismatches **@." !mismatches

(* ------------------------------------------------------------------ *)
(* Bound-checked re-optimization: estimate-based plan switching versus
   switching gated on provable cost intervals.  Bound-checked mode only
   admits a candidate whose worst-case remaining cost (upper bound of the
   cardinality-bound analysis) beats the current plan's best-case
   remaining cost, so a switch can never lose to estimation error: any
   regression an estimate-based mode shows against memory-only must
   disappear (Q5), while a switch whose margin is provable survives
   (Q7).  The inverse price also shows: a genuinely winning switch whose
   margin is *not* provable is forgone, and the replan-and-check
   overhead at vetoed decision points is still paid (Q8 lands behind
   memory-only).  The whole scenario runs under the sanitizer, so every
   observed cardinality is also cross-checked against its provable
   interval (BND-OBSERVED is a hard error).                            *)

let bounds_scenario () =
  header
    (Fmt.str
       "Bound-checked switching - estimate-based vs guaranteed-win plan \
        switches (sf=%g, budget=%d pages)"
       sf budget_pages);
  let catalog = Workload.experiment_catalog ~sf () in
  let engine =
    Engine.create ~budget_pages ~pool_pages
      ~verify_plans:Mqr_analysis.Verifier.Sanitize catalog
  in
  Fmt.pr "%-5s %-8s | %10s %12s %12s %12s %13s  %s@." "query" "class" "normal"
    "mem-only" "plan-only" "full" "bound-checked" "identical";
  let interesting =
    List.filter
      (fun (q : Queries.query) -> q.Queries.klass <> Queries.Simple)
      Queries.all
  in
  let mismatches = ref 0 in
  List.iter
    (fun (q : Queries.query) ->
       let scenario = "bounds/" ^ q.Queries.name in
       let run mode = time_r ~scenario engine mode q in
       let normal = run Dispatcher.Off in
       let mem = run Dispatcher.Memory_only in
       let plan = run Dispatcher.Plan_only in
       let full = run Dispatcher.Full in
       let bc = run Dispatcher.Bound_checked in
       (* a vetoed or admitted switch must never change the answer; a
          switch re-orders float aggregation, so compare rendered rows
          (%.4f) as multisets rather than raw bit patterns *)
       let canon (r : Dispatcher.report) =
         List.sort compare
           (Array.to_list
              (Array.map (Fmt.str "%a" Mqr_storage.Tuple.pp)
                 r.Dispatcher.rows))
       in
       let identical =
         canon bc = canon normal
         && canon full = canon normal
         && canon plan = canon normal
         && canon mem = canon normal
       in
       if not identical then incr mismatches;
       Fmt.pr "%-5s %-8s | %10.1f %12.1f %12.1f %12.1f %13.1f  %s@."
         q.Queries.name
         (Queries.klass_to_string q.Queries.klass)
         normal.Dispatcher.elapsed_ms mem.Dispatcher.elapsed_ms
         plan.Dispatcher.elapsed_ms full.Dispatcher.elapsed_ms
         bc.Dispatcher.elapsed_ms
         (if identical then "yes" else "** MISMATCH **"))
    interesting;
  if !mismatches = 0 then
    Fmt.pr
      "@.Bound-checked switching admits only switches that are provable \
       wins under the cost@.model: estimate-based regressions against \
       memory-only disappear, unprovable wins@.are forgone (and their \
       replanning overhead still paid), every mode returns the@.same \
       rows, and the sanitizer observed zero out-of-interval \
       cardinalities.@."
  else Fmt.pr "@.** %d result mismatches **@." !mismatches

(* ------------------------------------------------------------------ *)
(* Tracing overhead: the observability subsystem (operator spans,
   decision-point audit ledger, metrics) is pure observation — it never
   charges the simulated clock, so a traced run must produce byte-
   identical result rows and bit-identical simulated elapsed time.  The
   acceptance bar is <= 5% simulated overhead; pure observation gives
   exactly 0%.                                                         *)

let trace_scenario () =
  let module Trace = Mqr_obs.Trace in
  header
    (Fmt.str
       "Tracing overhead - operator spans + audit ledger + metrics on every \
        query (sf=%g, budget=%d pages)"
       sf budget_pages);
  let catalog = Workload.experiment_catalog ~sf () in
  (* one catalog, two engines: the trace collector is the only difference *)
  let plain = Engine.create ~budget_pages ~pool_pages catalog in
  let tr = Trace.create () in
  let traced = Engine.create ~budget_pages ~pool_pages ~trace:tr catalog in
  Fmt.pr "%-5s | %12s %12s %9s %7s %7s  %s@." "query" "plain(ms)" "traced(ms)"
    "overhead" "spans" "ledger" "identical";
  let mismatches = ref 0 in
  let prev_spans = ref 0 and prev_ledger = ref 0 in
  List.iter
    (fun (q : Queries.query) ->
       let scenario = "trace/" ^ q.Queries.name in
       let off = Engine.run_sql plain q.Queries.sql in
       let on = Engine.run_sql traced q.Queries.sql in
       record ~scenario ~mode:"trace-off" ~elapsed_ms:off.Dispatcher.elapsed_ms
         ~switches:off.Dispatcher.switches
         ~collectors:off.Dispatcher.collectors;
       record ~scenario ~mode:"trace-on" ~elapsed_ms:on.Dispatcher.elapsed_ms
         ~switches:on.Dispatcher.switches ~collectors:on.Dispatcher.collectors;
       let spans = List.length (Trace.spans tr) in
       let ledger = List.length (Trace.ledger tr) in
       let identical =
         on.Dispatcher.elapsed_ms = off.Dispatcher.elapsed_ms
         && on.Dispatcher.rows = off.Dispatcher.rows
       in
       if not identical then incr mismatches;
       Fmt.pr "%-5s | %12.1f %12.1f %8.1f%% %7d %7d  %s@." q.Queries.name
         off.Dispatcher.elapsed_ms on.Dispatcher.elapsed_ms
         (100.0
          *. (on.Dispatcher.elapsed_ms -. off.Dispatcher.elapsed_ms)
          /. off.Dispatcher.elapsed_ms)
         (spans - !prev_spans) (ledger - !prev_ledger)
         (if identical then "yes" else "** MISMATCH **");
       prev_spans := spans;
       prev_ledger := ledger)
    Queries.all;
  assert (Trace.open_spans tr = 0);
  if !mismatches = 0 then
    Fmt.pr
      "@.Tracing is pure observation: 0%% simulated overhead, result rows \
       and elapsed@.time byte-identical with the collector attached \
       (%d spans, %d ledger entries).@."
      (List.length (Trace.spans tr))
      (List.length (Trace.ledger tr))
  else Fmt.pr "@.** %d tracing mismatches **@." !mismatches

(* ------------------------------------------------------------------ *)
(* Parallel plans: each query runs with max dop 1 and 4.  The plan
   degrees fix the simulated cost; the workers run inline, so the wall
   columns price the partitioning itself.  The table checks that dop 4
   returns the dop-1 result multiset and that the simulation is
   bit-identical across repetitions.                                    *)

let parallel_scenario () =
  header
    (Fmt.str "Parallel plans - max dop 1 vs 4 (sf=%g, budget=%d pages)" sf
       budget_pages);
  let catalog = Workload.experiment_catalog ~sf () in
  Fmt.pr "%-5s | %3s | %12s %12s %12s %9s %10s  %s@." "query" "dop" "sim(ms)"
    "wall-min(ms)" "wall-med(ms)" "par ops" "peak pages" "identical";
  let canon (r : Dispatcher.report) =
    List.sort compare
      (Array.to_list (Array.map (Fmt.str "%a" Mqr_storage.Tuple.pp)
                        r.Dispatcher.rows))
  in
  let mismatches = ref 0 in
  List.iter
    (fun name ->
       let q = Queries.find name in
       let serial_rows = ref [] in
       List.iter
         (fun max_dop ->
            let opt_options =
              { Mqr_opt.Optimizer.default_options with
                Mqr_opt.Optimizer.planning_mem_pages = max 8 (budget_pages / 2);
                max_dop }
            in
            (* wall-clock noise reduction: repeat the measured run and
               report min and median; the simulation is single-shot (it
               is bit-identical across repetitions, which rep 2+ assert) *)
            let runs =
              List.init wall_reps (fun _ ->
                  let engine =
                    Engine.create ~budget_pages ~pool_pages ~opt_options catalog
                  in
                  let t0 = Unix.gettimeofday () in
                  let r =
                    Engine.run_sql engine ~mode:Dispatcher.Full q.Queries.sql
                  in
                  (r, 1000.0 *. (Unix.gettimeofday () -. t0)))
            in
            let r = fst (List.hd runs) in
            let rep_stable =
              List.for_all
                (fun ((r' : Dispatcher.report), _) ->
                   r'.Dispatcher.rows = r.Dispatcher.rows
                   && r'.Dispatcher.elapsed_ms = r.Dispatcher.elapsed_ms)
                (List.tl runs)
            in
            let wall_min, wall_med = min_median (List.map snd runs) in
            let scenario = Fmt.str "parallel/%s/dop=%d" name max_dop in
            record ~scenario ~mode:"sim" ~elapsed_ms:r.Dispatcher.elapsed_ms
              ~switches:r.Dispatcher.switches
              ~collectors:r.Dispatcher.collectors;
            record ~scenario ~mode:"wall-min" ~elapsed_ms:wall_min
              ~switches:r.Dispatcher.switches
              ~collectors:r.Dispatcher.collectors;
            record ~scenario ~mode:"wall-median" ~elapsed_ms:wall_med
              ~switches:r.Dispatcher.switches
              ~collectors:r.Dispatcher.collectors;
            if max_dop = 1 then serial_rows := canon r;
            let identical = rep_stable && canon r = !serial_rows in
            if not identical then incr mismatches;
            let par_ops =
              List.length
                (List.filter
                   (function _, Dispatcher.Ev_parallel _ -> true | _ -> false)
                   r.Dispatcher.timed_events)
            in
            Fmt.pr "%-5s | %3d | %12.1f %12.1f %12.1f %9d %10d  %s@." name
              max_dop r.Dispatcher.elapsed_ms wall_min wall_med par_ops
              r.Dispatcher.worker_pages_peak
              (if identical then "yes" else "** MISMATCH **"))
         [ 1; 4 ])
    [ "Q3"; "Q5"; "Q10" ];
  if !mismatches = 0 then
    Fmt.pr
      "@.Dop 4 returns the dop-1 result multiset and the simulation is \
       bit-identical@.across repetitions.  Degrees are chosen by the \
       optimizer and charged to the@.simulated clock.@."
  else Fmt.pr "@.** %d parallel mismatches **@." !mismatches

(* ------------------------------------------------------------------ *)
(* Query service: mixed interactive + batch tenants on one engine.  A
   web tenant (interactive SLO) and an etl tenant (batch SLO) share the
   broker; the batch tenant's join-heavy statements
   arrive first and hold the machine.  Round-robin is the batch scheduler
   (FIFO admission, global broker); slo-aware adds EDF admission over
   deadlines plus per-tenant fair-share memory floors, and must pull the
   interactive p99 down without changing a single result row.  Rows are
   checked byte-identical against solo executions, the simulation must be
   bit-identical across repetitions, and the sanitizer
   asserts per-tenant transient pages are zero at every decision point. *)

let service_scenario () =
  let module Service = Mqr_wlm.Service in
  let module Session = Mqr_wlm.Session in
  header
    (Fmt.str
       "Query service - web (interactive) + etl (batch) tenants, \
        round-robin vs slo-aware (sf=%g, budget=%d pages, \
        sanitize on)"
       sf budget_pages);
  let catalog = Workload.experiment_catalog ~sf () in
  let opt_options =
    { Mqr_opt.Optimizer.default_options with
      Mqr_opt.Optimizer.planning_mem_pages = max 8 (budget_pages / 2);
      max_dop = 4 }
  in
  (* (tenant, query, arrival ms): the batch statements land first and
     occupy the machine; interactive statements trickle in behind them *)
  let arrivals =
    [ ("etl", "Q5", 0.0); ("etl", "Q7", 0.0); ("etl", "Q10", 20.0);
      ("etl", "Q8", 30.0); ("web", "Q3", 5.0); ("web", "Q6", 10.0);
      ("web", "Q1", 40.0); ("web", "Q6", 120.0); ("web", "Q3", 250.0);
      ("web", "Q1", 500.0); ("web", "Q6", 900.0); ("web", "Q3", 1500.0) ]
  in
  let arrivals =
    List.stable_sort (fun (_, _, a) (_, _, b) -> compare a b) arrivals
  in
  let render (rows : Mqr_storage.Tuple.t array) =
    Array.to_list (Array.map (Fmt.str "%a" Mqr_storage.Tuple.pp) rows)
  in
  (* solo baseline: each distinct query alone on an otherwise idle
     engine — the service must return exactly these rows per statement *)
  let solo = Hashtbl.create 8 in
  List.iter
    (fun (_, name, _) ->
       if not (Hashtbl.mem solo name) then begin
         let engine =
           Engine.create ~budget_pages ~pool_pages ~opt_options catalog
         in
         let r = Engine.run_sql engine (Queries.find name).Queries.sql in
         Hashtbl.replace solo name (render r.Dispatcher.rows)
       end)
    arrivals;
  let run_once policy =
    let engine =
      Engine.create ~budget_pages ~pool_pages ~opt_options
        ~verify_plans:Mqr_analysis.Verifier.Sanitize catalog
    in
    let options =
      { Service.default_options with
        Service.policy;
        max_concurrency = 3;
        wall_clock = Some Unix.gettimeofday }
    in
    let svc = Service.create ~options engine in
    Service.add_tenant svc ~slo:Session.Interactive "web";
    Service.add_tenant svc ~slo:Session.Batch "etl";
    let sessions = Hashtbl.create 2 in
    Hashtbl.replace sessions "web" (Service.open_session svc ~tenant:"web");
    Hashtbl.replace sessions "etl" (Service.open_session svc ~tenant:"etl");
    let t0 = Unix.gettimeofday () in
    List.iter
      (fun (tenant, name, arrival_ms) ->
         ignore
           (Session.submit ~label:name ~arrival_ms
              (Hashtbl.find sessions tenant)
              (Queries.find name).Queries.sql))
      arrivals;
    Service.drain svc;
    let wall_ms = 1000.0 *. (Unix.gettimeofday () -. t0) in
    let rep = Service.report svc in
    (* byte-identical rows per statement vs its solo execution *)
    let rows_ok =
      List.for_all
        (fun (s : Session.stmt) ->
           match s.Session.stmt_status with
           | Session.Done r ->
             render r.Dispatcher.rows = Hashtbl.find solo s.Session.stmt_label
           | _ -> false)
        rep.Service.statements
    in
    (rep, wall_ms, rows_ok)
  in
  (* the simulated side of a report: everything scheduling could affect;
     must be bit-identical across repetitions *)
  let sim_fingerprint (rep : Service.report) =
    ( rep.Service.makespan_ms,
      List.map
        (fun (slo, (c : Service.class_stats)) ->
           (slo, c.Service.cs_n, c.Service.cs_p50_ms, c.Service.cs_p99_ms,
            c.Service.cs_violations))
        rep.Service.classes,
      List.map
        (fun (s : Session.stmt) ->
           (s.Session.stmt_id, s.Session.stmt_admit_ms,
            s.Session.stmt_finish_ms))
        rep.Service.statements )
  in
  Fmt.pr "%-12s | %10s %9s %9s | %8s %8s | %8s %8s | %4s %4s %5s  %s@."
    "policy" "mksp(sim)" "wall-min" "wall-med" "int-p50" "int-p99" "bat-p50"
    "bat-p99" "viol" "miss" "waits" "rows";
  let mismatches = ref 0 in
  let run_policy policy =
    let runs = List.init wall_reps (fun _ -> run_once policy) in
    let rep, _, _ = List.hd runs in
    let fp = sim_fingerprint rep in
    let ok =
      List.for_all (fun (r, _, rows_ok) -> rows_ok && sim_fingerprint r = fp)
        runs
    in
    if not ok then incr mismatches;
    let wall_min, wall_med = min_median (List.map (fun (_, w, _) -> w) runs) in
    let cls slo = List.assoc slo rep.Service.classes in
    let int_c = cls Session.Interactive and bat_c = cls Session.Batch in
    let sum f = List.fold_left (fun acc t -> acc + f t) 0 rep.Service.tenants in
    let waits = sum (fun t -> t.Service.tns_broker_waits) in
    let replans = sum (fun t -> t.Service.tns_replans) in
    (* terminal statements that never completed by their deadline (late
       completions + failed/cancelled/shed) *)
    let misses = sum (fun t -> t.Service.tns_deadline_miss) in
    let scenario = "service/" ^ Service.policy_to_string policy in
    record ~scenario ~mode:"sim-makespan" ~elapsed_ms:rep.Service.makespan_ms
      ~switches:replans ~collectors:0;
    record ~scenario ~mode:"wall-makespan-min" ~elapsed_ms:wall_min
      ~switches:replans ~collectors:0;
    record ~scenario ~mode:"wall-makespan-median" ~elapsed_ms:wall_med
      ~switches:replans ~collectors:0;
    record ~scenario ~mode:"interactive-p50-sim"
      ~elapsed_ms:int_c.Service.cs_p50_ms ~switches:0 ~collectors:0;
    record ~scenario ~mode:"interactive-p99-sim"
      ~elapsed_ms:int_c.Service.cs_p99_ms ~switches:0 ~collectors:0;
    record ~scenario ~mode:"batch-p99-sim"
      ~elapsed_ms:bat_c.Service.cs_p99_ms ~switches:0 ~collectors:0;
    record ~scenario ~mode:"deadline-misses"
      ~elapsed_ms:(float_of_int misses) ~switches:0 ~collectors:0;
    Fmt.pr
      "%-12s | %10.1f %9.1f %9.1f | %8.1f %8.1f | %8.1f %8.1f | %4d %4d %5d  \
       %s@."
      (Service.policy_to_string policy)
      rep.Service.makespan_ms wall_min wall_med
      int_c.Service.cs_p50_ms int_c.Service.cs_p99_ms
      bat_c.Service.cs_p50_ms bat_c.Service.cs_p99_ms
      (int_c.Service.cs_violations + bat_c.Service.cs_violations)
      misses waits
      (if ok then "yes" else "** MISMATCH **");
    int_c.Service.cs_p99_ms
  in
  let rr = run_policy Service.Round_robin in
  let slo = run_policy Service.Slo_aware in
  Fmt.pr
    "interactive p99 %10.1f ms (round-robin) -> %10.1f ms (slo-aware)  \
     %.2fx%s@."
    rr slo (rr /. slo)
    (if slo < rr then "" else "  ** NO IMPROVEMENT **");
  if !mismatches = 0 then
    Fmt.pr
      "@.Scheduling reads only the virtual timeline: simulated makespans, \
       percentiles and@.per-statement times are bit-identical across \
       repetitions, every statement's rows@.match its solo \
       execution byte-for-byte, and the sanitizer saw zero per-tenant@.\
       transient pages at every decision point.@."
  else Fmt.pr "@.** %d service mismatches **@." !mismatches

(* ------------------------------------------------------------------ *)
(* Progress/ETA estimation: at every decision point the estimator folds
   the simulated clock, the remainder plan's Eq.1 cost and the provable
   remaining-cost interval into percent-done and an ETA interval.
   Attaching it is pure observation, so rows must stay byte-identical
   and simulated times bit-identical.  Accuracy is measured as the error
   of the finish-time forecast made at the FIRST update (the hardest
   one: nothing has executed yet) against the actual finish; every
   update stream must be monotone and land at exactly 100%.            *)

let progress_scenario () =
  let module Progress = Mqr_obs.Progress in
  header
    (Fmt.str
       "Progress/ETA estimation - every query x reopt mode (sf=%g, \
        budget=%d pages)"
       sf budget_pages);
  let modes =
    [ Dispatcher.Off; Dispatcher.Memory_only; Dispatcher.Plan_only;
      Dispatcher.Full; Dispatcher.Bound_checked ]
  in
  Fmt.pr "%-5s %-14s | %10s %12s %8s %7s %7s %9s  %s@." "query" "mode"
    "actual(ms)" "eta@start" "err%" "updates" "cover%" "monotone" "identical";
  let mismatches = ref 0 and non_monotone = ref 0 and runs = ref 0 in
  List.iter
    (fun mode ->
       let catalog = Workload.experiment_catalog ~sf () in
       (* one catalog, two engines: the estimator is the only difference *)
       let plain = Engine.create ~budget_pages ~pool_pages catalog in
       let probed = Engine.create ~budget_pages ~pool_pages catalog in
       List.iter
         (fun (q : Queries.query) ->
            incr runs;
            let off = Engine.run_sql plain ~mode q.Queries.sql in
            let p = Progress.create () in
            let on = Engine.run_sql probed ~mode ~progress:p q.Queries.sql in
            let identical =
              on.Dispatcher.elapsed_ms = off.Dispatcher.elapsed_ms
              && on.Dispatcher.rows = off.Dispatcher.rows
            in
            if not identical then incr mismatches;
            let samples = Progress.samples p in
            let actual = on.Dispatcher.elapsed_ms in
            let monotone =
              Progress.monotone p && Progress.finished p
              && (match Progress.latest p with
                  | Some s -> s.Progress.percent = 100.0
                  | None -> false)
            in
            if not monotone then incr non_monotone;
            let first_est =
              match samples with
              | s :: _ -> s.Progress.ts_ms +. s.Progress.remaining_est_ms
              | [] -> 0.0
            in
            let err_pct =
              100.0 *. Float.abs (first_est -. actual) /. actual
            in
            (* how often the provable ETA interval brackets the truth *)
            let covered =
              List.length
                (List.filter
                   (fun (s : Progress.sample) ->
                      s.Progress.eta_lo_ms <= actual
                      && actual <= s.Progress.eta_hi_ms)
                   samples)
            in
            let cover_pct =
              100.0 *. float_of_int covered
              /. float_of_int (max 1 (List.length samples))
            in
            record ~scenario:("progress/" ^ q.Queries.name)
              ~mode:(Dispatcher.mode_to_string mode)
              ~elapsed_ms:(Float.abs (first_est -. actual))
              ~switches:on.Dispatcher.switches
              ~collectors:(List.length samples);
            Fmt.pr "%-5s %-14s | %10.1f %12.1f %7.1f%% %7d %6.0f%% %9s  %s@."
              q.Queries.name
              (Dispatcher.mode_to_string mode)
              actual first_est err_pct (List.length samples) cover_pct
              (if monotone then "yes" else "** NO **")
              (if identical then "yes" else "** MISMATCH **"))
         Queries.all)
    modes;
  if !mismatches = 0 && !non_monotone = 0 then
    Fmt.pr
      "@.The estimator is pure observation (rows byte-identical, simulated \
       times bit-identical@.with progress attached) and %d/%d update streams \
       were monotone to exactly 100%%.@."
      (!runs - !non_monotone) !runs
  else
    Fmt.pr "@.** %d identity mismatches, %d non-monotone streams **@."
      !mismatches !non_monotone

(* ------------------------------------------------------------------ *)
(* Optimizer cost: the real price of planning each query, next to the
   number of candidates the DP costs (what the simulated clock charges,
   at opt_per_plan_ms each, as Eq. 1's T_opt,estimated).  Each rep plans
   the bound query on a fresh statistics environment, as Engine.explain
   and the benchmark's optimizer probe do; wall time is reported as min
   and median over the reps, allocation as minor words per plan call.
   The digest of the plan text pins the chosen plan, so two builds can be
   checked to plan identically.                                         *)

let opt_reps = 7

let opt_scenario () =
  let module Optimizer = Mqr_opt.Optimizer in
  let module Stats_env = Mqr_opt.Stats_env in
  let module Plan = Mqr_opt.Plan in
  header
    (Fmt.str "Optimizer cost - each query planned %d times (sf=%g)" opt_reps
       sf);
  let engine = engine_for () in
  let cfg = Engine.dispatcher_config engine ~mode:Dispatcher.Full () in
  Fmt.pr "%-5s | %7s %9s %12s %12s %9s %10s  %s@." "query" "plans" "sim(ms)"
    "wall-min(ms)" "wall-med(ms)" "us/plan" "minor(Mw)" "plan digest";
  List.iter
    (fun (q : Queries.query) ->
       let query = Engine.bind_sql engine q.Queries.sql in
       let runs =
         List.init opt_reps (fun _ ->
             let env =
               Stats_env.create cfg.Dispatcher.catalog
                 query.Mqr_sql.Query.relations
             in
             let w0 = Gc.minor_words () in
             let t0 = Unix.gettimeofday () in
             let r =
               Optimizer.optimize ~options:cfg.Dispatcher.opt_options
                 ~model:cfg.Dispatcher.model ~env query
             in
             let wall_ms = 1000.0 *. (Unix.gettimeofday () -. t0) in
             (r, wall_ms, Gc.minor_words () -. w0))
       in
       let r, _, _ = List.hd runs in
       let plans = r.Optimizer.plans_enumerated in
       let sim_ms =
         float_of_int plans
         *. cfg.Dispatcher.model.Mqr_storage.Sim_clock.opt_per_plan_ms
       in
       let wall_min, wall_med =
         min_median (List.map (fun (_, w, _) -> w) runs)
       in
       let _, minor_med = min_median (List.map (fun (_, _, a) -> a) runs) in
       let digest =
         Digest.to_hex (Digest.string (Plan.to_string r.Optimizer.plan))
       in
       record_extra ~scenario:("opt/" ^ q.Queries.name) ~mode:"optimize"
         ~elapsed_ms:sim_ms ~switches:0 ~collectors:0
         ~extra:
           [ ("plans_enumerated", string_of_int plans);
             ("wall_min_ms", Printf.sprintf "%.3f" wall_min);
             ("wall_median_ms", Printf.sprintf "%.3f" wall_med);
             ("minor_words", Printf.sprintf "%.0f" minor_med);
             ("plan_digest", Printf.sprintf "%S" digest) ];
       Fmt.pr "%-5s | %7d %9.1f %12.2f %12.2f %9.2f %10.2f  %s@." q.Queries.name
         plans sim_ms wall_min wall_med
         (1000.0 *. wall_med /. float_of_int (max 1 plans))
         (minor_med /. 1e6) digest)
    Queries.all

(* ------------------------------------------------------------------ *)

let () =
  let which =
    if Array.length Sys.argv > 1 then
      List.tl (Array.to_list Sys.argv)
    else [ "all" ]
  in
  List.iter (fun which ->
  match which with
   | "f10" -> figure10 ()
   | "f11" -> figure11 ()
   | "f12" -> figure12 ()
   | "xfig3" -> xfig3 ()
   | "sens" -> sensitivity ()
   | "overhead" -> overhead ()
   | "joins" -> ablation_joins ()
   | "hist" -> ablation_histograms ()
   | "hybrid" -> hybrid ()
   | "scale" -> scalability ()
   | "rf" -> runtime_filters ()
   | "wlm" -> wlm ()
   | "sanitize" -> sanitize ()
   | "bounds" -> bounds_scenario ()
   | "trace" -> trace_scenario ()
   | "parallel" -> parallel_scenario ()
   | "service" -> service_scenario ()
   | "progress" -> progress_scenario ()
   | "opt" -> opt_scenario ()
   | "figures" ->
     figure10 ();
     figure11 ();
     figure12 ()
   | "all" ->
     figure10 ();
     figure11 ();
     figure12 ();
     xfig3 ();
     sensitivity ();
     overhead ();
     ablation_joins ();
     ablation_histograms ();
     hybrid ();
     scalability ();
     runtime_filters ();
     wlm ();
     sanitize ();
     bounds_scenario ();
     trace_scenario ();
     parallel_scenario ();
     service_scenario ();
     progress_scenario ();
     opt_scenario ()
   | other ->
     Fmt.epr
       "unknown experiment %S (f10 f11 f12 xfig3 sens overhead joins hist \
        hybrid scale rf wlm sanitize bounds trace parallel service progress \
        opt all)@."
       other;
     exit 1)
    which;
  emit_json ()
