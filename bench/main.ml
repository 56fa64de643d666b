(* Benchmark harness: regenerates every data figure of the paper's
   evaluation (Section 3.2) plus the extension experiments listed in
   DESIGN.md.

     dune exec bench/main.exe            -- everything (figures, extensions)
     dune exec bench/main.exe -- figures -- just the paper figures (F10 F11 F12)
     dune exec bench/main.exe -- f10     -- one experiment
     dune exec bench/main.exe -- diff OLD.json NEW.json
                                         -- the sim and count points that moved

   Only a run that includes [all] (the default) rewrites
   BENCH_results.json; a partial run prints its tables and leaves the
   file alone.  A failed cross-check flags its table row, and the run
   then exits 1 without writing the file.

   Experiments report *simulated* milliseconds from the engine's cost
   clock, so results are deterministic and machine-independent.  The
   overhead, parallel, service, opt, collect, storage, hash and dml
   scenarios also report wall-clock min and median over repetitions. *)

module Engine = Mqr_core.Engine
module Dispatcher = Mqr_core.Dispatcher
module Reopt_policy = Mqr_core.Reopt_policy
module Queries = Mqr_tpcd.Queries
module Workload = Mqr_tpcd.Workload
module Datagen = Mqr_tpcd.Datagen
module Catalog = Mqr_catalog.Catalog

(* ------------------------------------------------------------------ *)
(* Cells.  A cell is one operating point: scale factor, memory budget
   (the buffer pool is 8 times it), Zipf skew and statistics
   degradations.  Every simulated scenario runs on a cell through
   [engine], on the cell's one catalog.  [MQR_SF] sets the default sf. *)

type cell = {
  sf : float;
  budget_pages : int;
  skew_z : float;
  degradations : Workload.degradation list;
}

let default_cell =
  let sf = Option.bind (Sys.getenv_opt "MQR_SF") float_of_string_opt in
  let sf = Option.value sf ~default:0.005 in
  (* Memory budget scaled so that complex queries' maximum hash-join
     demands exceed it — the paper's 32 MB-per-node pressure regime. *)
  { sf; budget_pages = max 64 (int_of_float (sf *. 40_000.0)); skew_z = 0.0;
    degradations = Workload.paper_degradations }

(* [f ()] the first time [key] is asked for, the same value after *)
let memo tbl key f =
  try Hashtbl.find tbl key
  with Not_found ->
    let v = f () in
    Hashtbl.add tbl key v;
    v

let catalogs = Hashtbl.create 8

let catalog cell =
  memo catalogs cell (fun () ->
      Workload.experiment_catalog ~sf:cell.sf ~skew_z:cell.skew_z
        ~degradations:cell.degradations ())

(* An engine on [cell]'s catalog.  The optimizer plans each memory
   consumer at half the budget, with operators up to [max_dop] degrees. *)
let engine ?(opt_options = Mqr_opt.Optimizer.default_options) ?(max_dop = 1)
    ?runtime_filters ?trace ?sanitize cell =
  Engine.create ~budget_pages:cell.budget_pages
    ~pool_pages:(8 * cell.budget_pages)
    ~opt_options:
      { opt_options with
        Mqr_opt.Optimizer.planning_mem_pages = max 8 (cell.budget_pages / 2);
        max_dop }
    ?runtime_filters ?trace ?sanitize (catalog cell)

(* the medium and complex queries: the ones re-optimization can change *)
let interesting =
  List.filter
    (fun (q : Queries.query) -> q.Queries.klass <> Queries.Simple)
    Queries.all

let all_modes =
  [ Dispatcher.Off; Dispatcher.Memory_only; Dispatcher.Plan_only;
    Dispatcher.Full; Dispatcher.Bound_checked ]

(* ------------------------------------------------------------------ *)
(* The grid: a query's run on a cell under a mode, simulated once per
   process, when a table first asks for it: a plain engine's report
   ([run]), or the same run with trace, progress and the sanitizer
   attached ([observed]).  A run does not depend on the runs before it,
   so Figures 10-12, xfig3, hist, hybrid, observers and bounds share them. *)

type traced_run = {
  report : Dispatcher.report;
  spans : int;       (* spans the run's trace holds *)
  ledger : int;      (* its audit-ledger entries *)
  open_spans : int;  (* spans left open at the end: 0 *)
  progress : Mqr_obs.Progress.t;
}

let plain_runs = Hashtbl.create 64 and observed_runs = Hashtbl.create 64

let run cell (q : Queries.query) mode =
  memo plain_runs (cell, q.Queries.name, mode) (fun () ->
      Engine.run_sql (engine cell) ~mode q.Queries.sql)

let observed cell (q : Queries.query) mode =
  let module Trace = Mqr_obs.Trace in
  memo observed_runs (cell, q.Queries.name, mode) (fun () ->
      let trace = Trace.create () and progress = Mqr_obs.Progress.create () in
      let report =
        Engine.run_sql
          (engine ~trace ~sanitize:true cell)
          ~mode ~progress q.Queries.sql
      in
      { report;
        spans = List.length (Trace.spans trace);
        ledger = List.length (Trace.ledger trace);
        open_spans = Trace.open_spans trace;
        progress })

(* ------------------------------------------------------------------ *)
(* Machine-readable results: every recorded number lands in
   BENCH_results.json as one typed point, in bench/perf's vocabulary.
   [clock] says what the value measures: the simulated cost clock, the
   wall clock, or a count.  A wall point is a statistic ([min] or
   [median]) over [n] repetitions; a value read off one run has [stat]
   "single" and [n] 1.                                                  *)

type clock = Sim | Wall | Count

type point = {
  scenario : string;
  mode : string;
  metric : string;
  clock : clock;
  unit_ : string;
  value : float;
  stat : string;
  n : int;
}

let points : point list ref = ref []

let record ?(stat = "single") ?(n = 1) ~scenario ~mode clock metric unit_
    value =
  points := { scenario; mode; metric; clock; unit_; value; stat; n } :: !points

let count ~scenario ~mode metric v =
  record ~scenario ~mode Count metric "count" (float_of_int v)

(* a run's simulated elapsed time and its re-optimization counts *)
let record_run ~scenario ~mode (r : Dispatcher.report) =
  record ~scenario ~mode Sim "elapsed" "ms" r.Dispatcher.elapsed_ms;
  count ~scenario ~mode "switches" r.Dispatcher.switches;
  count ~scenario ~mode "collectors" r.Dispatcher.collectors

(* A figure table's read of the grid: [q]'s run on [cell] under [mode]
   (the observed one with [observe]), recorded as the table reads it. *)
let recorded ?(observe = false) ~scenario cell q mode =
  let r = if observe then (observed cell q mode).report else run cell q mode in
  record_run ~scenario ~mode:(Dispatcher.mode_to_string mode) r;
  r

let recorded_ms ~scenario cell q mode =
  (recorded ~scenario cell q mode).Dispatcher.elapsed_ms

(* A header line, then one point per line with every bit of its value:
   dropping the wall and minor-word lines ([grep -v]) leaves the
   deterministic points, which [diff] compares across two builds. *)
let emit_json () =
  let oc = open_out "BENCH_results.json" in
  Printf.fprintf oc
    "{\"sf\": %.17g, \"budget_pages\": %d, \"recommended_domain_count\": \
     %d, \"ocaml\": %S, \"points\": [\n"
    default_cell.sf default_cell.budget_pages
    (Domain.recommended_domain_count ()) Sys.ocaml_version;
  let last = List.length !points - 1 in
  List.iteri
    (fun i p ->
       Printf.fprintf oc
         "  {\"scenario\": %S, \"mode\": %S, \"metric\": %S, \"clock\": %S, \
          \"unit\": %S, \"value\": %.17g, \"stat\": %S, \"n\": %d}%s\n"
         p.scenario p.mode p.metric
         (match p.clock with Sim -> "sim" | Wall -> "wall" | Count -> "count")
         p.unit_ p.value p.stat p.n
         (if i < last then "," else ""))
    (List.rev !points);
  output_string oc "]}\n";
  close_out oc;
  Fmt.pr "@.wrote %d data points to BENCH_results.json@." (last + 1)

(* ------------------------------------------------------------------ *)
(* One timer.  Wall-clock time is noisy, so a measured scenario repeats
   its run, [whole_reps] times for a whole query or workload and
   [op_reps] times for a loop of one operation, and reports the wall
   min (least-interference estimate), the wall median (typical) and the
   median minor words.  [setup] prepares each repetition, untimed.     *)

let whole_reps = 3
let op_reps = 7

type 'a timed = {
  results : 'a list;  (* one per repetition, in order *)
  reps : int;
  wall_min_ms : float;
  wall_med_ms : float;
  words_med : float;
}

let timed reps ~setup run =
  let runs =
    List.init reps (fun _ ->
        let x = setup () in
        let w0 = Gc.minor_words () in
        let t0 = Unix.gettimeofday () in
        let r = run x in
        let wall_ms = 1000.0 *. (Unix.gettimeofday () -. t0) in
        (r, wall_ms, Gc.minor_words () -. w0))
  in
  let sorted f = List.sort compare (List.map f runs) in
  let median f = List.nth (sorted f) (reps / 2) in
  { results = List.map (fun (r, _, _) -> r) runs;
    reps;
    wall_min_ms = List.hd (sorted (fun (_, w, _) -> w));
    wall_med_ms = median (fun (_, w, _) -> w);
    words_med = median (fun (_, _, a) -> a) }

(* Records and returns [t]'s wall min, wall median and minor words: per
   run in ms, or with [per] in ns and words per operation. *)
let record_timed ?per ~scenario ~mode t =
  let metric, unit_, wall_scale, words_scale =
    match per with
    | None -> ("elapsed", "ms", 1.0, 1.0)
    | Some per ->
      let per = float_of_int per in
      ("elapsed_per_op", "ns", 1e6 /. per, 1.0 /. per)
  in
  let wall_min = t.wall_min_ms *. wall_scale
  and wall_med = t.wall_med_ms *. wall_scale
  and words = t.words_med *. words_scale in
  let record = record ~n:t.reps ~scenario ~mode in
  record ~stat:"min" Wall metric unit_ wall_min;
  record ~stat:"median" Wall metric unit_ wall_med;
  record ~stat:"median" Count "minor_words" "words" words;
  (wall_min, wall_med, words)

(* A loop of [per] operations, timed op_reps times and recorded per
   operation: ns min, ns median and minor words. *)
let per_op ~scenario ~mode ~per ~setup f =
  count ~scenario ~mode "ops" per;
  record_timed ~per ~scenario ~mode (timed op_reps ~setup f)

(* ------------------------------------------------------------------ *)
(* One verdict.  Every cross-check goes through [check], which returns
   the table row's verdict cell: "yes", or the invariants the row broke.
   A broken invariant makes the run exit 1 before BENCH_results.json is
   written.                                                             *)

let failures : (string * string * string list) list ref = ref []

let check ~scenario ~row conds =
  match List.filter_map (fun (ok, what) -> if ok then None else Some what)
          conds with
  | [] -> "yes"
  | broken ->
    failures := (scenario, row, broken) :: !failures;
    "** " ^ String.concat ", " broken ^ " **"

(* A scenario's closing paragraph says its invariants held, so it prints
   only if none of its [rows] failed. *)
let conclude ~scenario ~rows paragraph =
  match List.filter (fun (s, _, _) -> s = scenario) !failures with
  | [] -> paragraph ()
  | failed ->
    Fmt.pr "@.** %d of %d %s rows broke an invariant **@."
      (List.length failed) rows scenario

let render (rows : Mqr_storage.Tuple.t array) =
  Array.to_list (Array.map (Fmt.str "%a" Mqr_storage.Tuple.pp) rows)

(* A report's rows rendered and sorted: plans that differ may emit the
   same multiset of rows in a different order. *)
let canon (r : Dispatcher.report) = List.sort compare (render r.Dispatcher.rows)

(* how many of [r]'s events [f] selects *)
let events f (r : Dispatcher.report) =
  List.length (List.filter (fun (_, e) -> f e) r.Dispatcher.timed_events)

let pct_improvement ~normal ~reopt = 100.0 *. (normal -. reopt) /. normal

(* a table's title, followed by the cell it reads, if given *)
let header ?cell title =
  let hr = String.make 78 '-' in
  match cell with
  | None -> Fmt.pr "%s@.%s@.%s@." hr title hr
  | Some c ->
    Fmt.pr "%s@.%s (sf=%g, budget=%d pages)@.%s@." hr title c.sf c.budget_pages
      hr

(* ------------------------------------------------------------------ *)
(* Figure 10: Normal vs Re-Optimized, all seven queries.               *)

let figure10 () =
  let cell = default_cell in
  header
    (Fmt.str
       "Figure 10 - Performance of Dynamic Re-Optimization (sf=%g, \
        budget=%d pages, mu=0.05 theta1=0.05 theta2=0.2)"
       cell.sf cell.budget_pages);
  Fmt.pr "%-5s %-8s %6s | %12s %12s %9s %9s@." "query" "class" "joins"
    "normal(ms)" "reopt(ms)" "improv%" "switches";
  List.iter
    (fun (q : Queries.query) ->
       let report = recorded ~scenario:("f10/" ^ q.Queries.name) cell q in
       let normal = (report Dispatcher.Off).Dispatcher.elapsed_ms in
       let r = report Dispatcher.Full in
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
  List.iter
    (fun (q : Queries.query) ->
       let ms = recorded_ms ~scenario:("f11/" ^ q.Queries.name) default_cell q in
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
  List.iter
    (fun (q : Queries.query) ->
       let ratio skew_z =
         let ms =
           recorded_ms ~scenario:(Fmt.str "f12/%s/z=%g" q.Queries.name skew_z)
             { default_cell with skew_z } q
         in
         let normal = ms Dispatcher.Off in
         ms Dispatcher.Full /. normal
       in
       let r0 = ratio 0.0 in
       let r3 = ratio 0.3 in
       let r6 = ratio 0.6 in
       Fmt.pr "%-5s %-8s | %12.3f %12.3f %12.3f@." q.Queries.name
         (Queries.klass_to_string q.Queries.klass)
         r0 r3 r6)
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
  let report = recorded ~scenario:"xfig3/Q10" default_cell q in
  let off = report Dispatcher.Off in
  let mem = report Dispatcher.Memory_only in
  Fmt.pr "normal:       %10.1f ms@." off.Dispatcher.elapsed_ms;
  Fmt.pr "memory-only:  %10.1f ms@." mem.Dispatcher.elapsed_ms;
  let reallocs = ref 0 and granted = ref 0 in
  List.iter
    (fun (_, ev) ->
       match ev with
       | Dispatcher.Ev_realloc { grants } ->
         Fmt.pr "  %a@." Dispatcher.pp_event ev;
         incr reallocs;
         List.iter
           (fun g -> granted := !granted + g.Mqr_memman.Memory_manager.granted)
           grants
       | _ -> ())
    mem.Dispatcher.timed_events;
  count ~scenario:"xfig3/Q10" ~mode:"memory-only" "reallocs" !reallocs;
  count ~scenario:"xfig3/Q10" ~mode:"memory-only" "granted_pages" !granted

(* ------------------------------------------------------------------ *)
(* Extension X-sens: sensitivity to mu and theta2 (thesis [12]).       *)

let sensitivity () =
  header "Extension - Sensitivity to mu and theta2 (paper defers to [12])";
  (* Q7 is the query whose re-optimization actually switches plans, so the
     thresholds have something to gate *)
  let q = Queries.find "Q7" in
  let engine = engine default_cell in
  let sweep title name params values line =
    Fmt.pr "%s@." title;
    List.iter
      (fun v ->
         let engine = Engine.with_params engine (params v) in
         let r = Engine.run_sql engine ~mode:Dispatcher.Full q.Queries.sql in
         record_run ~scenario:(Fmt.str "sens/Q7/%s=%g" name v) ~mode:"full" r;
         line v r)
      values
  in
  let p = Reopt_policy.default_params in
  sweep "mu sweep (theta1=0.05 theta2=0.2):" "mu"
    (fun mu -> { p with Reopt_policy.mu })
    [ 0.0; 0.01; 0.02; 0.05; 0.10; 0.20 ]
    (fun mu r ->
       Fmt.pr "  mu=%-5.2f -> %10.1f ms  (%d collectors, %d switches)@." mu
         r.Dispatcher.elapsed_ms r.Dispatcher.collectors r.Dispatcher.switches);
  sweep "theta2 sweep (mu=0.05):" "theta2"
    (fun theta2 -> { p with Reopt_policy.theta2 })
    [ 0.05; 0.1; 0.2; 0.4; 0.8; 5.0 ]
    (fun theta2 r ->
       Fmt.pr "  theta2=%-5.2f -> %10.1f ms  (%d switches)@." theta2
         r.Dispatcher.elapsed_ms r.Dispatcher.switches);
  sweep "theta1 sweep (mu=0.05 theta2=0.2):" "theta1"
    (fun theta1 -> { p with Reopt_policy.theta1 })
    [ 0.001; 0.01; 0.05; 0.25 ]
    (fun theta1 r ->
       Fmt.pr "  theta1=%-5.3f -> %10.1f ms  (%d switches)@." theta1
         r.Dispatcher.elapsed_ms r.Dispatcher.switches)

(* ------------------------------------------------------------------ *)
(* Extension X-overhead: simple queries never pay more than mu.  On both
   clocks: the simulated overhead is what SCIA budgets against mu; the
   wall overhead (min and median over whole_reps runs per mode) is what
   the collectors really cost on this machine.                         *)

let overhead () =
  header "Extension - Collection overhead on simple queries is bounded by mu";
  let engine = engine default_cell in
  let pct ~normal ~reopt = 100.0 *. (reopt -. normal) /. normal in
  List.iter
    (fun name ->
       let q = Queries.find name in
       let measure mode =
         let t =
           timed whole_reps ~setup:ignore (fun () ->
               Engine.run_sql engine ~mode q.Queries.sql)
         in
         let r = List.hd t.results in
         let scenario = "overhead/" ^ name
         and mode = Dispatcher.mode_to_string mode in
         record_run ~scenario ~mode r;
         let wall_min, wall_med, words = record_timed ~scenario ~mode t in
         (r.Dispatcher.elapsed_ms, wall_min, wall_med, words)
       in
       let normal, off_min, off_med, off_words = measure Dispatcher.Off in
       let reopt, full_min, full_med, full_words = measure Dispatcher.Full in
       Fmt.pr
         "%-4s normal %10.1f ms, with collectors %10.1f ms -> overhead \
          %5.2f%% (mu = 5%%)@."
         name normal reopt (pct ~normal ~reopt);
       Fmt.pr
         "     wall (%d reps) normal min %.2f med %.2f ms, with collectors \
          min %.2f med %.2f ms -> overhead %5.2f%% (min) %5.2f%% (med)@."
         whole_reps off_min off_med full_min full_med
         (pct ~normal:off_min ~reopt:full_min)
         (pct ~normal:off_med ~reopt:full_med);
       Fmt.pr
         "     minor words per run (median) normal %.3f Mw, with collectors \
          %.3f Mw@."
         (off_words /. 1e6) (full_words /. 1e6))
    [ "Q1"; "Q6" ]

(* ------------------------------------------------------------------ *)
(* Ablation A1: join-algorithm availability.                           *)

let ablation_joins () =
  header "Ablation - join algorithms available to the optimizer (Q5, normal mode)";
  let module O = Mqr_opt.Optimizer in
  let d = O.default_options in
  let variants =
    [ ("all", d);
      ("no index NL join", { d with O.enable_index_join = false });
      ("no merge join", { d with O.enable_merge_join = false });
      ("hash join only",
       { d with O.enable_index_join = false; enable_merge_join = false });
      ("left-deep only", { d with O.enable_bushy = false }) ]
  in
  let q = Queries.find "Q5" in
  List.iter
    (fun (label, opt_options) ->
       let engine = engine ~opt_options default_cell in
       let ms mode =
         let r = Engine.run_sql engine ~mode q.Queries.sql in
         record_run ~scenario:("joins/Q5/" ^ label)
           ~mode:(Dispatcher.mode_to_string mode) r;
         r.Dispatcher.elapsed_ms
       in
       let normal = ms Dispatcher.Off in
       let reopt = ms Dispatcher.Full in
       Fmt.pr "  %-18s normal %10.1f ms   reopt %10.1f ms@." label normal reopt)
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
       let cell =
         { default_cell with
           skew_z = 0.6; degradations = [ Workload.Histogram_kind kind ] }
       in
       let ms =
         recorded_ms
           ~scenario:("hist/Q3/" ^ Mqr_stats.Histogram.kind_to_string kind)
           cell q
       in
       let normal = ms Dispatcher.Off in
       let reopt = ms Dispatcher.Full in
       Fmt.pr "  %-12s normal %10.1f ms   reopt %10.1f ms   ratio %.3f@."
         (Mqr_stats.Histogram.kind_to_string kind)
         normal reopt (reopt /. normal))
    [ Mqr_stats.Histogram.Serial; Mqr_stats.Histogram.Maxdiff;
      Mqr_stats.Histogram.Equi_depth; Mqr_stats.Histogram.Equi_width ]

(* ------------------------------------------------------------------ *)
(* Ablation A3: start-time sampling hybrid (paper Sections 4-5).       *)

let hybrid () =
  header
    "Extension - hybrid: start-time sampling probes + mid-query re-optimization (Q3/Q5/Q8)";
  Fmt.pr "%-5s | %10s %12s %12s %12s@." "query" "normal" "reopt"
    "probe-only" "probe+reopt";
  let engine = engine default_cell in
  List.iter
    (fun name ->
       let q = Queries.find name in
       let scenario = "hybrid/" ^ name in
       let ms = recorded_ms ~scenario default_cell q in
       let probed label mode =
         let r = Engine.run_sql engine ~mode ~probe_rows:64 q.Queries.sql in
         record_run ~scenario ~mode:label r;
         r.Dispatcher.elapsed_ms
       in
       let normal = ms Dispatcher.Off in
       let reopt = ms Dispatcher.Full in
       let probe_only = probed "probe-only" Dispatcher.Off in
       let probe_reopt = probed "probe+reopt" Dispatcher.Full in
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
    "Extension - partitioned-parallel substrate: join speedup by degree (Paradise ran on 4 nodes)";
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
            ~build:(build, schema "r") ~probe:(Mqr_exec.Leaf.of_rows probe, schema "l")
            ~keys:[ ("l.a", "r.a") ] ());
       let t = Exec_ctx.elapsed_ms ctx in
       record ~scenario:(Fmt.str "scale/degree=%d" degree) ~mode:"hash-join"
         Sim "elapsed" "ms" t;
       if degree = 1 then base := t;
       Fmt.pr "  degree %d: %10.1f ms   speedup %.2fx@." degree t (!base /. t))
    [ 1; 2; 4; 8 ];
  Fmt.pr
    "@.Sub-linear speedup: repartitioning pays the interconnect, as on the paper's cluster.@."

(* ------------------------------------------------------------------ *)
(* Runtime filters: bloom/min-max sideways information passing.        *)

let runtime_filters () =
  (* A budget tight enough that mid-size hash-join builds spill: the
     filter's probe-side pruning then saves partitioning I/O, not just
     per-tuple CPU. *)
  let cell =
    { default_cell with budget_pages = max 20 (default_cell.budget_pages / 8) }
  in
  header
    (Fmt.str
       "Runtime filters - join-heavy queries, filters off vs on \
        (mode=off, sf=%g, budget=%d pages)"
       cell.sf cell.budget_pages);
  (* the filtered engine shares the cell's catalog with the grid's run:
     identical data, the flag is the only difference *)
  let engine_on = engine ~runtime_filters:true cell in
  Fmt.pr "%-5s %6s | %12s %12s %9s %8s  %s@." "query" "joins" "off(ms)"
    "on(ms)" "improv%" "filters" "identical";
  List.iter
    (fun name ->
       let q = Queries.find name in
       let scenario = "rf/" ^ name in
       let off = run cell q Dispatcher.Off in
       let on = Engine.run_sql engine_on ~mode:Dispatcher.Off q.Queries.sql in
       record_run ~scenario ~mode:"rf-off" off;
       record_run ~scenario ~mode:"rf-on" on;
       (* filters must never change the result; plans may differ, so
          compare as multisets *)
       let identical =
         check ~scenario:"rf" ~row:name [ (canon off = canon on, "rows") ]
       in
       Fmt.pr "%-5s %6d | %12.1f %12.1f %8.1f%% %8d  %s@." name
         q.Queries.joins off.Dispatcher.elapsed_ms on.Dispatcher.elapsed_ms
         (pct_improvement ~normal:off.Dispatcher.elapsed_ms
            ~reopt:on.Dispatcher.elapsed_ms)
         (events (function Dispatcher.Ev_filter _ -> true | _ -> false) on)
         identical)
    [ "Q3"; "Q5"; "Q7"; "Q8"; "Q10" ];
  conclude ~scenario:"rf" ~rows:5 @@ fun () ->
  Fmt.pr
    "@.A filter built from a join's finished build side prunes probe-side \
     scans before@.they pay hashing, sorting and partitioning I/O; bloom \
     filters have no false@.negatives and min-max pruning is exact, so \
     results are identical.@."

(* ------------------------------------------------------------------ *)
(* Workload manager: a concurrent batch against the serial baseline, both
   through the query service, one batch tenant stepped round-robin.  With
   one slot the broker's admission floor is the whole budget, so the
   serial run gives every query all of it, one at a time.              *)

let wlm () =
  header
    (Fmt.str
       "Workload manager - 4-query batch, serial fixed budget vs shared \
        broker (budget=%d pages)"
       default_cell.budget_pages);
  let module Service = Mqr_wlm.Service in
  let module Session = Mqr_wlm.Session in
  let run ~max_concurrency ~feedback =
    let svc =
      Service.create
        ~options:
          { Service.default_options with Service.max_concurrency; feedback }
        (engine default_cell)
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
  Fmt.pr "serial (one at a time, all %d pages each):@.%a@.@."
    default_cell.budget_pages Service.pp_report serial;
  Fmt.pr "concurrent (broker leases over the same %d pages):@.%a@.@."
    default_cell.budget_pages Service.pp_report conc;
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
    let scenario = "wlm/4q-batch" in
    record ~scenario ~mode Sim "makespan" "ms" r.Service.makespan_ms;
    count ~scenario ~mode "switches" (total (fun d -> d.Dispatcher.switches) r);
    count ~scenario ~mode "collectors"
      (total (fun d -> d.Dispatcher.collectors) r)
  in
  rec_wl "serial-fixed" serial;
  rec_wl "broker" conc

(* ------------------------------------------------------------------ *)
(* Observers: tracing (spans, audit ledger, metrics), progress/ETA
   estimation and the plan-verifier sanitizer are pure observation.  Each
   query x mode's observed run must match its plain run: rows and
   simulated elapsed bit-identical, every span closed, the progress
   stream monotone to exactly 100%, no filter page held.  The table shows
   spans, ledger entries, verifications, the error of the finish-time
   forecast at the first progress update, and how often the provable ETA
   interval covered the actual finish.                                  *)

let observers_scenario () =
  let module Progress = Mqr_obs.Progress in
  let cell = default_cell in
  header ~cell
    "Observers - trace + progress + sanitizer on every query x reopt mode";
  Fmt.pr "%-5s %-14s | %10s %6s %7s %7s %12s %7s %7s  %s@." "query" "mode"
    "actual(ms)" "spans" "ledger" "verifs" "eta@start" "err%" "cover%"
    "identical";
  let runs =
    List.concat_map (fun mode -> List.map (fun q -> (q, mode)) Queries.all)
      all_modes
  in
  List.iter
    (fun ((q : Queries.query), mode) ->
       let off = run cell q mode and o = observed cell q mode in
       let on = o.report and p = o.progress in
       let actual = on.Dispatcher.elapsed_ms in
       let samples = Progress.samples p in
       let first_est =
         match samples with
         | s :: _ -> s.Progress.ts_ms +. s.Progress.remaining_est_ms
         | [] -> 0.0
       in
       let covers (s : Progress.sample) =
         s.Progress.eta_lo_ms <= actual && actual <= s.Progress.eta_hi_ms
       in
       let cover_pct =
         100.0 *. float_of_int (List.length (List.filter covers samples))
         /. float_of_int (max 1 (List.length samples))
       in
       let mode = Dispatcher.mode_to_string mode in
       let verdict =
         check ~scenario:"observers" ~row:(q.Queries.name ^ " " ^ mode)
           [ (on.Dispatcher.rows = off.Dispatcher.rows, "rows");
             (actual = off.Dispatcher.elapsed_ms, "elapsed");
             (o.open_spans = 0, "open spans");
             ( Progress.monotone p && Progress.finished p
               && (match Progress.latest p with
                   | Some s -> s.Progress.percent = 100.0
                   | None -> false),
               "progress" );
             (on.Dispatcher.filter_pages_held = 0, "filter pages") ]
       in
       let scenario = "observers/" ^ q.Queries.name in
       record_run ~scenario ~mode on;
       count ~scenario ~mode "spans" o.spans;
       count ~scenario ~mode "ledger" o.ledger;
       count ~scenario ~mode "verifications" on.Dispatcher.verifications;
       record ~scenario ~mode Sim "eta_error" "ms"
         (Float.abs (first_est -. actual));
       record ~scenario ~mode Count "eta_cover" "%" cover_pct;
       Fmt.pr "%-5s %-14s | %10.1f %6d %7d %7d %12.1f %6.1f%% %6.0f%%  %s@."
         q.Queries.name mode actual o.spans o.ledger
         on.Dispatcher.verifications first_est
         (100.0 *. Float.abs (first_est -. actual) /. actual)
         cover_pct verdict)
    runs;
  let total f =
    List.fold_left (fun acc (q, mode) -> acc + f (observed cell q mode)) 0 runs
  in
  conclude ~scenario:"observers" ~rows:(List.length runs) @@ fun () ->
  Fmt.pr
    "@.The observers are pure: in %d runs rows and simulated elapsed \
     time are bit-identical@.with trace, progress and sanitizer \
     attached, every span closed (%d spans, %d ledger@.entries), every \
     progress stream monotone to exactly 100%%, no filter page held.@."
    (List.length runs)
    (total (fun o -> o.spans))
    (total (fun o -> o.ledger))

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
   memory-only).  The observed runs are sanitized, so every observed
   cardinality is checked against its provable interval too.           *)

let bounds_scenario () =
  let cell = default_cell in
  header ~cell
    "Bound-checked switching - estimate-based vs guaranteed-win plan \
     switches";
  Fmt.pr "%-5s %-8s | %10s %12s %12s %12s %13s  %s@." "query" "class" "normal"
    "mem-only" "plan-only" "full" "bound-checked" "identical";
  List.iter
    (fun (q : Queries.query) ->
       let run =
         recorded ~observe:true ~scenario:("bounds/" ^ q.Queries.name) cell q
       in
       let normal = run Dispatcher.Off in
       let mem = run Dispatcher.Memory_only in
       let plan = run Dispatcher.Plan_only in
       let full = run Dispatcher.Full in
       let bc = run Dispatcher.Bound_checked in
       (* a vetoed or admitted switch must never change the answer; a
          switch re-orders float aggregation, so compare rendered rows
          (%.4f) as multisets rather than raw bit patterns *)
       let identical =
         check ~scenario:"bounds" ~row:q.Queries.name
           [ ( List.for_all
                 (fun r -> canon r = canon normal)
                 [ bc; full; plan; mem ],
               "rows" ) ]
       in
       Fmt.pr "%-5s %-8s | %10.1f %12.1f %12.1f %12.1f %13.1f  %s@."
         q.Queries.name
         (Queries.klass_to_string q.Queries.klass)
         normal.Dispatcher.elapsed_ms mem.Dispatcher.elapsed_ms
         plan.Dispatcher.elapsed_ms full.Dispatcher.elapsed_ms
         bc.Dispatcher.elapsed_ms identical)
    interesting;
  (* Eq. 1's T_opt,estimated against what each re-plan really charged
     (plans enumerated x opt_per_plan_ms), from the decision ledger *)
  Fmt.pr "@.%-5s %-14s %-8s | %12s %8s %12s %9s@." "query" "mode" "outcome"
    "t_opt_est" "plans" "charged(ms)" "charged/est";
  List.iter
    (fun (q : Queries.query) ->
       List.iter
         (fun mode ->
            let row outcome est plans charged =
              Fmt.pr "%-5s %-14s %-8s | %12.1f %8d %12.1f %9.1f@."
                q.Queries.name (Dispatcher.mode_to_string mode) outcome est
                plans charged (charged /. est)
            in
            ignore
              (List.fold_left
                 (fun est (_, ev) ->
                    match ev with
                    | Dispatcher.Ev_considered t ->
                      t.Reopt_policy.t_opt_estimated
                    | Dispatcher.Ev_switched { plans_enumerated; opt_ms; _ } ->
                      row "switched" est plans_enumerated opt_ms;
                      est
                    | Dispatcher.Ev_rejected { plans_enumerated; opt_ms; _ } ->
                      row "rejected" est plans_enumerated opt_ms;
                      est
                    | _ -> est)
                 Float.nan (observed cell q mode).report.Dispatcher.timed_events))
         [ Dispatcher.Plan_only; Dispatcher.Full; Dispatcher.Bound_checked ])
    interesting;
  conclude ~scenario:"bounds" ~rows:(List.length interesting) @@ fun () ->
  Fmt.pr
    "@.Bound-checked switching admits only switches that are provable \
     wins under the cost@.model: estimate-based regressions against \
     memory-only disappear, unprovable wins@.are forgone (and their \
     replanning overhead still paid), every mode returns the@.same \
     rows, and the sanitizer observed zero out-of-interval \
     cardinalities.@."

(* ------------------------------------------------------------------ *)
(* Parallel plans: each query runs with max dop 1 and 4.  The plan
   degrees fix the simulated cost; the workers run inline, so the wall
   columns price the partitioning itself.  The table checks that dop 4
   returns the dop-1 result multiset and that the simulation is
   bit-identical across repetitions.                                    *)

let parallel_scenario () =
  header ~cell:default_cell "Parallel plans - max dop 1 vs 4";
  Fmt.pr "%-5s | %3s | %12s %12s %12s %9s %10s  %s@." "query" "dop" "sim(ms)"
    "wall-min(ms)" "wall-med(ms)" "par ops" "peak pages" "identical";
  List.iter
    (fun name ->
       let q = Queries.find name in
       let dop1 = canon (run default_cell q Dispatcher.Full) in
       List.iter
         (fun max_dop ->
            (* each repetition on a fresh engine: the simulation must be
               bit-identical across them *)
            let t =
              timed whole_reps
                ~setup:(fun () -> engine ~max_dop default_cell)
                (fun engine ->
                   Engine.run_sql engine ~mode:Dispatcher.Full q.Queries.sql)
            in
            let r = List.hd t.results in
            let scenario = Fmt.str "parallel/%s/dop=%d" name max_dop in
            record_run ~scenario ~mode:"full" r;
            let wall_min, wall_med, _ = record_timed ~scenario ~mode:"full" t in
            let identical =
              check ~scenario:"parallel" ~row:(Fmt.str "%s dop %d" name max_dop)
                [ (canon r = dop1, "rows");
                  ( List.for_all
                      (fun (r' : Dispatcher.report) ->
                         r'.Dispatcher.rows = r.Dispatcher.rows
                         && r'.Dispatcher.elapsed_ms = r.Dispatcher.elapsed_ms)
                      t.results,
                    "repetitions" ) ]
            in
            let par_ops =
              events (function Dispatcher.Ev_parallel _ -> true | _ -> false) r
            in
            Fmt.pr "%-5s | %3d | %12.1f %12.1f %12.1f %9d %10d  %s@." name
              max_dop r.Dispatcher.elapsed_ms wall_min wall_med par_ops
              r.Dispatcher.worker_pages_peak identical)
         [ 1; 4 ])
    [ "Q3"; "Q5"; "Q10" ];
  conclude ~scenario:"parallel" ~rows:6 @@ fun () ->
  Fmt.pr
    "@.Dop 4 returns the dop-1 result multiset and the simulation is \
     bit-identical@.across repetitions.  Degrees are chosen by the \
     optimizer and charged to the@.simulated clock.@."

(* ------------------------------------------------------------------ *)
(* Query service: mixed interactive + batch tenants on one engine.  A
   web tenant (interactive SLO) and an etl tenant (batch SLO) share the
   broker; the batch tenant's join-heavy statements
   arrive first and hold the machine.  The service admits and steps
   earliest deadline first, so the interactive statements overtake the
   batch work without changing a single result row.  Rows are
   checked byte-identical against solo executions, the simulation must be
   bit-identical across repetitions, and the sanitizer
   asserts per-tenant transient pages are zero at every decision point. *)

let service_scenario () =
  let module Service = Mqr_wlm.Service in
  let module Session = Mqr_wlm.Session in
  header
    (Fmt.str
       "Query service - web (interactive) + etl (batch) tenants (sf=%g, \
        budget=%d pages, sanitize on)"
       default_cell.sf default_cell.budget_pages);
  (* (tenant, query, arrival ms) in arrival order: the batch statements
     land first and occupy the machine; interactive statements trickle in
     behind them *)
  let arrivals =
    [ ("etl", "Q5", 0.0); ("etl", "Q7", 0.0); ("web", "Q3", 5.0);
      ("web", "Q6", 10.0); ("etl", "Q10", 20.0); ("etl", "Q8", 30.0);
      ("web", "Q1", 40.0); ("web", "Q6", 120.0); ("web", "Q3", 250.0);
      ("web", "Q1", 500.0); ("web", "Q6", 900.0); ("web", "Q3", 1500.0) ]
  in
  (* solo baseline: each distinct query alone on an otherwise idle
     engine — the service must return exactly these rows per statement *)
  let solo = Hashtbl.create 8 in
  let solo name =
    memo solo name (fun () ->
        let engine = engine ~max_dop:4 default_cell in
        render
          (Engine.run_sql engine (Queries.find name).Queries.sql).Dispatcher.rows)
  in
  (* a fresh engine and service per repetition; the timer covers
     submission and the drain *)
  let setup () =
    let engine =
      engine ~max_dop:4 ~sanitize:true
        default_cell
    in
    let options = { Service.default_options with max_concurrency = 3 } in
    let svc = Service.create ~options engine in
    Service.add_tenant svc ~slo:Session.Interactive "web";
    Service.add_tenant svc ~slo:Session.Batch "etl";
    (svc,
     List.map
       (fun tenant -> (tenant, Service.open_session svc ~tenant))
       [ "web"; "etl" ])
  in
  let run (svc, sessions) =
    List.iter
      (fun (tenant, name, arrival_ms) ->
         ignore
           (Session.submit ~label:name ~arrival_ms
              (List.assoc tenant sessions)
              (Queries.find name).Queries.sql))
      arrivals;
    Service.drain svc;
    svc
  in
  (* each statement's rows vs its solo execution: byte-identical when its
     query has an ORDER BY, else the same multiset (sorted as [canon]),
     since SQL fixes no order there and another plan or memory grant may
     feed the rows in another order *)
  let ordered name =
    (Mqr_sql.Parser.parse (Queries.find name).Queries.sql).Mqr_sql.Ast.order_by <> []
  in
  let solo_rows (rep : Service.report) =
    List.for_all
      (fun (s : Session.stmt) ->
         match s.Session.stmt_status with
         | Session.Done r ->
           let name = s.Session.stmt_label in
           if ordered name then render r.Dispatcher.rows = solo name
           else
             List.sort compare (render r.Dispatcher.rows)
             = List.sort compare (solo name)
         | _ -> false)
      rep.Service.statements
  in
  (* the simulated side of a report: everything scheduling could affect;
     must be bit-identical across repetitions *)
  let sim_fingerprint (rep : Service.report) =
    ( rep.Service.makespan_ms,
      rep.Service.classes,
      List.map
        (fun (s : Session.stmt) ->
           (s.Session.stmt_id, s.Session.stmt_admit_ms, s.Session.stmt_finish_ms))
        rep.Service.statements )
  in
  Fmt.pr "%-12s | %10s %9s %9s | %8s %8s | %8s %8s | %4s %4s %5s  %s@."
    "rule" "mksp(sim)" "wall-min" "wall-med" "int-p50" "int-p99" "bat-p50"
    "bat-p99" "viol" "miss" "waits" "rows";
  let t = timed whole_reps ~setup run in
  let reps = List.map Service.report t.results in
  let rep = List.hd reps in
  let ok =
    check ~scenario:"service" ~row:"slo-aware"
      [ (List.for_all solo_rows reps, "solo rows");
        ( List.for_all
            (fun r -> sim_fingerprint r = sim_fingerprint rep)
            reps,
          "repetitions" ) ]
  in
  let cls slo = List.assoc slo rep.Service.classes in
  let int_c = cls Session.Interactive and bat_c = cls Session.Batch in
  let sum f = List.fold_left (fun acc t -> acc + f t) 0 rep.Service.tenants in
  let waits = sum (fun t -> t.Service.tns_broker_waits) in
  let replans = sum (fun t -> t.Service.tns_replans) in
  (* terminal statements that never completed by their deadline (late
     completions + failed/cancelled/shed) *)
  let misses = sum (fun t -> t.Service.tns_deadline_miss) in
  let scenario = "service" and mode = "slo-aware" in
  record ~scenario ~mode Sim "makespan" "ms" rep.Service.makespan_ms;
  let wall_min, wall_med, _ = record_timed ~scenario ~mode t in
  count ~scenario ~mode "replans" replans;
  let latency name (c : Service.class_stats) =
    List.iter
      (fun (stat, v) ->
         record ~stat ~n:c.Service.cs_n ~scenario ~mode Sim
           (name ^ "_latency") "ms" v)
      [ ("p50", c.Service.cs_p50_ms); ("p99", c.Service.cs_p99_ms) ]
  in
  latency "interactive" int_c;
  latency "batch" bat_c;
  count ~scenario ~mode "deadline_misses" misses;
  Fmt.pr
    "%-12s | %10.1f %9.1f %9.1f | %8.1f %8.1f | %8.1f %8.1f | %4d %4d %5d  \
     %s@."
    mode rep.Service.makespan_ms wall_min wall_med
    int_c.Service.cs_p50_ms int_c.Service.cs_p99_ms
    bat_c.Service.cs_p50_ms bat_c.Service.cs_p99_ms
    (int_c.Service.cs_violations + bat_c.Service.cs_violations)
    misses waits ok;
  conclude ~scenario:"service" ~rows:1 @@ fun () ->
  Fmt.pr
    "@.Scheduling reads only the virtual timeline: simulated makespans, \
     percentiles and@.per-statement times are bit-identical across \
     repetitions, every statement's rows@.match its solo \
     execution (byte-for-byte under ORDER BY, else as a multiset), and@.\
     the sanitizer saw zero per-tenant transient pages at every decision \
     point.@."

(* ------------------------------------------------------------------ *)
(* Optimizer cost: the real price of planning each query, next to the
   number of candidates the DP considers (what the simulated clock
   charges, at opt_per_plan_ms each) and Eq. 1's T_opt,estimated for the
   query's relation count, with their ratio.  Each rep plans
   the bound query on a fresh statistics environment, as Engine.explain
   and the benchmark's optimizer probe do; wall time is reported as min
   and median over the reps, allocation as minor words per plan call.
   The digest of the plan text pins the chosen plan, so two builds can be
   checked to plan identically.  Every rep must plan as the first one
   did, to the digest and the plans enumerated: nothing the optimizer
   keeps may carry from one call to the next.                           *)

let opt_scenario () =
  let module Optimizer = Mqr_opt.Optimizer in
  let module Stats_env = Mqr_opt.Stats_env in
  let module Plan = Mqr_opt.Plan in
  header
    (Fmt.str "Optimizer cost - each query planned %d times (sf=%g)" op_reps
       default_cell.sf);
  let engine = engine default_cell in
  let cfg = Engine.dispatcher_config engine ~mode:Dispatcher.Full () in
  Fmt.pr "%-5s | %7s %9s %9s %7s %12s %12s %9s %10s  %-32s  %s@." "query"
    "plans" "sim(ms)" "est(ms)" "est/sim" "wall-min(ms)" "wall-med(ms)"
    "us/plan" "minor(Mw)" "plan digest" "reps agree";
  List.iter
    (fun (q : Queries.query) ->
       let query = Engine.bind_sql engine q.Queries.sql in
       let t =
         timed op_reps
           ~setup:(fun () ->
               Stats_env.create cfg.Dispatcher.catalog
                 query.Mqr_sql.Query.relations)
           (fun env ->
              Optimizer.optimize ~options:cfg.Dispatcher.opt_options ~env query)
       in
       let r = List.hd t.results in
       let plans = r.Optimizer.plans_enumerated in
       let digest_of (r : Optimizer.result) =
         Digest.to_hex (Digest.string (Plan.to_string r.Optimizer.plan))
       in
       let digest = digest_of r in
       let agree =
         check ~scenario:"opt" ~row:q.Queries.name
           [ ( List.for_all
                 (fun r -> String.equal (digest_of r) digest)
                 t.results,
               "a rep planned another plan" );
             ( List.for_all
                 (fun (r : Optimizer.result) ->
                    r.Optimizer.plans_enumerated = plans)
                 t.results,
               "a rep enumerated another count" ) ]
       in
       let sim_ms = Mqr_storage.Sim_clock.optimizer_ms ~plans in
       let relations = List.length query.Mqr_sql.Query.relations in
       let est_ms = Optimizer.estimated_opt_ms ~relations in
       let est_ratio = est_ms /. sim_ms in
       let scenario = "opt/" ^ q.Queries.name and mode = "optimize" in
       record ~scenario ~mode Sim "elapsed" "ms" sim_ms;
       count ~scenario ~mode "plans_enumerated" plans;
       record ~scenario ~mode Sim "opt_estimated" "ms" est_ms;
       record ~scenario ~mode Count "estimated_ratio" "ratio" est_ratio;
       let wall_min, wall_med, minor_med = record_timed ~scenario ~mode t in
       Fmt.pr
         "%-5s | %7d %9.1f %9.1f %7.3f %12.2f %12.2f %9.2f %10.2f  %s  %s@."
         q.Queries.name plans sim_ms est_ms est_ratio wall_min wall_med
         (1000.0 *. wall_med /. float_of_int (max 1 plans))
         (minor_med /. 1e6) digest agree)
    Queries.all

(* ------------------------------------------------------------------ *)
(* Statistics upkeep on the wall clock: what each statistic a collector
   keeps costs per value, on lineitem columns at sf 0.02.  [min/max] is
   [Collector.ranges] over the column (the pass a temp table's free
   statistics run); the feeds offer every non-null value to one reservoir
   or one distinct counter; [sample] reads the same sample as the
   reservoir at the ordinals [Reservoir.positions] schedules (the
   collector's way); [histogram] is one MaxDiff build over a
   collector-sized reservoir sample, per sample value; [collect] is
   [Collector.collect] with a histogram and a distinct count on the
   column, over the rows and over the scan leaf ([collect-coded]).  The
   [q3-leaf] and [q1-leaf] rows are the collectors Q3 and Q1 run over
   lineitem's scan leaf filtered on l_shipdate, per leaf row: a histogram
   and a distinct count on l_orderkey (payloads), and distinct counts on
   l_returnflag and l_linestatus (codes).  The [rng] row is one [Rng.int]
   draw, the step behind every reservoir replacement (and datagen and
   sampling).  Min and median over
   op_reps runs, minor words per value from the median-allocating run. *)

let collect_scenario () =
  let module Value = Mqr_storage.Value in
  let module Schema = Mqr_storage.Schema in
  let module Heap_file = Mqr_storage.Heap_file in
  let module Collector = Mqr_exec.Collector in
  let module Reservoir = Mqr_stats.Reservoir in
  let module Distinct = Mqr_stats.Distinct in
  let module Histogram = Mqr_stats.Histogram in
  let sf = 0.02 and builds = 50 in
  header
    (Fmt.str "Statistics upkeep - wall ns per value on lineitem (sf=%g, %d reps)"
       sf op_reps);
  let catalog = Datagen.generate { Datagen.default with Datagen.sf } in
  let heap = (Catalog.find_exn catalog "lineitem").Catalog.heap in
  let schema = Schema.qualify (Heap_file.schema heap) "l" in
  let rows = Array.init (Heap_file.tuple_count heap) (Heap_file.get heap) in
  let ctx = Mqr_exec.Exec_ctx.create () in
  let leaf = Mqr_exec.Leaf.scan ctx heap and plain = Mqr_exec.Leaf.of_rows rows in
  Fmt.pr "%-16s %-10s %8s %10s %10s %10s@." "column" "statistic" "values"
    "ns-min" "ns-med" "words";
  let row col stat per f =
    let ns_min, ns_med, words =
      per_op ~scenario:("collect/" ^ col) ~mode:stat ~per ~setup:ignore f
    in
    Fmt.pr "%-16s %-10s %8d %10.2f %10.2f %10.3f@." col stat per ns_min ns_med
      words
  in
  List.iter
    (fun col ->
       let name = "l." ^ col in
       let i = Schema.index_of schema name in
       let values =
         Array.of_list
           (List.filter_map
              (fun (t : Mqr_storage.Tuple.t) ->
                 if Value.is_null t.(i) then None else Some t.(i))
              (Array.to_list rows))
       in
       let n = Array.length values in
       let sample =
         let r = Reservoir.create ~capacity:(Heap_file.page_size_bytes / 8) () in
         Array.iter (Reservoir.add r) values;
         fst (Mqr_catalog.Column_stats.encode (Reservoir.sample r))
       in
       let spec = Collector.spec ~hist_cols:[ name ] ~distinct_cols:[ name ] () in
       List.iter
         (fun (stat, per, f) -> row col stat per f)
         [ ( "min/max", n,
             fun () -> ignore (Collector.ranges schema ~columns:[ name ] rows) );
           ( "reservoir", n,
             fun () ->
               let r =
                 Reservoir.create ~capacity:(Heap_file.page_size_bytes / 8) ()
               in
               Array.iter (Reservoir.add r) values );
           ( "sample", n,
             fun () ->
               let ords =
                 Reservoir.positions ~capacity:(Heap_file.page_size_bytes / 8) n
               in
               ignore (Array.map (Array.get values) ords) );
           ( "distinct", n,
             fun () ->
               let d = Distinct.create () in
               Array.iter (Distinct.add d) values );
           ( "histogram", builds * Array.length sample,
             fun () ->
               for _ = 1 to builds do
                 ignore (Histogram.build Histogram.Maxdiff ~buckets:32 sample)
               done );
           ( "collect", n,
             fun () -> ignore (Collector.collect ctx schema spec plain) );
           ( "collect-coded", n,
             fun () -> ignore (Collector.collect ctx schema spec leaf) ) ])
    [ "l_orderkey"; "l_quantity"; "l_extendedprice"; "l_shipdate"; "l_shipmode" ];
  (* Collectors as Q3 and Q1 run them, over lineitem's own scan leaf
     filtered on l_shipdate: its positions pick scattered rows, which the
     whole-table rows above read in order. *)
  List.iter
    (fun (col, stat, filter, spec) ->
       let filtered =
         Mqr_exec.Leaf.filter ctx schema (Mqr_sql.Parser.parse_expr filter) leaf
       in
       row col stat (Mqr_exec.Leaf.length filtered) (fun () ->
           ignore (Collector.collect ctx schema spec filtered)))
    [ ( "q3-leaf", "orderkey", "l.l_shipdate > date '1995-03-15'",
        Collector.spec ~hist_cols:[ "l.l_orderkey" ] ~distinct_cols:[ "l.l_orderkey" ] () );
      ( "q1-leaf", "flags", "l.l_shipdate <= date '1998-09-02'",
        Collector.spec ~distinct_cols:[ "l.l_returnflag"; "l.l_linestatus" ] () ) ];
  let draws = 1_000_000 and rng = Mqr_stats.Rng.create 0x5eed in
  row "rng" "int" draws (fun () ->
      for _ = 1 to draws do
        ignore (Mqr_stats.Rng.int rng 1000)
      done)

(* ------------------------------------------------------------------ *)
(* Storage accounting on the wall clock: what the bookkeeping behind the
   simulated I/O charges costs per operation.  [Buffer_pool.access] runs
   a hit-only mix (every access finds one of [capacity] resident pages)
   and a miss-heavy mix (a random order over four times as many pages),
   both over a heap-file id and a B+-tree id, at the 1600- and 6400-page
   pools of the dss benches.  [seq-scan] is a full [Heap_file.read] of
   lineitem at sf 0.02 through a fresh 6400-page pool, per tuple, and
   [scan-striped] the same scan through [Parallel.scan] at degree 2;
   [bytes_of_rows] sizes the same rows, per cell; [append] builds the
   table again from copies of its rows with every cell a fresh box, as
   the generator hands them over, per cell (the cost of interning each
   value and storing its code); [retain] deletes every tenth row of such
   a copy, per cell (moving the codes with the rows).  [filter] and
   [filter-coded] run Q10's l_returnflag conjunct, Q1's l_shipdate
   conjunct and Q6's four conjuncts over a full scan, per row:
   [Rows_ops.filter] over its rows, and [Leaf.filter] over the leaf,
   which evaluates each conjunct once per code and borrows its positions
   from a scratch released after each filter, as a dispatcher step
   would; its rows also give the major-heap words per op of an untimed
   pass after one warming filter, which allocates the positions.  Min
   and median over op_reps runs.  Last, the bytes each base table's codes take, 2 per row
   per coded column.                                                    *)

let storage_scenario () =
  let module Buffer_pool = Mqr_storage.Buffer_pool in
  let module Heap_file = Mqr_storage.Heap_file in
  let sf = 0.02 and accesses = 1_000_000 and scans = 10 in
  header
    (Fmt.str "Storage accounting - wall ns per operation (sf=%g, %d reps)" sf
       op_reps);
  (* [hit_ratio] is read after the runs, so it can report what they did *)
  let report_setup name ~per ?hit_ratio ~setup f =
    let scenario = "storage" and mode = name in
    let ns_min, ns_med, words = per_op ~scenario ~mode ~per ~setup f in
    let note =
      match hit_ratio with
      | None -> ""
      | Some hit_ratio ->
        let h = hit_ratio () in
        record ~scenario ~mode Count "hit_ratio" "ratio" h;
        Printf.sprintf "hit_ratio %.3f" h
    in
    Fmt.pr "%-20s %9d %8.2f %8.2f %8.3f  %s@." name per ns_min ns_med words
      note
  in
  let report name ~per ?hit_ratio =
    report_setup name ~per ?hit_ratio ~setup:ignore
  in
  Fmt.pr "%-20s %9s %8s %8s %8s@." "operation" "ops" "ns-min" "ns-med" "words";
  (* A fixed pseudo-random order over [keys] keys; key k is page k/2 of
     the heap file (even k) or of the B+-tree (odd k). *)
  let touch pool k =
    Buffer_pool.access pool ~file:(if k land 1 = 0 then 3 else 1_000_007)
      ~page:(k lsr 1)
  in
  let pattern keys =
    let state = ref 12345 in
    Array.init 65_536 (fun _ ->
        state := (!state * 1_103_515_245 + 12_345) land 0x3FFF_FFFF;
        !state mod keys)
  in
  List.iter
    (fun capacity ->
       List.iter
         (fun (mix, keys) ->
            let order = pattern keys in
            let pool = Buffer_pool.create ~capacity_pages:capacity in
            (* warm: every key of the hit mix is resident from the start *)
            for k = 0 to min keys capacity - 1 do
              ignore (touch pool k)
            done;
            let h0 = Buffer_pool.hits pool and m0 = Buffer_pool.misses pool in
            report (Printf.sprintf "pool-%s/%d" mix capacity) ~per:accesses
              ~hit_ratio:(fun () ->
                  let hits = Buffer_pool.hits pool - h0
                  and misses = Buffer_pool.misses pool - m0 in
                  float_of_int hits /. float_of_int (hits + misses))
              (fun () ->
                 for i = 0 to accesses - 1 do
                   ignore (touch pool order.(i land 65_535))
                 done))
         [ ("hit", capacity); ("miss", 4 * capacity) ])
    [ 1600; 6400 ];
  let catalog = Datagen.generate { Datagen.default with Datagen.sf } in
  let heap = (Catalog.find_exn catalog "lineitem").Catalog.heap in
  let n = Heap_file.tuple_count heap in
  report "seq-scan/tuple" ~per:(scans * n) (fun () ->
      for _ = 1 to scans do
        let ctx = Mqr_exec.Exec_ctx.create ~pool_pages:6400 () in
        ignore
          (Heap_file.read heap ~pool:ctx.Mqr_exec.Exec_ctx.pool
             ~clock:ctx.Mqr_exec.Exec_ctx.clock ~from_rid:0 ~to_rid:n)
      done);
  report "scan-striped/tuple" ~per:(scans * n) (fun () ->
      for _ = 1 to scans do
        let ctx = Mqr_exec.Exec_ctx.create ~pool_pages:6400 () in
        ignore (Mqr_exec.Parallel.scan ctx ~degree:2 heap)
      done);
  let rows = Array.init n (Heap_file.get heap) in
  let cells = Array.fold_left (fun acc t -> acc + Array.length t) 0 rows in
  report "bytes_of_rows/cell" ~per:(scans * cells) (fun () ->
      for _ = 1 to scans do
        ignore (Mqr_exec.Rows_ops.bytes_of_rows rows)
      done);
  let fresh (v : Mqr_storage.Value.t) : Mqr_storage.Value.t =
    match v with
    | Null -> Null
    | Bool b -> Bool b
    | Int i -> Int i
    | Float f -> Float f
    | String s -> String s
    | Date d -> Date d
  in
  let copied () =
    let h = Heap_file.create (Heap_file.schema heap) in
    Array.iter (fun t -> Heap_file.append h (Array.map fresh t)) rows;
    h
  in
  report_setup "append/cell" ~per:cells
    ~setup:(fun () -> Array.map (Array.map fresh) rows)
    (fun copies ->
       let h = Heap_file.create (Heap_file.schema heap) in
       Array.iter (Heap_file.append h) copies);
  let kept = ref 0 in
  report_setup "retain/cell" ~per:cells ~setup:copied (fun h ->
      kept := 0;
      ignore
        (Heap_file.retain h (fun _ ->
             incr kept;
             !kept mod 10 <> 0)));
  let schema = Mqr_storage.Schema.qualify (Heap_file.schema heap) "l" in
  let leaf = Mqr_exec.Leaf.scan (Mqr_exec.Exec_ctx.create ()) heap in
  List.iter
    (fun (name, pred) ->
       let pred = Mqr_sql.Parser.parse_expr pred in
       let ctx = Mqr_exec.Exec_ctx.create () in
       report ("filter/" ^ name) ~per:(scans * n) (fun () ->
           for _ = 1 to scans do
             ignore (Mqr_exec.Rows_ops.filter ctx schema pred (Mqr_exec.Leaf.rows leaf))
           done);
       (* as the dispatcher runs it: positions borrowed from a scratch,
          released when the step (here, the filter) ends *)
       let coded = Mqr_exec.Exec_ctx.create ~scratch:(Mqr_exec.Exec_ctx.scratch ()) () in
       let filters () =
         for _ = 1 to scans do
           ignore (Mqr_exec.Leaf.filter coded schema pred leaf);
           Mqr_exec.Exec_ctx.release coded
         done
       in
       let major_words () = (Gc.quick_stat ()).Gc.major_words in
       ignore (Mqr_exec.Leaf.filter coded schema pred leaf);
       Mqr_exec.Exec_ctx.release coded;
       let m0 = major_words () in
       filters ();
       let major = (major_words () -. m0) /. float_of_int (scans * n) in
       record ~scenario:"storage" ~mode:("filter-coded/" ^ name) Count "major_words"
         "words" major;
       report ("filter-coded/" ^ name) ~per:(scans * n) filters;
       Fmt.pr "%-20s %9s %8s %8s %8.3f  major words per op@." "" "" "" "" major)
    [ ("l_returnflag", "l.l_returnflag = 'R'");
      ("l_shipdate", "l.l_shipdate <= date '1998-09-02'");
      ( "q6",
        "l.l_shipdate >= date '1994-01-01' and l.l_shipdate < date '1995-01-01' \
         and l.l_discount between 0.05 and 0.07 and l.l_quantity < 24" ) ];
  Fmt.pr "@.%-20s %9s %12s@." "codes of" "rows" "bytes";
  List.iter
    (fun (tbl : Catalog.table) ->
       let h = tbl.Catalog.heap in
       let rows = Heap_file.tuple_count h in
       let coded =
         List.length
           (List.filter Option.is_some
              (List.init (Mqr_storage.Schema.arity (Heap_file.schema h))
                 (Heap_file.codes h)))
       in
       Fmt.pr "%-20s %9d %12d@." tbl.Catalog.name rows (2 * rows * coded))
    (List.sort
       (fun (a : Catalog.table) b -> String.compare a.Catalog.name b.Catalog.name)
       (Catalog.tables catalog))

(* ------------------------------------------------------------------ *)
(* Hash kernels on the wall clock, on sf 0.02 data: [Join.hash_join] per
   probe row, with one Int key (lineitem's l_orderkey into orders; every
   probe matches one row) and two (lineitem's l_partkey, l_suppkey into
   partsupp; datagen draws them independently, so most probes miss), and
   [Aggregate.hash_aggregate] per grouped row in Q1's shape (lineitem by
   l_returnflag, l_linestatus; count only, over a copy of the rows
   without codes, and [q1-leaf]: Q1's five aggregates over lineitem's
   own scan leaf filtered on l_shipdate).  These join inputs are cut
   to their key columns, so the table, not the output rows, sets the
   cost; each join builds its table once per run.  [probe/leaf] is Q3's
   top join over lineitem's own filtered scan leaf (below).  Min and median over op_reps
   runs, minor words per row from the median-allocating run. *)

let hash_scenario () =
  let module Schema = Mqr_storage.Schema in
  let module Heap_file = Mqr_storage.Heap_file in
  let module Aggregate = Mqr_exec.Aggregate in
  let module Join = Mqr_exec.Join in
  let sf = 0.02 in
  header
    (Fmt.str "Hash kernels - wall ns per row (sf=%g, %d reps)" sf op_reps);
  let catalog = Datagen.generate { Datagen.default with Datagen.sf } in
  let table name q =
    let heap = (Catalog.find_exn catalog name).Catalog.heap in
    ( Array.init (Heap_file.tuple_count heap) (Heap_file.get heap),
      Schema.qualify (Heap_file.schema heap) q )
  in
  let ctx = Mqr_exec.Exec_ctx.create () in
  let keys_only (rows, schema) cols =
    Mqr_exec.Rows_ops.project ctx schema cols rows
  in
  let lineitem = table "lineitem" "l" in
  Fmt.pr "%-14s %9s %10s %10s %10s@." "kernel" "rows" "ns-min" "ns-med" "words";
  let report mode ~per f =
    let ns_min, ns_med, words =
      per_op ~scenario:"hash" ~mode ~per ~setup:ignore f
    in
    Fmt.pr "%-14s %9d %10.2f %10.2f %10.3f@." mode per ns_min ns_med words
  in
  List.iter
    (fun (mode, build, keys) ->
       let probe = keys_only lineitem (List.map fst keys) in
       let build = keys_only build (List.map snd keys) in
       report mode ~per:(Array.length (fst probe)) (fun () ->
           ignore
             (Join.hash_join ctx ~mem_pages:100_000 ~build
                ~probe:(Mqr_exec.Leaf.of_rows (fst probe), snd probe) ~keys ())))
    [ ("probe/1-int", table "orders" "o", [ ("l.l_orderkey", "o.o_orderkey") ]);
      ( "probe/2-int", table "partsupp" "ps",
        [ ("l.l_partkey", "ps.ps_partkey"); ("l.l_suppkey", "ps.ps_suppkey") ] ) ];
  (* Q3's top join as the executor runs it: lineitem's own scan leaf,
     filtered on l_shipdate as in Q3 (each run filters afresh, untimed),
     probes on l_orderkey the orders placed before 1995-03-15 by BUILDING
     customers; both sides keep every column. *)
  let orders, oschema = table "orders" "o" in
  let customers, cschema = table "customer" "c" in
  let building = Hashtbl.create 1024 in
  let c_key = Schema.index_of cschema "c.c_custkey"
  and c_seg = Schema.index_of cschema "c.c_mktsegment" in
  Array.iter
    (fun c ->
       if Mqr_storage.Value.equal c.(c_seg) (Mqr_storage.Value.String "BUILDING")
       then Hashtbl.replace building c.(c_key) ())
    customers;
  let o_cust = Schema.index_of oschema "o.o_custkey" in
  let build =
    ( Array.of_seq
        (Seq.filter
           (fun o -> Hashtbl.mem building o.(o_cust))
           (Array.to_seq
              (Mqr_exec.Rows_ops.filter ctx oschema
                 (Mqr_sql.Parser.parse_expr "o.o_orderdate < date '1995-03-15'")
                 orders))),
      oschema )
  in
  let lheap = (Catalog.find_exn catalog "lineitem").Catalog.heap in
  let lschema = Schema.qualify (Heap_file.schema lheap) "l" in
  let shipped = Mqr_sql.Parser.parse_expr "l.l_shipdate > date '1995-03-15'" in
  let probed () =
    Mqr_exec.Leaf.filter ctx lschema shipped (Mqr_exec.Leaf.scan ctx lheap)
  in
  let per = Mqr_exec.Leaf.length (probed ()) in
  let ns_min, ns_med, words =
    per_op ~scenario:"hash" ~mode:"probe/leaf" ~per ~setup:probed (fun leaf ->
        ignore
          (Join.hash_join ctx ~mem_pages:100_000 ~build
             ~probe:(leaf, lschema)
             ~keys:[ ("l.l_orderkey", "o.o_orderkey") ] ()))
  in
  Fmt.pr "%-14s %9d %10.2f %10.2f %10.3f  (%d build rows)@." "probe/leaf" per
    ns_min ns_med words (Array.length (fst build));
  let rows, schema = lineitem in
  let aggs =
    [ { Aggregate.fn = Aggregate.Count; distinct_arg = false; arg = None;
        out_name = "count_order" } ]
  in
  report "group/q1" ~per:(Array.length rows) (fun () ->
      ignore
        (Aggregate.hash_aggregate ctx ~mem_pages:100_000 schema
           ~group_by:[ "l.l_returnflag"; "l.l_linestatus" ] ~aggs
           (Mqr_exec.Leaf.of_rows rows)));
  (* Q1's GROUP BY as the executor runs it: its five aggregates over
     lineitem's own scan leaf filtered on l_shipdate, whose group
     columns are coded *)
  let q1_leaf =
    Mqr_exec.Leaf.filter ctx lschema
      (Mqr_sql.Parser.parse_expr "l.l_shipdate <= date '1998-09-02'")
      (Mqr_exec.Leaf.scan ctx lheap)
  in
  let agg fn col out_name =
    { Aggregate.fn; distinct_arg = false;
      arg = Option.map Mqr_expr.Expr.col col; out_name }
  in
  let q1_aggs =
    [ agg Aggregate.Sum (Some "l.l_quantity") "sum_qty";
      agg Aggregate.Sum (Some "l.l_extendedprice") "sum_price";
      agg Aggregate.Avg (Some "l.l_quantity") "avg_qty";
      agg Aggregate.Avg (Some "l.l_discount") "avg_disc";
      agg Aggregate.Count None "count_order" ]
  in
  report "group/q1-leaf" ~per:(Mqr_exec.Leaf.length q1_leaf) (fun () ->
      ignore
        (Aggregate.hash_aggregate ctx ~mem_pages:100_000 lschema
           ~group_by:[ "l.l_returnflag"; "l.l_linestatus" ] ~aggs:q1_aggs q1_leaf))

(* ------------------------------------------------------------------ *)
(* DML and ANALYZE on the wall clock, at drift-rw's sf and batch size
   (bench/perf): [delete-batch] deletes one write batch, 100 orders and
   their 500 lineitems (two DELETEs, the batch inserted untimed before
   each run); [delete-none] is a DELETE on lineitem that matches no row;
   [insert-500] is one 500-row lineitem INSERT (lexing, parsing and
   appending; removed untimed before the next run); [analyze-lineitem]
   and [analyze-orders] are one ANALYZE each.  Min and median ms per run
   over op_reps runs, median minor words per run and, for a statement
   that adds or removes rows, per row.  The scenario uses only
   [Engine.execute] and [Datagen.generate], so it pastes into an older
   checkout's bench/main.ml to alternate binaries. *)

let dml_scenario () =
  let sf = 0.005 and orders = 100 and lines_per = 5 in
  header (Fmt.str "DML and ANALYZE - wall ms per run (sf=%g, %d reps)" sf op_reps);
  let catalog = Datagen.generate { Datagen.default with Datagen.sf } in
  let engine = Engine.create catalog in
  let st = Random.State.make [| 41 |] in
  let pick a = a.(Random.State.int st (Array.length a)) in
  let day = Random.State.int st 1000 + 8700 in
  let date d = Mqr_storage.Value.date_to_string d in
  (* keys far above the generated ones *)
  let first = 10_000_000 in
  let ob = Buffer.create 8192 and lb = Buffer.create 65536 in
  Buffer.add_string ob "insert into orders values ";
  Buffer.add_string lb "insert into lineitem values ";
  for o = 0 to orders - 1 do
    if o > 0 then Buffer.add_string ob ", ";
    Printf.bprintf ob "(%d, %d, 'O', %d.0, date '%s', '%s', 0)" (first + o)
      (Random.State.int st 700) (1000 + Random.State.int st 100_000) (date day)
      (pick [| "1-URGENT"; "2-HIGH"; "3-MEDIUM"; "4-NOT SPECIFIED"; "5-LOW" |]);
    for l = 1 to lines_per do
      let qty = 1 + Random.State.int st 50 in
      if o > 0 || l > 1 then Buffer.add_string lb ", ";
      Printf.bprintf lb
        "(%d, %d, %d, %d, %d.0, %d.0, 0.0%d, 0.0%d, '%s', 'O', date '%s', \
         date '%s', date '%s', '%s')"
        (first + o) (Random.State.int st 1000) (Random.State.int st 50) l qty
        (qty * (900 + Random.State.int st 1100) / 10)
        (Random.State.int st 10) (Random.State.int st 9)
        (pick [| "N"; "R"; "A" |]) (date (day + 1 + Random.State.int st 121))
        (date (day + 30 + Random.State.int st 60))
        (date (day + 122 + Random.State.int st 30))
        (pick [| "AIR"; "MAIL"; "RAIL"; "SHIP"; "TRUCK" |])
    done
  done;
  let exec sql =
    match Engine.execute engine sql with
    | Engine.Modified { count; _ } -> count
    | _ -> 0
  in
  let delete table col =
    Printf.sprintf "delete from %s where %s >= %d and %s < %d" table col first
      col (first + orders)
  in
  let insert_orders = Buffer.contents ob and insert_lines = Buffer.contents lb in
  let lines = orders * lines_per in
  Fmt.pr "%-18s %10s %10s %10s %10s  %s@." "statement" "ms-min" "ms-med" "words"
    "words/row" "rows ok";
  let report mode ~setup ~rows run =
    let t = timed op_reps ~setup run in
    let ms_min, ms_med, words = record_timed ~scenario:"dml" ~mode t in
    let ok = check ~scenario:"dml" ~row:mode [ (List.for_all (( = ) rows) t.results, "rows") ] in
    let per_row =
      if rows = 0 then "-"
      else begin
        let w = words /. float_of_int rows in
        record ~n:t.reps ~scenario:"dml" ~mode ~stat:"median" Count
          "minor_words_per_row" "words" w;
        Fmt.str "%.1f" w
      end
    in
    Fmt.pr "%-18s %10.3f %10.3f %10.0f %10s  %s@." mode ms_min ms_med words per_row ok
  in
  report "delete-batch" ~rows:(orders + lines)
    ~setup:(fun () -> ignore (exec insert_orders + exec insert_lines))
    (fun () -> exec (delete "orders" "o_orderkey") + exec (delete "lineitem" "l_orderkey"));
  report "delete-none" ~rows:0 ~setup:ignore (fun () ->
      exec "delete from lineitem where l_orderkey < 0");
  report "insert-500" ~rows:lines
    ~setup:(fun () -> ignore (exec (delete "lineitem" "l_orderkey")))
    (fun () -> exec insert_lines);
  ignore (exec (delete "lineitem" "l_orderkey"));
  List.iter
    (fun table ->
       report ("analyze-" ^ table) ~rows:0 ~setup:ignore (fun () ->
           ignore (Engine.execute engine ("analyze " ^ table));
           0))
    [ "lineitem"; "orders" ]

(* ------------------------------------------------------------------ *)
(* Garbage-collector cost of dss-scan's statement mix: Q1, Q6, Q3 and
   Q10 on bench/perf's dss-scan database (sf 0.02, the paper's
   statistics degradations, budget sf x 40 000 pages, pool 8x) in full
   mode, [rounds] rounds after [rounds] untimed ones, repeated
   [whole_reps] times.  Per statement: major collections, words
   allocated directly in the major heap (major words less promoted
   ones), promoted words, and the share of wall time the runtime spent
   in minor collections ([EV_MINOR]) and in major slices
   ([EV_MAJOR_SLICE]), read with a [Runtime_events] cursor on this
   process after every statement.  Each metric's median over the
   repetitions is recorded as a wall point: they move from run to
   run. *)

let gc_scenario () =
  let sf = 0.02 and rounds = 25 in
  header
    (Fmt.str "GC cost of the dss-scan mix - per statement (sf=%g, %d rounds, %d reps)"
       sf rounds whole_reps);
  let catalog = Datagen.generate { Datagen.default with Datagen.sf } in
  Workload.apply catalog Workload.paper_degradations;
  let budget_pages = max 64 (int_of_float (sf *. 40_000.0)) in
  let engine = Engine.create ~budget_pages ~pool_pages:(8 * budget_pages) catalog in
  let mix = List.map (fun n -> (Queries.find n).Queries.sql) [ "Q1"; "Q6"; "Q3"; "Q10" ] in
  let round () =
    List.iter (fun sql -> ignore (Engine.run_sql engine ~mode:Dispatcher.Full sql)) mix
  in
  Runtime_events.start ();
  let cursor = Runtime_events.create_cursor None in
  let ns = Runtime_events.Timestamp.to_int64 in
  let minor = ref 0L and major = ref 0L in
  let minor0 = ref 0L and major0 = ref 0L in
  let callbacks =
    Runtime_events.Callbacks.create
      ~runtime_begin:(fun _ ts -> function
          | Runtime_events.EV_MINOR -> minor0 := ns ts
          | EV_MAJOR_SLICE -> major0 := ns ts
          | _ -> ())
      ~runtime_end:(fun _ ts -> function
          | Runtime_events.EV_MINOR -> minor := Int64.add !minor (Int64.sub (ns ts) !minor0)
          | EV_MAJOR_SLICE -> major := Int64.add !major (Int64.sub (ns ts) !major0)
          | _ -> ())
      ()
  in
  let poll () = ignore (Runtime_events.read_poll cursor callbacks None) in
  for _ = 1 to rounds do round () done;
  let statements = rounds * List.length mix in
  let rep () =
    poll ();
    minor := 0L;
    major := 0L;
    let g0 = Gc.quick_stat () and t0 = Unix.gettimeofday () in
    for _ = 1 to rounds do
      List.iter
        (fun sql ->
           ignore (Engine.run_sql engine ~mode:Dispatcher.Full sql);
           poll ())
        mix
    done;
    let wall_ns = (Unix.gettimeofday () -. t0) *. 1e9 in
    let g1 = Gc.quick_stat () in
    let per x = x /. float_of_int statements in
    let direct (g : Gc.stat) = g.Gc.major_words -. g.Gc.promoted_words in
    [ ("major_collections", "count",
       per (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections)));
      ("direct_major_words", "words", per (direct g1 -. direct g0));
      ("promoted_words", "words", per (g1.Gc.promoted_words -. g0.Gc.promoted_words));
      ("major_share", "%", 100.0 *. Int64.to_float !major /. wall_ns);
      ("minor_share", "%", 100.0 *. Int64.to_float !minor /. wall_ns);
      ("wall_per_stmt", "ms", per (wall_ns /. 1e6)) ]
  in
  let reps = List.init whole_reps (fun _ -> rep ()) in
  Runtime_events.free_cursor cursor;
  Runtime_events.pause ();
  Fmt.pr "%-20s %12s %8s@." "metric" "median" "unit";
  List.iteri
    (fun i (metric, unit_, _) ->
       let values = List.sort compare (List.map (fun r -> let _, _, v = List.nth r i in v) reps) in
       let median = List.nth values (whole_reps / 2) in
       record ~stat:"median" ~n:whole_reps ~scenario:"gc" ~mode:"dss-scan" Wall metric
         unit_ median;
       Fmt.pr "%-20s %12.4f %8s@." metric median unit_)
    (List.hd reps)

(* ------------------------------------------------------------------ *)
(* diff OLD NEW: what moved between two BENCH_results.json files, as
   [emit_json] writes them.  Every deterministic point (sim and count
   clocks, minor words excluded) whose value differs, by scenario, then
   every Figure 10-12 improvement over off mode whose value at the one
   decimal the figures print differs.  Wall and minor-word points move on
   every run and are skipped.  A point is matched by scenario, mode,
   metric, stat and how many points with those came before it in the
   file.  The summary lines count the moved count points and give the
   largest relative move of a sim point and the largest move of an
   improvement, in points.  Exits 1 when anything moved. *)

let read_points file =
  let ic = open_in file in
  let rec go acc =
    match input_line ic with
    | exception End_of_file ->
      close_in ic;
      List.rev acc
    | line ->
      let point =
        try
          Scanf.sscanf line
            " {\"scenario\": %S, \"mode\": %S, \"metric\": %S, \"clock\": \
             %S, \"unit\": %S, \"value\": %s@, \"stat\": %S, \"n\": %d}"
            (fun scenario mode metric clock unit_ value stat _ ->
               if clock = "wall" || unit_ = "words" then None
               else Some ((scenario, mode, metric, stat), (clock, unit_, value)))
        with Scanf.Scan_failure _ | End_of_file -> None
      in
      go (match point with Some p -> p :: acc | None -> acc)
  in
  let seen = Hashtbl.create 1024 in
  List.map
    (fun (key, v) ->
       let k = Option.value ~default:0 (Hashtbl.find_opt seen key) in
       Hashtbl.replace seen key (k + 1);
       ((key, k), v))
    (go [])

(* Figures 10-12: each mode's gain over off mode, in percent of off *)
let improvements points =
  let elapsed = Hashtbl.create 64 in
  List.iter
    (fun (((scenario, mode, metric, _), _), (_, _, value)) ->
       if
         metric = "elapsed"
         && List.exists
              (fun prefix -> String.starts_with ~prefix scenario)
              [ "f10/"; "f11/"; "f12/" ]
       then Hashtbl.replace elapsed (scenario, mode) (float_of_string value))
    points;
  Hashtbl.fold
    (fun (scenario, mode) ms acc ->
       match Hashtbl.find_opt elapsed (scenario, "off") with
       | Some off when mode <> "off" ->
         ((scenario, mode), 100.0 *. (off -. ms) /. off) :: acc
       | _ -> acc)
    elapsed []

let diff_results old_file new_file =
  let old_points = read_points old_file and new_points = read_points new_file in
  let only_in points others before_after =
    List.filter_map
      (fun (key, (clock, unit_, v)) ->
         if List.mem_assoc key others then None
         else Some (key, clock, unit_, before_after v))
      points
  in
  let moved =
    List.filter_map
      (fun (key, (clock, unit_, v)) ->
         match List.assoc_opt key old_points with
         | Some (_, _, v') when v' <> v -> Some (key, clock, unit_, (v', v))
         | _ -> None)
      new_points
    @ only_in new_points old_points (fun v -> ("-", v))
    @ only_in old_points new_points (fun v -> (v, "-"))
  in
  ignore
    (List.fold_left
       (fun last (((scenario, mode, metric, stat), _), _, unit_, (old, now)) ->
          if last <> Some scenario then Fmt.pr "%s@." scenario;
          Fmt.pr "  %-14s %-24s %-7s %s -> %s %s@." mode metric stat old now
            unit_;
          Some scenario)
       None
       (List.stable_sort
          (fun (((a, _, _, _), _), _, _, _) (((b, _, _, _), _), _, _, _) ->
             String.compare a b)
          moved));
  let largest =
    List.fold_left
      (fun acc (_, clock, _, (old, now)) ->
         match (clock, float_of_string_opt old, float_of_string_opt now) with
         | "sim", Some a, Some b ->
           Float.max acc (Float.abs (b -. a) /. Float.abs a)
         | _ -> acc)
      0.0 moved
  in
  Fmt.pr
    "%d of %d sim and count points moved (%d count; largest sim move %.2e \
     relative)@."
    (List.length moved) (List.length new_points)
    (List.length (List.filter (fun (_, clock, _, _) -> clock = "count") moved))
    largest;
  let old_gains = improvements old_points
  and new_gains = improvements new_points in
  let gains =
    List.sort compare
      (List.filter_map
         (fun (key, gain) ->
            match List.assoc_opt key old_gains with
            | Some before when Fmt.str "%.1f" before = Fmt.str "%.1f" gain -> None
            | before -> Some (key, before, gain))
         new_gains)
  in
  let largest_points =
    List.fold_left
      (fun acc (key, gain) ->
         match List.assoc_opt key old_gains with
         | Some before -> Float.max acc (Float.abs (gain -. before))
         | None -> acc)
      0.0 new_gains
  in
  List.iter
    (fun ((scenario, mode), before, gain) ->
       match before with
       | Some before ->
         Fmt.pr "%-18s %-14s improvement %.1f%% -> %.1f%% (%+.1f points)@."
           scenario mode before gain (gain -. before)
       | None ->
         Fmt.pr "%-18s %-14s improvement %.1f%% (new)@." scenario mode gain)
    gains;
  Fmt.pr "%d of %d f10-f12 improvements moved (largest move %.2e points)@."
    (List.length gains) (List.length new_gains) largest_points;
  exit (if moved = [] && gains = [] then 0 else 1)

(* ------------------------------------------------------------------ *)

let experiments =
  [ ("f10", figure10); ("f11", figure11); ("f12", figure12); ("xfig3", xfig3);
    ("sens", sensitivity); ("overhead", overhead); ("joins", ablation_joins);
    ("hist", ablation_histograms); ("hybrid", hybrid); ("scale", scalability);
    ("rf", runtime_filters); ("wlm", wlm); ("observers", observers_scenario);
    ("bounds", bounds_scenario); ("parallel", parallel_scenario);
    ("service", service_scenario); ("opt", opt_scenario);
    ("collect", collect_scenario); ("storage", storage_scenario);
    ("hash", hash_scenario); ("dml", dml_scenario); ("gc", gc_scenario) ]

let () =
  let which =
    match List.tl (Array.to_list Sys.argv) with
    | [] -> [ "all" ]
    | [ "diff"; old_file; new_file ] -> diff_results old_file new_file
    | "diff" :: _ ->
      Fmt.epr "usage: main.exe diff OLD/BENCH_results.json \
               NEW/BENCH_results.json@.";
      exit 2
    | l -> l
  in
  List.iter
    (fun name ->
       match (name, List.assoc_opt name experiments) with
       | "all", _ -> List.iter (fun (_, run) -> run ()) experiments
       | "figures", _ ->
         List.iter (fun run -> run ()) [ figure10; figure11; figure12 ]
       | _, Some run -> run ()
       | _, None ->
         Fmt.epr
           "unknown experiment %S (%s figures all; only all writes \
            BENCH_results.json)@."
           name
           (String.concat " " (List.map fst experiments));
         exit 1)
    which;
  match List.rev !failures with
  | [] -> if List.mem "all" which then emit_json ()
  | failed ->
    List.iter
      (fun (scenario, row, broken) ->
         Fmt.epr "cross-check failed: %s %s: %s@." scenario row
           (String.concat ", " broken))
      failed;
    exit 1
