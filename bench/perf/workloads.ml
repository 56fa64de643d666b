(* The four workloads.  Each one sets up its engine several times (the
   median is [setup_s]), warms up on every distinct statement, computes an
   untimed [Off]-mode reference, then measures for the requested seconds
   with spans off.  The traced run re-executes the first quarter of the
   same statement sequence with spans on and yields the per-layer wall
   metrics; end-to-end metrics always come from the untraced run. *)

module Engine = Mqr_core.Engine
module Dispatcher = Mqr_core.Dispatcher
module Reopt_policy = Mqr_core.Reopt_policy
module Optimizer = Mqr_opt.Optimizer
module Stats_env = Mqr_opt.Stats_env
module Service = Mqr_wlm.Service
module Session = Mqr_wlm.Session
module Queries = Mqr_tpcd.Queries
module Datagen = Mqr_tpcd.Datagen
module Workload = Mqr_tpcd.Workload

type kind = Dss_complex | Dss_scan | Drift_rw | Svc_mixed

type spec = { name : string; kind : kind; sf : float }

let all =
  [ { name = "dss-complex"; kind = Dss_complex; sf = 0.005 };
    { name = "dss-scan"; kind = Dss_scan; sf = 0.02 };
    { name = "drift-rw"; kind = Drift_rw; sf = 0.005 };
    { name = "svc-mixed"; kind = Svc_mixed; sf = 0.005 } ]

type opts = {
  seed : int;
  seconds : float;
  trace : bool;
  max_stmts : int option;  (* smoke runs: stop after this many statements *)
  sf : float option;       (* smoke runs: a smaller scale factor *)
}

type metric = {
  name : string;
  e2e : bool;
  clock : string;  (* wall | sim | count *)
  unit_ : string;
  value : float;
  stat : string;
  n : int;
}

type result = {
  metrics : metric list;
  attempted : int;
  failed : int;
  errors : string list;
  spans : Spans.t;
  sf_used : float;
}

(* --- correctness gate ------------------------------------------------- *)

type gate = {
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
}

(* One attempted statement; it fails if any check does. *)
let check g label checks =
  g.attempted <- g.attempted + 1;
  match List.filter (fun (ok, _) -> not ok) checks with
  | [] -> true
  | (_, why) :: _ ->
    g.failed <- g.failed + 1;
    if List.length g.errors < 8 then
      g.errors <- Printf.sprintf "%s: %s" label why :: g.errors;
    false

let canon rows =
  List.sort compare
    (Array.to_list (Array.map Mqr_storage.Tuple.to_string rows))

(* Page leases a finished statement must have returned. *)
let pages_ok (r : Dispatcher.report) =
  ( r.Dispatcher.filter_pages_held = 0 && r.Dispatcher.worker_pages_held = 0,
    "filter/worker pages still held" )

let timed f =
  let t0 = Spans.now_ns () in
  let x = f () in
  (x, Spans.ms_between t0 (Spans.now_ns ()))

(* --- set-up ---------------------------------------------------------- *)

(* Budget and pool follow bench/main.ml: complex queries' hash-join
   demands exceed the budget, the paper's memory-pressure regime. *)
let budget_pages sf = max 64 (int_of_float (sf *. 40_000.0))

let make_engine kind ~sf catalog =
  let budget_pages = budget_pages sf in
  let pool_pages = 8 * budget_pages in
  match kind with
  | Dss_complex | Dss_scan -> Engine.create ~budget_pages ~pool_pages catalog
  | Drift_rw -> Engine.create ~budget_pages ~pool_pages ~plan_cache:true catalog
  | Svc_mixed ->
    let opt_options =
      { Optimizer.default_options with
        Optimizer.planning_mem_pages = max 8 (budget_pages / 2);
        max_dop = 2 }
    in
    Engine.create ~budget_pages ~pool_pages ~opt_options
      ~parallel:(min 2 (Domain.recommended_domain_count ()))
      catalog

type setup = { datagen_s : float; degrade_ms : float; total_s : float }

(* The data itself is always the generator's default seed, as in the
   paper-figure harness: a different database flips plan choices (Q7
   switches to plans 50% apart in simulated time), which would make the
   simulated metrics bimodal across seeds.  The run's seed drives
   everything the workload feeds the engine instead. *)
let setup_once kind ~sf =
  let t0 = Spans.now_ns () in
  let catalog = Datagen.generate { Datagen.default with Datagen.sf } in
  let t1 = Spans.now_ns () in
  Workload.apply catalog Workload.paper_degradations;
  let t2 = Spans.now_ns () in
  let engine = make_engine kind ~sf catalog in
  let t3 = Spans.now_ns () in
  ( engine,
    catalog,
    { datagen_s = Spans.ms_between t0 t1 /. 1000.0;
      degrade_ms = Spans.ms_between t1 t2;
      total_s = Spans.ms_between t0 t3 /. 1000.0 } )

let setups = 3

(* A set-up in a forked child: the child reports its timings through a
   pipe and exits, so the measuring process keeps a single database in a
   fresh heap (discarded set-ups would otherwise fragment it and inflate
   its peak). *)
let setup_in_child kind ~sf =
  let rd, wr = Unix.pipe ~cloexec:true () in
  flush_all ();
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let engine, _, s = setup_once kind ~sf in
    Engine.shutdown engine;
    let oc = Unix.out_channel_of_descr wr in
    Printf.fprintf oc "%h %h %h\n" s.datagen_s s.degrade_ms s.total_s;
    close_out oc;
    Unix._exit 0
  | pid ->
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let line = In_channel.input_line ic in
    close_in ic;
    (match Unix.waitpid [] pid with
     | _, Unix.WEXITED 0 -> ()
     | _ -> failwith "set-up child failed");
    (match Option.map (String.split_on_char ' ') line with
     | Some [ a; b; c ] ->
       { datagen_s = float_of_string a;
         degrade_ms = float_of_string b;
         total_s = float_of_string c }
     | _ -> failwith "set-up child sent no timings")

(* [setups] timed set-ups, all but the last in children; the last one's
   engine is the one the run uses.  [setup_s] is their median. *)
let setup kind ~sf =
  let children = List.init (setups - 1) (fun _ -> setup_in_child kind ~sf) in
  let engine, catalog, s = setup_once kind ~sf in
  (engine, catalog, children @ [ s ])

(* --- stepwise execution ---------------------------------------------- *)

(* A finished statement's step span gets its simulated interval and
   whether the optimizer was re-invoked (a [Consider] decision) or the plan
   switched inside it, read off the timed event stream: the events stamped
   inside the step's interval of the statement's own clock. *)
let annotate_step sp id (rep : Dispatcher.report) s0 s1 =
  let evs =
    List.filter_map
      (fun (ts, ev) -> if ts > s0 && ts <= s1 then Some ev else None)
      rep.Dispatcher.timed_events
  in
  let has p = string_of_bool (List.exists p evs) in
  Spans.annotate sp id
    [ ("sim0", Printf.sprintf "%.3f" s0);
      ("sim1", Printf.sprintf "%.3f" s1);
      ("replanned",
       has (function
           | Dispatcher.Ev_considered { decision = Reopt_policy.Consider; _ } ->
             true
           | _ -> false));
      ("switched", has (function Dispatcher.Ev_switched _ -> true | _ -> false))
    ]

(* bind -> Dispatcher.start -> Dispatcher.step until done, one span each. *)
let exec_stepwise sp ~stmt ~parent engine ~mode sql =
  let q =
    Spans.span sp ~parent ~stmt "sql.bind" (fun _ -> Engine.bind_sql engine sql)
  in
  let cfg = Engine.dispatcher_config engine ~mode () in
  let run =
    Spans.span sp ~parent ~stmt "core.start" (fun _ -> Dispatcher.start cfg q)
  in
  let rec go i steps =
    let sim0 = Dispatcher.run_elapsed_ms run in
    let r, id =
      Spans.span sp ~parent ~stmt "core.step"
        ~args:[ ("i", string_of_int i) ]
        (fun id -> (Dispatcher.step run, id))
    in
    let steps = (id, sim0, Dispatcher.run_elapsed_ms run) :: steps in
    match r with Some rep -> (rep, steps) | None -> go (i + 1) steps
  in
  let rep, steps = go 0 [] in
  if sp.Spans.on then
    List.iter (fun (id, s0, s1) -> annotate_step sp id rep s0 s1) steps;
  rep

(* The traced run's optimizer probe: the same bound query planned again
   on a fresh statistics environment, as [Engine.explain] does. *)
let probe_optimize sp ~stmt ~parent engine ~mode sql =
  let q = Engine.bind_sql engine sql in
  let cfg = Engine.dispatcher_config engine ~mode () in
  let env = Stats_env.create cfg.Dispatcher.catalog q.Mqr_sql.Query.relations in
  let w0 = Gc.minor_words () in
  let id = ref Spans.root in
  let r =
    Spans.span sp ~parent ~stmt "opt.optimize" (fun i ->
        id := i;
        Optimizer.optimize ~options:cfg.Dispatcher.opt_options
          ~model:cfg.Dispatcher.model ~env q)
  in
  Spans.annotate sp !id
    [ ("plans", string_of_int r.Optimizer.plans_enumerated);
      ("alloc_w", Printf.sprintf "%.0f" (Gc.minor_words () -. w0)) ]

(* The traced run's probes for one statement, under a root [probe] span
   that coverage excludes: the optimizer probe and, where the workload's
   own path hides the dispatcher (plan-cache reads, service statements),
   a solo stepwise replay that exposes bind, start and step. *)
let probe sp ~stmt ~replay engine ~mode sql =
  Spans.span sp ~stmt "probe" (fun p ->
      probe_optimize sp ~stmt ~parent:p engine ~mode sql;
      if replay then ignore (exec_stepwise sp ~stmt ~parent:p engine ~mode sql))

(* --- what every workload reports -------------------------------------- *)

type measured = {
  stmts : int;              (* statements completed in the timed window *)
  busy_ms : float;          (* wall the system spent on them *)
  walls : float list;       (* latency samples, wall ms *)
  sim : float list;         (* simulated ms per statement *)
  sim_lat : float list;     (* simulated latency of latency-bound stmts *)
  extra : metric list;      (* workload-specific layer metrics *)
  head_ms : float * float;
      (* wall of the statements the traced run repeats: untraced, traced *)
}

let layer ?(clock = "wall") ?(stat = "mean") ?(n = 0) name unit_ value =
  { name; e2e = false; clock; unit_; value; stat; n }

let e2e ?(clock = "wall") ?(stat = "median") ?(n = 0) name unit_ value =
  { name; e2e = true; clock; unit_; value; stat; n }

let out_of_time ~t0 ~seconds =
  Spans.ms_between t0 (Spans.now_ns ()) >= seconds *. 1000.0

let capped o n = match o.max_stmts with Some m -> n >= m | None -> false

let settle_rounds = 24

(* What the timed window observes between statements (and between service
   steps): calibration slices, and the major heap's size.  The heap
   metric is a high percentile of these samples, not the lifetime peak
   ([top_heap_words]): a peak is one moment, and whether a seed's write
   batches or a longer window happen to catch a GC cycle late moved it by
   up to 20% from run to run. *)
type window = { cal : Calib.t; mutable heap_words : int list }

let between w =
  Calib.tick w.cal;
  w.heap_words <- (Gc.quick_stat ()).Gc.heap_words :: w.heap_words

(* Untimed rounds [run_round 0], [run_round 1], ... until a whole major GC
   cycle passes without the major heap reaching a new peak (at most
   [max_rounds]).  The heap takes a few cycles to grow to its working
   size, and the pages it takes from the kernel while it grows are slow:
   on a 2-vCPU VM a first-touch page fault cost ~90 us, up to 200 ms of
   system time in one statement, which put the growth into the latency
   tail of the first statements timed.  Returns the rounds run. *)
let settle ~max_rounds run_round =
  let rec go r ~cycle ~grew =
    let s0 = Gc.quick_stat () in
    run_round r;
    let s1 = Gc.quick_stat () in
    let grew = grew || s1.Gc.top_heap_words > s0.Gc.top_heap_words in
    if r + 1 >= max_rounds then r + 1
    else if s1.Gc.major_collections = cycle then go (r + 1) ~cycle ~grew
    else if grew then go (r + 1) ~cycle:s1.Gc.major_collections ~grew:false
    else r + 1
  in
  (* the cycle in progress may have started before the rounds did *)
  go 0 ~cycle:(Gc.quick_stat ()).Gc.major_collections ~grew:true

(* Garbage-collector work over the timed window, per statement. *)
let gc_metrics (g0 : Gc.stat) (g1 : Gc.stat) n =
  let per x = Stat.ratio x (float_of_int (max 1 n)) in
  [ layer ~clock:"count" "gc.alloc_mw" "Mwords"
      (per ((g1.Gc.minor_words -. g0.Gc.minor_words) /. 1e6));
    layer ~clock:"count" "gc.major_collections" "count"
      (per (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections)));
    layer ~clock:"count" "gc.promoted_mw" "Mwords"
      (per ((g1.Gc.promoted_words -. g0.Gc.promoted_words) /. 1e6)) ]

(* --- dss-complex / dss-scan: closed loop, one client ------------------- *)

let dss kind o engine catalog g acc sp win =
  let templates =
    match kind with
    | Dss_complex -> Gen.[ q3; q5; q7; q8; q10 ]
    | _ -> Gen.[ q1; q6; q3; q10 ]
  in
  let sets = Gen.param_sets ~seed:o.seed ~sets:3 catalog templates in
  let mode = Dispatcher.Full in
  let off = Spans.create ~on:false in
  let exec sp ~stmt ~parent sql =
    exec_stepwise sp ~stmt ~parent engine ~mode sql
  in
  (* the statement sequence, cut short for smoke runs *)
  let rounds = Seq.ints 0 |> Seq.map (Gen.round ~seed:o.seed sets) in
  let first_round = Seq.uncons rounds |> Option.get |> fst in
  let distinct =
    match o.max_stmts with
    | Some m -> List.filteri (fun i _ -> i < m) first_round
    | None -> List.concat_map Array.to_list sets
  in
  (* warm-up: also fixes every statement's simulated time, which each
     later execution must reproduce bit for bit *)
  let sim = Hashtbl.create 16 in
  List.iter
    (fun (s : Gen.stmt) ->
       let r = exec off ~stmt:0 ~parent:Spans.root s.sql in
       Hashtbl.replace sim s.label r.Dispatcher.elapsed_ms)
    distinct;
  let reference = Hashtbl.create 16 in
  List.iter
    (fun (s : Gen.stmt) ->
       let r = Engine.run_sql engine ~mode:Dispatcher.Off s.sql in
       Hashtbl.replace reference s.label (canon r.Dispatcher.rows))
    distinct;
  let verify label (r : Dispatcher.report) =
    check g label
      [ (canon r.Dispatcher.rows = Hashtbl.find reference label,
         "rows differ from the Off reference");
        (r.Dispatcher.elapsed_ms = Hashtbl.find sim label,
         "simulated time differs between executions");
        pages_ok r ]
  in
  Gc.full_major ();
  let settled =
    if o.max_stmts <> None then 0
    else
      settle ~max_rounds:settle_rounds (fun r ->
          List.iter
            (fun (s : Gen.stmt) ->
               ignore (exec off ~stmt:0 ~parent:Spans.root s.sql))
            (Gen.round ~seed:o.seed sets r))
  in
  let g0 = Gc.quick_stat () in
  let t0 = Spans.now_ns () in
  let done_ = ref [] in
  (try
     Seq.iter
       (fun round ->
          if out_of_time ~t0 ~seconds:o.seconds && !done_ <> [] then raise Exit;
          List.iter
            (fun (s : Gen.stmt) ->
               if capped o (List.length !done_) then raise Exit;
               between win;
               match
                 timed (fun () -> exec off ~stmt:0 ~parent:Spans.root s.sql)
               with
               | r, w ->
                 Layers.add acc r;
                 if verify s.label r then done_ := (s, w) :: !done_
               | exception e ->
                 ignore (check g s.label [ (false, Printexc.to_string e) ]))
            round)
       rounds
   with Exit -> ());
  let g1 = Gc.quick_stat () in
  let seq = List.rev !done_ in
  let head = List.filteri (fun i _ -> i < (List.length seq + 3) / 4) seq in
  let traced_ms =
    if not sp.Spans.on then 0.0
    else
      Stat.sum
        (List.mapi
           (fun i ((s : Gen.stmt), _) ->
              probe sp ~stmt:i ~replay:false engine ~mode s.sql;
              let r, w =
                timed (fun () ->
                    Spans.span sp ~stmt:i "stmt"
                      ~args:[ ("label", Printf.sprintf "%S" s.label) ]
                      (fun p -> exec sp ~stmt:i ~parent:p s.sql))
              in
              ignore (verify s.label r);
              w)
           head)
  in
  let sims = List.map (fun s -> Hashtbl.find sim s.Gen.label) distinct in
  { stmts = List.length seq;
    busy_ms = Stat.sum (List.map snd seq);
    walls = List.map snd seq;
    sim = sims;
    sim_lat = sims;
    extra =
      gc_metrics g0 g1 (List.length seq)
      @ [ layer ~clock:"count" ~stat:"total" "bench.settle_rounds" "count"
            (float_of_int settled) ];
    head_ms = (Stat.sum (List.map snd head), traced_ms) }

(* --- drift-rw: reads through the plan cache beside seeded writes -------- *)

let write_orders = 100
let write_lines_per = 5
let analyze_every = 10

(* Each round deletes the batch inserted this many rounds earlier: the
   tables churn at a fixed size above the generated data instead of
   growing with every round a faster engine fits in the window. *)
let write_window = 10

type drift_stmt =
  | Read of Gen.stmt
  | Write of string * string * int  (* label, INSERT, rows it must add *)
  | Analyze of string

let drift_label = function
  | Read s -> s.Gen.label
  | Write (l, _, _) -> l
  | Analyze t -> "analyze " ^ t

(* Round [r]: every read, then (unless it is the last round) the seeded
   write batch numbered from [base + r * write_orders], the delete of the
   batch [write_window] rounds older and, every [analyze_every] rounds,
   ANALYZE. *)
let drift_round ~seed ~reads ~base d catalog r ~last =
  let batch r = base + (r * write_orders) in
  let lines = write_orders * write_lines_per in
  List.map (fun s -> Read s) reads
  @
  if last then []
  else
    let o, l =
      Gen.write_batch ~seed ~round:r ~first_key:(batch r) ~orders:write_orders
        ~lines_per:write_lines_per d catalog
    in
    let delete table col =
      Printf.sprintf "delete from %s where %s >= %d and %s < %d" table col
        (batch (r - write_window)) col (batch (r - write_window + 1))
    in
    [ Write ("insert orders", o, write_orders);
      Write ("insert lineitem", l, lines) ]
    @ (if r < write_window then []
       else
         [ Write ("delete orders", delete "orders" "o_orderkey", write_orders);
           Write ("delete lineitem", delete "lineitem" "l_orderkey", lines) ])
    @
    if (r + 1) mod analyze_every = 0 then [ Analyze "orders"; Analyze "lineitem" ]
    else []

(* Execute one drift-rw statement under a [stmt] span; returns the read's
   report and whether the plan cache served it. *)
let drift_exec sp engine ~mode ~i g st =
  (match st with
   | Read s when sp.Spans.on -> probe sp ~stmt:i ~replay:true engine ~mode s.sql
   | _ -> ());
  let label = drift_label st in
  let hits () =
    match Engine.plan_cache_stats engine with Some (h, _, _) -> h | None -> 0
  in
  let body p =
    match st with
    | Read s ->
      Spans.span sp ~parent:p ~stmt:i "core.run_sql" (fun id ->
          let h0 = hits () in
          let rep = Engine.run_sql engine ~mode s.sql in
          let hit = hits () > h0 in
          Spans.annotate sp id [ ("hit", string_of_bool hit) ];
          Some (rep, hit))
    | Write (_, sql, want) ->
      Spans.span sp ~parent:p ~stmt:i "storage.write" (fun _ ->
          match Engine.execute engine sql with
          | Engine.Modified { count; _ } when count = want -> None
          | _ -> failwith "wrong row count")
    | Analyze t ->
      Spans.span sp ~parent:p ~stmt:i "storage.analyze" (fun _ ->
          ignore (Engine.execute engine ("analyze " ^ t));
          None)
  in
  match
    timed (fun () ->
        Spans.span sp ~stmt:i "stmt" ~args:[ ("label", Printf.sprintf "%S" label) ]
          body)
  with
  | Some (rep, hit), w ->
    if check g label [ pages_ok rep ] then Some (w, Some (rep, hit)) else None
  | None, w -> if check g label [] then Some (w, None) else None
  | exception e ->
    ignore (check g label [ (false, Printexc.to_string e) ]);
    None

let drift o ~sf engine catalog g acc sp win =
  let mode = Dispatcher.Bound_checked in
  let reads =
    List.map (fun q -> { Gen.label = q.Queries.name; sql = q.Queries.sql })
      Queries.all
  in
  let reads =
    match o.max_stmts with
    | Some m -> List.filteri (fun i _ -> i < m) reads
    | None -> reads
  in
  let d = Gen.domains catalog in
  let base = Gen.rows catalog "orders" in
  let off = Spans.create ~on:false in
  (* warm-up fills the plan cache, as a long-running server's would be;
     then an untimed first epoch of [analyze_every] rounds brings the
     tables to their churning size and runs ANALYZE once.  The timed
     window runs whole epochs: which reads hit the plan cache follows the
     ANALYZE period, so a window cut mid-epoch would change the read mix
     with the engine's speed (the p90 read latency swung 2.5x that way). *)
  let first = if o.max_stmts = None then analyze_every else 0 in
  let warm engine catalog =
    List.iter (fun (s : Gen.stmt) -> ignore (Engine.run_sql engine ~mode s.sql))
      reads;
    for r = 0 to first - 1 do
      List.iter
        (fun st -> ignore (drift_exec off engine ~mode ~i:0 g st))
        (drift_round ~seed:o.seed ~reads ~base d catalog r ~last:false)
    done
  in
  warm engine catalog;
  Gc.full_major ();
  let g0 = Gc.quick_stat () in
  let t0 = Spans.now_ns () in
  (* (round, wall, is a write, (simulated ms, cache hit) of a read) of
     every completed statement; the last round's read rows aside *)
  let log = ref [] and last_rows = ref [] in
  let rec loop r =
    let last =
      o.max_stmts <> None
      || ((r + 1) mod analyze_every = 0 && out_of_time ~t0 ~seconds:o.seconds)
    in
    List.iter
      (fun st ->
         between win;
         match drift_exec off engine ~mode ~i:0 g st with
         | Some (w, Some (rep, hit)) ->
           Layers.add acc rep;
           (match st with
            | Read s when last ->
              last_rows := (s, canon rep.Dispatcher.rows) :: !last_rows
            | _ -> ());
           log := (r, w, false, Some (rep.Dispatcher.elapsed_ms, hit)) :: !log
         | Some (w, None) ->
           log := (r, w, (match st with Write _ -> true | _ -> false), None) :: !log
         | None -> ())
      (drift_round ~seed:o.seed ~reads ~base d catalog r ~last);
    if last then r + 1 else loop (r + 1)
  in
  let rounds = loop first in
  let g1 = Gc.quick_stat () in
  let log = List.rev !log in
  (* the last round's reads against an untimed Off pass over the same,
     final, data state *)
  List.iter
    (fun ((s : Gen.stmt), rows) ->
       match Engine.execute engine ~mode:Dispatcher.Off s.sql with
       | Engine.Rows off when canon off.Dispatcher.rows = rows -> ()
       | _ ->
         g.failed <- g.failed + 1;
         g.errors <- (s.label ^ ": rows differ from the Off reference") :: g.errors)
    !last_rows;
  (* traced run: a fresh database replays the first quarter of the timed
     rounds *)
  let head_end = first + ((rounds - first + 3) / 4) in
  let traced_ms = ref 0.0 in
  if sp.Spans.on then begin
    let engine2, catalog2, _ = setup_once Drift_rw ~sf in
    warm engine2 catalog2;
    let i = ref 0 in
    for r = first to head_end - 1 do
      List.iter
        (fun st ->
           (match drift_exec sp engine2 ~mode ~i:!i g st with
            | Some (w, _) -> traced_ms := !traced_ms +. w
            | None -> ());
           incr i)
        (drift_round ~seed:o.seed ~reads ~base d catalog2 r ~last:(r = rounds - 1))
    done;
    Engine.shutdown engine2
  end;
  (* (wall, simulated ms) of the reads that pass [f round hit] *)
  let reads_of f =
    List.filter_map
      (fun (r, w, _, read) ->
         match read with Some (sim, hit) when f r hit -> Some (w, sim) | _ -> None)
      log
  in
  let all_reads = reads_of (fun _ _ -> true) in
  (* simulated metrics: the first timed epoch, however many fit *)
  let sim = List.map snd (reads_of (fun r _ -> r < first + analyze_every)) in
  let writes =
    List.filter_map (fun (_, w, write, _) -> if write then Some w else None) log
  in
  let hits = reads_of (fun _ hit -> hit)
  and misses = reads_of (fun _ hit -> not hit) in
  { stmts = List.length log;
    busy_ms = Stat.sum (List.map (fun (_, w, _, _) -> w) log);
    walls = List.map fst all_reads;
    sim;
    sim_lat = sim;
    extra =
      gc_metrics g0 g1 (List.length log)
      @ [ layer ~clock:"count" ~stat:"ratio" "core.plan_cache_hit_ratio" "ratio"
            (Stat.ratio (float_of_int (List.length hits))
               (float_of_int (List.length all_reads)))
            ~n:(List.length all_reads);
          layer "core.cached_stmt_ms" "ms" (Stat.mean (List.map fst hits))
            ~n:(List.length hits);
          layer "core.uncached_stmt_ms" "ms" (Stat.mean (List.map fst misses))
            ~n:(List.length misses);
          layer ~stat:"p50" "storage.write_ms_p50" "ms"
            (Stat.percentile 0.5 writes) ~n:(List.length writes);
          layer ~clock:"count" ~stat:"total" "bench.rounds" "count"
            (float_of_int (rounds - first)) ];
    head_ms =
      ( Stat.sum
          (List.filter_map
             (fun (r, w, _, _) -> if r < head_end then Some w else None)
             log),
        !traced_ms ) }

(* --- svc-mixed: open loop over the query service ----------------------- *)

let svc_nominal = 0.3
let svc_ladder = [ 0.15; svc_nominal; 0.6 ]
let svc_arrivals = 125
let svc_concurrency = 3

type episode = {
  report : Service.report;
  wall_ms : float;
  cost_ms : (int, float) Hashtbl.t;
      (* wall the service spent on each statement: its submission and the
         steps that advanced it *)
  queued_at_last : int;  (* admission backlog when the last arrival came *)
  queue_max : int;
  lags : float list;     (* simulated ms the feed ran behind each arrival *)
  steps : int;
  pages_clean : bool;    (* no tenant holds transient pages after the drain *)
}

(* Simulated schedule of an episode: identical arrivals must reproduce it
   bit for bit. *)
let fingerprint (r : Service.report) =
  List.map
    (fun (s : Session.stmt) ->
       (s.Session.stmt_id, s.Session.stmt_admit_ms, s.Session.stmt_finish_ms))
    r.Service.statements

(* Feed the arrivals to the service as its simulated clock reaches them
   (or when it is idle), stepping it in between, then drain.  Submitting
   everything up front would overflow the admission queue and shed.  With
   [win], [between] runs after every step; the episode's wall leaves its
   calibration slices out. *)
let svc_episode ?win sp engine arrivals =
  let wall_clock () = Int64.to_float (Spans.now_ns ()) /. 1e9 in
  let options =
    { Service.default_options with
      Service.policy = Service.Slo_aware;
      max_concurrency = svc_concurrency;
      wall_clock = Some wall_clock }
  in
  let svc = Service.create ~options engine in
  Service.add_tenant svc ~slo:Session.Interactive "web";
  Service.add_tenant svc ~slo:Session.Batch "etl";
  let sessions =
    List.map (fun t -> (t, Service.open_session svc ~tenant:t)) [ "web"; "etl" ]
  in
  let n = List.length arrivals in
  let cost = Hashtbl.create 256 in
  let charge id ms =
    Hashtbl.replace cost id
      (ms +. Option.value ~default:0.0 (Hashtbl.find_opt cost id))
  in
  let queued_at_last = ref 0 and queue_max = ref 0 in
  let lags = ref [] and traced_steps = ref [] and nsteps = ref 0 in
  let note_queue () = queue_max := max !queue_max (Service.queued_count svc) in
  let submit p i (a : Gen.arrival) =
    lags := Float.max 0.0 (Service.now_ms svc -. a.Gen.at_ms) :: !lags;
    let id, ms =
      timed (fun () ->
          Spans.span sp ~parent:p ~stmt:i "wlm.submit" (fun _ ->
              Session.submit ~label:a.Gen.stmt.Gen.label ~arrival_ms:a.Gen.at_ms
                (List.assoc a.Gen.tenant sessions) a.Gen.stmt.Gen.sql))
    in
    charge id ms;
    if i = n - 1 then queued_at_last := Service.queued_count svc;
    note_queue ()
  in
  (* simulated position of every running statement: the one a step moved
     is the one it advanced *)
  let positions () =
    List.filter_map
      (fun (s : Session.stmt) ->
         Option.map (fun r -> (s, Dispatcher.run_elapsed_ms r)) s.Session.stmt_run)
      (Service.running_statements svc)
  in
  let step p =
    incr nsteps;
    let before = positions () in
    let (progressed, span_id), ms =
      timed (fun () ->
          Spans.span sp ~parent:p ~stmt:n "wlm.service_step" (fun id ->
              (Service.step svc, id)))
    in
    List.iter
      (fun ((s : Session.stmt), s0) ->
         let s1 =
           Option.fold ~none:s0 ~some:Dispatcher.run_elapsed_ms s.Session.stmt_run
         in
         if s1 > s0 then begin
           charge s.Session.stmt_id ms;
           if sp.Spans.on then traced_steps := (span_id, s, s0, s1) :: !traced_steps
         end)
      before;
    note_queue ();
    Option.iter between win;
    progressed
  in
  let calib_ms () =
    Option.fold ~none:0.0 ~some:(fun w -> w.cal.Calib.spent_ms) win
  in
  let c0 = calib_ms () in
  let t0 = Spans.now_ns () in
  Spans.span sp ~stmt:n "episode" (fun p ->
      let rec feed i = function
        | [] -> ()
        | (a : Gen.arrival) :: rest ->
          if Service.now_ms svc >= a.Gen.at_ms || Service.idle svc || not (step p)
          then begin
            submit p i a;
            feed (i + 1) rest
          end
          else feed i (a :: rest)
      in
      feed 0 arrivals;
      while step p do () done);
  let wall_ms = Spans.ms_between t0 (Spans.now_ns ()) -. (calib_ms () -. c0) in
  List.iter
    (fun (id, (s : Session.stmt), s0, s1) ->
       match s.Session.stmt_status with
       | Session.Done rep ->
         Spans.annotate sp id [ ("stmt", string_of_int s.Session.stmt_id) ];
         annotate_step sp id rep s0 s1
       | _ -> ())
    !traced_steps;
  { report = Service.report svc;
    wall_ms;
    cost_ms = cost;
    queued_at_last = !queued_at_last;
    queue_max = !queue_max;
    lags = !lags;
    steps = !nsteps;
    pages_clean =
      List.for_all
        (fun t -> Service.tenant_pages_in_flight svc t = 0)
        [ "web"; "etl" ] }

(* Simulated latency, arrival to finish, of a class's completed statements. *)
let latencies slo (r : Service.report) =
  List.filter_map
    (fun (s : Session.stmt) ->
       match s.Session.stmt_status with
       | Session.Done _ when s.Session.stmt_slo = slo ->
         Some (s.Session.stmt_finish_ms -. s.Session.stmt_arrival_ms)
       | _ -> None)
    r.Service.statements

let svc o engine catalog g acc sp win =
  let pick ts =
    List.concat_map Array.to_list (Gen.param_sets ~seed:o.seed ~sets:3 catalog ts)
  in
  let web = pick Gen.[ q1; q6; q3; q10 ] and etl = pick Gen.[ q5; q7; q8 ] in
  let n = Option.value ~default:svc_arrivals o.max_stmts in
  let arrivals rate =
    Gen.arrivals ~seed:o.seed ~rate ~n ~web ~etl
  in
  let nominal = arrivals svc_nominal in
  let distinct =
    List.sort_uniq compare (List.map (fun (a : Gen.arrival) -> a.Gen.stmt) nominal)
  in
  List.iter (fun (s : Gen.stmt) -> ignore (Engine.run_sql engine s.sql)) distinct;
  let reference = Hashtbl.create 8 in
  List.iter
    (fun (s : Gen.stmt) ->
       let r = Engine.run_sql engine ~mode:Dispatcher.Off s.sql in
       Hashtbl.replace reference s.label (canon r.Dispatcher.rows))
    distinct;
  let off = Spans.create ~on:false in
  (* every statement of an episode checked against its solo Off rows; the
     episode-level invariants ride on its first statement *)
  let verify ~first_fp e =
    List.iteri
      (fun i (s : Session.stmt) ->
         let episode_checks =
           if i > 0 then []
           else
             [ (e.report.Service.outstanding_leases = 0,
                "broker leases outstanding");
               (e.pages_clean, "tenant pages in flight after drain");
               (first_fp = None || first_fp = Some (fingerprint e.report),
                "simulated schedule differs between identical episodes") ]
         in
         let label = s.Session.stmt_label in
         match s.Session.stmt_status with
         | Session.Done r ->
           ignore
             (check g label
                ([ (canon r.Dispatcher.rows = Hashtbl.find reference label,
                    "rows differ from the solo Off reference");
                   pages_ok r ]
                 @ episode_checks))
         | st ->
           ignore
             (check g label
                ((false, "ended " ^ Session.status_to_string st)
                 :: episode_checks)))
      e.report.Service.statements
  in
  Gc.full_major ();
  let g0 = Gc.quick_stat () in
  let t0 = Spans.now_ns () in
  (* queueing happens on the simulated timeline, so a statement's wall
     latency is the wall the service spent on it *)
  let cost e (s : Session.stmt) =
    Option.value ~default:0.0 (Hashtbl.find_opt e.cost_ms s.Session.stmt_id)
  in
  let done_costs e =
    List.filter_map
      (fun (s : Session.stmt) ->
         match s.Session.stmt_status with
         | Session.Done _ -> Some (cost e s)
         | _ -> None)
      e.report.Service.statements
  in
  let e0 = svc_episode ~win off engine nominal in
  verify ~first_fp:None e0;
  (* replay the arrivals while another episode still ends inside the
     window; only the first episode's reports are kept *)
  let rec replay walls busy =
    if o.max_stmts <> None
    || Spans.ms_between t0 (Spans.now_ns ()) +. e0.wall_ms > o.seconds *. 1000.0
    then (walls, busy)
    else begin
      let e = svc_episode ~win off engine nominal in
      verify ~first_fp:(Some (fingerprint e0.report)) e;
      replay (walls @ done_costs e) (busy +. e.wall_ms)
    end
  in
  let walls, busy_ms = replay (done_costs e0) e0.wall_ms in
  let g1 = Gc.quick_stat () in
  let done_reports (r : Service.report) =
    List.filter_map
      (fun (s : Session.stmt) ->
         match s.Session.stmt_status with
         | Session.Done rep -> Some (s, rep)
         | _ -> None)
      r.Service.statements
  in
  List.iter (fun (_, rep) -> Layers.add acc rep) (done_reports e0.report);
  let stmts = List.length walls in
  (* the traced run repeats the first quarter of the arrivals, untraced
     and traced, so the two differ only by the spans *)
  let head = List.filteri (fun i _ -> i < (n + 3) / 4) nominal in
  (* the rate ladder and the traced episode run only in the traced run *)
  let ladder, head_ms =
    if not sp.Spans.on then ([], (0.0, 0.0))
    else begin
      let rungs =
        List.map
          (fun rate ->
             let e =
               if rate = svc_nominal then e0
               else begin
                 let e = svc_episode off engine (arrivals rate) in
                 verify ~first_fp:None e;
                 e
               end
             in
             (rate, e))
          svc_ladder
      in
      List.iteri
        (fun i (a : Gen.arrival) ->
           probe sp ~stmt:i ~replay:true engine ~mode:Dispatcher.Full
             a.Gen.stmt.Gen.sql)
        head;
      let head_run sp =
        let e = svc_episode sp engine head in
        verify ~first_fp:None e;
        Stat.sum (done_costs e)
      in
      let untraced = head_run off in
      (rungs, (untraced, head_run sp))
    end
  in
  let r0 = e0.report in
  let sum_t f = List.fold_left (fun a t -> a + f t) 0 r0.Service.tenants in
  let submitted = sum_t (fun t -> t.Service.tns_submitted) in
  let per x = Stat.ratio x (float_of_int (max 1 submitted)) in
  let passes (_, e) =
    Stat.percentile 0.9 (latencies Session.Interactive e.report)
    <= Service.default_options.Service.interactive.Service.target_ms
    && e.queued_at_last <= svc_concurrency
  in
  let capacity =
    List.fold_left
      (fun c ((rate, _) as rung) -> if passes rung then rate else c)
      0.0 ladder
  in
  let sim_m ?(clock = "sim") ?(stat = "mean") name unit_ v =
    layer ~clock ~stat ~n:submitted name unit_ v
  in
  let tenant_sum f = Stat.sum (List.map f r0.Service.tenants) in
  { stmts;
    busy_ms;
    walls;
    sim = List.map (fun (_, rep) -> rep.Dispatcher.elapsed_ms) (done_reports r0);
    sim_lat = latencies Session.Interactive r0;
    extra =
      gc_metrics g0 g1 stmts
      @ [ sim_m ~clock:"count" "wlm.steps" "count" (per (float_of_int e0.steps));
          sim_m "wlm.queue_sim_ms" "sim_ms"
            (per (tenant_sum (fun t -> t.Service.tns_queue_ms)));
          sim_m "wlm.exec_sim_ms" "sim_ms"
            (per (tenant_sum (fun t -> t.Service.tns_exec_ms)));
          sim_m ~clock:"count" "wlm.broker_waits" "count"
            (per (float_of_int (sum_t (fun t -> t.Service.tns_broker_waits))));
          sim_m ~clock:"count" ~stat:"peak" "wlm.peak_leased_pages" "pages"
            (float_of_int r0.Service.peak_leased_pages);
          sim_m ~clock:"count" ~stat:"ratio" "wlm.stats_applied_ratio" "ratio"
            (Stat.ratio (float_of_int r0.Service.stats_applied)
               (float_of_int r0.Service.stats_published));
          sim_m ~clock:"count" ~stat:"peak" "wlm.queue_len_max" "count"
            (float_of_int e0.queue_max);
          sim_m "wlm.feed_lag_ms" "sim_ms" (Stat.mean e0.lags);
          sim_m ~clock:"count" ~stat:"ratio" "wlm.miss_frac" "ratio"
            (per (float_of_int (sum_t (fun t -> t.Service.tns_deadline_miss))));
          sim_m ~stat:"p50" "wlm.batch_p50_sim_ms" "sim_ms"
            (Stat.percentile 0.5 (latencies Session.Batch r0));
          sim_m ~clock:"count" ~stat:"max" "wlm.capacity_sps" "1/sim_s" capacity ]
      @ List.map
          (fun (rate, e) ->
             layer ~clock:"sim" ~stat:"p90"
               (Printf.sprintf "wlm.int_p90_sim_ms.rate_%g" rate) "sim_ms"
               (Stat.percentile 0.9 (latencies Session.Interactive e.report)))
          ladder;
    head_ms }

(* --- per-layer wall metrics from the traced run's spans ----------------- *)

let span_metrics sp =
  let spans = Spans.spans sp in
  let named n = List.filter (fun (s : Spans.span) -> s.Spans.name = n) spans in
  let durs n = List.map Spans.dur_ms (named n) in
  let arg k (s : Spans.span) =
    Option.fold ~none:0.0 ~some:float_of_string (List.assoc_opt k s.Spans.args)
  in
  let opt = named "opt.optimize" in
  let plans = Stat.sum (List.map (arg "plans") opt) in
  let steps = named "core.step" in
  let replan, unit_steps =
    List.partition
      (fun (s : Spans.span) ->
         List.assoc_opt "replanned" s.Spans.args = Some "true")
      steps
  in
  let step_ms = List.map Spans.dur_ms steps in
  let starts = List.length (named "core.start") in
  let per_stmt x = Stat.ratio x (float_of_int starts) in
  let opt_ms = Stat.mean (durs "opt.optimize") in
  let start_ms = Stat.mean (durs "core.start") in
  let svc_steps = durs "wlm.service_step" in
  [ layer "sql.bind_us" "us" (1000.0 *. Stat.mean (durs "sql.bind"))
      ~n:(List.length (named "sql.bind"));
    layer "opt.optimize_ms" "ms" opt_ms ~n:(List.length opt);
    layer ~clock:"count" "opt.plans_enumerated" "count"
      (Stat.ratio plans (float_of_int (List.length opt)));
    layer "opt.wall_us_per_plan" "us"
      (1000.0 *. Stat.ratio (Stat.sum (durs "opt.optimize")) plans);
    layer ~clock:"count" "opt.alloc_mw" "Mwords"
      (Stat.mean (List.map (arg "alloc_w") opt) /. 1e6);
    layer "core.start_ms" "ms" start_ms ~n:starts;
    layer "core.instrument_ms" "ms" (start_ms -. opt_ms) ~n:starts;
    layer ~stat:"p50" "core.step_ms_p50" "ms" (Stat.percentile 0.5 step_ms)
      ~n:(List.length steps);
    layer ~stat:"p90" "core.step_ms_p90" "ms" (Stat.percentile 0.9 step_ms)
      ~n:(List.length steps);
    layer ~clock:"count" "core.steps" "count"
      (per_stmt (float_of_int (List.length steps)));
    layer "core.replan_step_ms" "ms"
      (Stat.mean (List.map Spans.dur_ms replan)) ~n:(List.length replan);
    layer "core.unit_step_ms" "ms"
      (Stat.mean (List.map Spans.dur_ms unit_steps)) ~n:(List.length unit_steps);
    layer "exec.unit_wall_ms" "ms" (per_stmt (Stat.sum step_ms)) ~n:starts;
    layer ~stat:"p50" "wlm.service_step_ms_p50" "ms"
      (Stat.percentile 0.5 svc_steps) ~n:(List.length svc_steps);
    layer ~stat:"p90" "wlm.service_step_ms_p90" "ms"
      (Stat.percentile 0.9 svc_steps) ~n:(List.length svc_steps);
    layer ~stat:"ratio" "bench.coverage_pct" "%" (Spans.coverage_pct sp) ]

(* --- one workload, end to end ----------------------------------------- *)

(* Layer metrics of layers only one workload exercises (the plan cache,
   the query service): the other workloads report them as 0. *)
let idle_layers =
  [ ("core.plan_cache_hit_ratio", "ratio", "count");
    ("wlm.steps", "count", "count");
    ("wlm.queue_sim_ms", "sim_ms", "sim");
    ("wlm.exec_sim_ms", "sim_ms", "sim");
    ("wlm.broker_waits", "count", "count");
    ("wlm.peak_leased_pages", "pages", "count");
    ("wlm.stats_applied_ratio", "ratio", "count");
    ("wlm.queue_len_max", "count", "count");
    ("wlm.feed_lag_ms", "sim_ms", "sim");
    ("wlm.miss_frac", "ratio", "count");
    ("wlm.batch_p50_sim_ms", "sim_ms", "sim");
    ("wlm.capacity_sps", "1/sim_s", "count") ]

let run (w : spec) (o : opts) =
  let sf = Option.value ~default:w.sf o.sf in
  let engine, catalog, timings = setup w.kind ~sf in
  let g = { attempted = 0; failed = 0; errors = [] } in
  let acc = Layers.create () in
  let sp = Spans.create ~on:o.trace in
  let win = { cal = Calib.create ~on:(o.max_stmts = None); heap_words = [] } in
  let m =
    match w.kind with
    | Dss_complex | Dss_scan -> dss w.kind o engine catalog g acc sp win
    | Drift_rw -> drift o ~sf engine catalog g acc sp win
    | Svc_mixed -> svc o engine catalog g acc sp win
  in
  let cal = win.cal in
  Engine.shutdown engine;
  let med f = Stat.percentile 0.5 (List.map f timings) in
  let nw = List.length m.walls in
  (* wall metrics as measured; the end-to-end ones are scaled to the
     reference machine speed (calib.ml) *)
  let walls =
    [ ("setup_s", "s", "median", med (fun s -> s.total_s), setups);
      ("throughput_sps", "1/s", "rate",
       Stat.ratio (float_of_int m.stmts) (m.busy_ms /. 1000.0), m.stmts);
      ("latency_p50_ms", "ms", "p50", Stat.percentile 0.5 m.walls, nw);
      ("latency_p90_ms", "ms", "p90", Stat.percentile 0.9 m.walls, nw) ]
  in
  let f = Calib.factor cal in
  let e2e_metrics =
    List.map
      (fun (name, unit_, stat, v, n) ->
         e2e ~stat name unit_ (if unit_ = "1/s" then v /. f else v *. f) ~n)
      walls
    @ [ e2e ~clock:"sim" ~stat:"mean" "sim_ms_per_stmt" "sim_ms" (Stat.mean m.sim)
          ~n:(List.length m.sim);
        e2e ~clock:"sim" ~stat:"p90" "sim_latency_p90_ms" "sim_ms"
          (Stat.percentile 0.9 m.sim_lat) ~n:(List.length m.sim_lat);
        e2e ~clock:"count" ~stat:"p90" "heap_p90_mb" "MB"
          (Stat.percentile 0.9
             (List.map
                (fun w -> float_of_int (w * (Sys.word_size / 8)) /. 1e6)
                win.heap_words))
          ~n:(List.length win.heap_words);
        e2e ~clock:"count" ~stat:"ratio" "failed_frac" "ratio"
          (Stat.ratio (float_of_int g.failed) (float_of_int g.attempted))
          ~n:g.attempted ]
  in
  let traced =
    if not o.trace then []
    else
      let untraced, traced = m.head_ms in
      span_metrics sp
      @ [ layer ~stat:"ratio" "bench.trace_overhead_pct" "%"
            (100.0 *. (Stat.ratio traced untraced -. 1.0)) ]
  in
  let layers =
    [ layer ~stat:"median" "tpcd.datagen_s" "s" (med (fun s -> s.datagen_s))
        ~n:setups;
      layer ~stat:"median" "tpcd.degrade_ms" "ms" (med (fun s -> s.degrade_ms))
        ~n:setups;
      layer ~stat:"median" "bench.calib_ms" "ms" (Calib.median_ms cal)
        ~n:(List.length cal.Calib.slices) ]
    @ List.map
        (fun (name, unit_, stat, v, n) -> layer ~stat ("raw." ^ name) unit_ v ~n)
        walls
    @ List.map
        (fun (name, unit_, value) ->
           let clock = if unit_ = "sim_ms" then "sim" else "count" in
           layer ~clock name unit_ value ~n:acc.Layers.n)
        (Layers.metrics acc)
    @ m.extra @ traced
  in
  let layers =
    layers
    @ List.filter_map
        (fun (name, unit_, clock) ->
           if List.exists (fun (x : metric) -> x.name = name) layers then None
           else Some (layer ~clock ~stat:"idle" name unit_ 0.0))
        idle_layers
  in
  { metrics = e2e_metrics @ layers;
    attempted = g.attempted;
    failed = g.failed;
    errors = List.rev g.errors;
    spans = sp;
    sf_used = sf }
