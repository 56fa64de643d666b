module Engine = Mqr_core.Engine
module Dispatcher = Mqr_core.Dispatcher
module Verifier = Mqr_analysis.Verifier
module Trace = Mqr_obs.Trace
module Metrics = Mqr_obs.Metrics

type policy = Slo_aware

type slo_class = { target_ms : float; weight : int }

type options = {
  max_concurrency : int;
  max_queue : int;
  policy : policy;
  interactive : slo_class;
  batch : slo_class;
  feedback : bool;
  wall_clock : (unit -> float) option;
}

let default_options =
  { max_concurrency = 4;
    max_queue = 64;
    policy = Slo_aware;
    interactive = { target_ms = 2000.0; weight = 4 };
    batch = { target_ms = 60000.0; weight = 1 };
    feedback = true;
    wall_clock = None }

type tenant_summary = {
  tns_tenant : string;
  tns_slo : Session.slo;
  tns_target_ms : float;
  mutable tns_submitted : int;
  mutable tns_completed : int;
  mutable tns_failed : int;
  mutable tns_cancelled : int;
  mutable tns_shed : int;
  mutable tns_replans : int;
  mutable tns_violations : int;
  mutable tns_deadline_miss : int;
  mutable tns_min_headroom_ms : float;
  mutable tns_queue_ms : float;
  mutable tns_exec_ms : float;
  mutable tns_peak_leased : int;    (* the broker's; filled in by [report] *)
  mutable tns_broker_waits : int;   (* likewise *)
}

type t = {
  engine : Engine.t;
  options : options;
  broker : Broker.t;
  cache : Stats_cache.t option;
  trace : Trace.t option;
  tenants : (string, tenant_summary) Hashtbl.t;
  queue : Session.stmt Admission.t;
  mutable running : Session.stmt list;  (* admission order, oldest first *)
  mutable all : Session.stmt list;      (* submission order, newest first *)
  mutable session_list : Session.t list; (* open order, newest first *)
  mutable next_stmt : int;
  mutable next_session : int;
  (* virtual clock: the latest point on the shared simulated timeline any
     statement has reached.  Scheduling reads only this (and deadlines
     derived from it), never the wall clock, so the interleaving — and
     with it every simulated time — is deterministic. *)
  mutable now_ms : float;
  mutable rr : int;                     (* rotation among tied deadlines *)
  mutable wall_t0 : float;
  mutable wall_last : float;
}

let wall t =
  match t.options.wall_clock with Some clock -> clock () | None -> 0.0

let create ?(options = default_options) ?trace engine =
  if options.max_concurrency < 1 then
    invalid_arg "Service.create: max_concurrency < 1";
  let t =
    { engine;
      options;
      broker =
        Broker.create ~budget_pages:(Engine.budget_pages engine)
          ~max_concurrency:options.max_concurrency;
      cache = (if options.feedback then Some (Stats_cache.create ()) else None);
      trace;
      tenants = Hashtbl.create 4;
      queue = Admission.create ~capacity:options.max_queue;
      running = [];
      all = [];
      session_list = [];
      next_stmt = 0;
      next_session = 0;
      now_ms = 0.0;
      rr = 0;
      wall_t0 = 0.0;
      wall_last = 0.0 }
  in
  t.wall_t0 <- wall t;
  t.wall_last <- t.wall_t0;
  t

let broker t = t.broker

let class_of t (slo : Session.slo) =
  match slo with
  | Session.Interactive -> t.options.interactive
  | Session.Batch -> t.options.batch

let tenant_of t name =
  match Hashtbl.find_opt t.tenants name with
  | Some tn -> tn
  | None -> invalid_arg (Printf.sprintf "Service: unknown tenant %s" name)

let add_tenant ?weight ?target_ms t ~slo name =
  if Hashtbl.mem t.tenants name then
    invalid_arg (Printf.sprintf "Service.add_tenant: duplicate tenant %s" name);
  let cls = class_of t slo in
  let target_ms = Option.value ~default:cls.target_ms target_ms in
  (* the broker validates the weight first, so a refused tenant is
     registered nowhere *)
  Broker.register_tenant t.broker name
    ~weight:(Option.value ~default:cls.weight weight);
  Hashtbl.replace t.tenants name
    { tns_tenant = name;
      tns_slo = slo;
      tns_target_ms = target_ms;
      tns_submitted = 0;
      tns_completed = 0;
      tns_failed = 0;
      tns_cancelled = 0;
      tns_shed = 0;
      tns_replans = 0;
      tns_violations = 0;
      tns_deadline_miss = 0;
      tns_min_headroom_ms = infinity;
      tns_queue_ms = 0.0;
      tns_exec_ms = 0.0;
      tns_peak_leased = 0;
      tns_broker_waits = 0 }

let tenant_names t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.tenants []
  |> List.sort compare

(* --- admission --------------------------------------------------------- *)

let queued_count t = Admission.length t.queue

(* Running statements and queued ones: a statement cancelled while it
   waited stays in the queue until the next purge, but is no work. *)
let tenant_has_work t name =
  List.exists (fun (s : Session.stmt) -> s.Session.stmt_tenant = name) t.running
  || Admission.exists t.queue (fun (s : Session.stmt) ->
         s.Session.stmt_tenant = name && s.Session.stmt_status = Session.Queued)

let can_admit_stmt t (s : Session.stmt) =
  List.length t.running < t.options.max_concurrency
  && (t.running = []
      (* liveness valve: with nothing in flight the admission-floor and
         fair-share reserves cannot be blocking anyone who is actually
         using pages, so refusing here would deadlock the service (e.g.
         max_concurrency 1 makes the floor the whole budget, which no
         tenant's share ever covers).  The broker still clips the
         admitted statement's lease to its tenant's entitlement. *)
      || Broker.can_admit_tenant t.broker ~active:(tenant_has_work t)
           s.Session.stmt_tenant)

(* Drop queue entries cancelled while they waited. *)
let rec purge_queue t =
  match Admission.take_if t.queue Session.stmt_finished with
  | Some _ -> purge_queue t
  | None -> ()

(* Weighted re-grants: freed pages go to queued statements first (the
   caller admits before it re-grants), then top up the runs still in
   flight in order of entitlement (least leased relative to tenant weight
   first), so the broker's fair shares are re-filled before opportunistic
   growth.  Equal keys keep admission order (the sort is stable). *)
let regrant t =
  let key (s : Session.stmt) =
    float_of_int (Broker.tenant_leased t.broker s.Session.stmt_tenant)
    /. float_of_int (Broker.tenant_weight t.broker s.Session.stmt_tenant)
  in
  List.iter
    (fun (s : Session.stmt) ->
       Option.iter Dispatcher.refresh_memory s.Session.stmt_run)
    (List.stable_sort (fun a b -> compare (key a) (key b)) t.running)

(* --- observers ---------------------------------------------------------- *)

(* A tenant's transient pages: bloom bitmaps + worker pool slices over
   all its in-flight runs. *)
let tenant_pages_in_flight t name =
  List.fold_left
    (fun acc (s : Session.stmt) ->
       match s.Session.stmt_run with
       | Some run when s.Session.stmt_tenant = name ->
         acc + Dispatcher.transient_pages_held run
       | _ -> acc)
    0 t.running

(* What the scheduler tells its observers, each at one fixed point:
   a statement's wait is over (before its run starts); its terminal status
   and counts are set and its lease released (before any re-admission); a
   step left its run at a decision point or at completion. *)
type event =
  | Admitted of Session.stmt
  | Finished of { stmt : Session.stmt; on_time : bool; held_slot : bool }
  | Settled of string

(* The one reader of the trace — the per-tenant svc.* metrics and the
   statements' trace lanes — and of the sanitizer switch.  Returns the
   lane an [Admitted] statement's run stamps its spans on.

   At [Settled], i.e. whenever the scheduler observes its runs from
   outside a step, each registered tenant's transient pages, the sum the
   monitor reads, must be zero: the service-level TEN-LIFETIME check the
   sanitizer mode enables. *)
let observe t ev =
  let metric s what f =
    Option.iter
      (fun tr ->
         f (Trace.metrics tr)
           (Printf.sprintf "svc.%s.%s" s.Session.stmt_tenant what))
      t.trace
  in
  let incr ?by s what = metric s what (fun m n -> Metrics.incr m ?by n)
  and gauge s what v = metric s what (fun m n -> Metrics.set_gauge m n v)
  and sample s what v = metric s what (fun m n -> Metrics.observe m n v) in
  let since_arrival s ms = ms -. s.Session.stmt_arrival_ms in
  match ev with
  | Admitted s ->
    sample s "queue_ms" (since_arrival s s.Session.stmt_admit_ms);
    Option.map
      (fun tr ->
         Trace.scope tr ~offset_ms:s.Session.stmt_admit_ms
           ~tenant:s.Session.stmt_tenant
           ~label:
             (Printf.sprintf "%s/%s" s.Session.stmt_tenant
                s.Session.stmt_label)
           ())
      t.trace
  | Finished { stmt = s; on_time; held_slot } ->
    let tenant = s.Session.stmt_tenant in
    (match s.Session.stmt_status with
     | Session.Done rep ->
       let switches = rep.Dispatcher.switches in
       if switches > 0 then incr ~by:switches s "replans";
       if not on_time then incr s "slo_violations";
       gauge s "slo_headroom_ms" (tenant_of t tenant).tns_min_headroom_ms;
       sample s "latency_ms" (since_arrival s s.Session.stmt_finish_ms)
     | Session.Shed -> incr s "shed"
     | _ -> ());
    if not on_time then incr s "deadline_miss";
    if held_slot then
      gauge s "broker_waits"
        (float_of_int (Broker.tenant_floor_waits t.broker tenant));
    None
  | Settled what ->
    if Engine.sanitize t.engine then
      List.iter
        (fun tenant ->
           let pages = tenant_pages_in_flight t tenant in
           if pages <> 0 then Verifier.reject_tenant_pages ~what ~tenant ~pages)
        (tenant_names t);
    None

(* Start a statement: bind, open its trace lane on the shared timeline,
   and hand it to the dispatcher under the tenant-tagged broker hook.
   Any exception (parse error, verifier rejection) marks the statement
   Failed without disturbing the service. *)
let rec start_stmt t (s : Session.stmt) ~now =
  let tn = tenant_of t s.Session.stmt_tenant in
  s.Session.stmt_admit_ms <- Float.max s.Session.stmt_arrival_ms now;
  let queue_ms = s.Session.stmt_admit_ms -. s.Session.stmt_arrival_ms in
  tn.tns_queue_ms <- tn.tns_queue_ms +. queue_ms;
  let scope = observe t (Admitted s) in
  let id = s.Session.stmt_id in
  (* the queue length and every tenant's activity are read live at each
     lease: the broker keeps no copy of them *)
  let broker_fn ~min_pages ~max_pages =
    Broker.lease t.broker ~tenant:tn.tns_tenant ~pending:(queued_count t)
      ~active:(tenant_has_work t) ~id ~min_pages ~max_pages
  in
  let env_overlay =
    Option.map
      (fun c q env -> Stats_cache.overlay c (Engine.catalog t.engine) q env)
      t.cache
  in
  (* per-statement progress estimator, fed by the dispatcher at every
     decision point; pure observation, so it cannot perturb the run *)
  let progress = Mqr_obs.Progress.create () in
  s.Session.stmt_progress <- Some progress;
  match
    let query = Engine.bind_sql t.engine s.Session.stmt_sql in
    let cfg =
      Engine.dispatcher_config t.engine ~mode:s.Session.stmt_mode
        ~broker:broker_fn ?env_overlay
        ~temp_prefix:s.Session.stmt_temp_prefix ?trace:scope ~progress ()
    in
    (query, Dispatcher.start cfg query)
  with
  | query, run ->
    s.Session.stmt_query <- Some query;
    s.Session.stmt_run <- Some run;
    s.Session.stmt_status <- Session.Running;
    t.running <- t.running @ [ s ]
  | exception e -> finish t s (Session.Failed (Printexc.to_string e))

and try_admit t ~now =
  purge_queue t;
  if List.length t.running < t.options.max_concurrency then
    match Admission.take_if t.queue (can_admit_stmt t) with
    | Some s ->
      start_stmt t s ~now;
      try_admit t ~now
    | None -> ()

(* The one terminal path: takes [s] to Done, Failed, Cancelled or Shed and
   counts that for its tenant.  The run is dropped ([t.all] keeps the
   finished statement for reporting, and a kept run would pin its whole
   execution state, buffer pool included, for the life of the service)
   and the lease released; when the statement held a slot, the freed
   slot and pages go to queued, then running statements.  A completion
   is placed on the timeline first ([complete_stmt]). *)
and finish t (s : Session.stmt) status =
  let tn = tenant_of t s.Session.stmt_tenant in
  let held_slot = s.Session.stmt_status = Session.Running in
  s.Session.stmt_status <- status;
  let on_time =
    match status with
    | Session.Done rep ->
      tn.tns_completed <- tn.tns_completed + 1;
      tn.tns_replans <- tn.tns_replans + rep.Dispatcher.switches;
      let latency = s.Session.stmt_finish_ms -. s.Session.stmt_arrival_ms in
      let late = latency > tn.tns_target_ms in
      if late then tn.tns_violations <- tn.tns_violations + 1;
      tn.tns_min_headroom_ms <-
        Float.min tn.tns_min_headroom_ms (tn.tns_target_ms -. latency);
      (match s.Session.stmt_query, t.cache with
       | Some query, Some c ->
         Stats_cache.publish c (Engine.catalog t.engine) query rep
       | _ -> ());
      not late
    | Session.Failed _ ->
      tn.tns_failed <- tn.tns_failed + 1;
      false
    | Session.Cancelled ->
      tn.tns_cancelled <- tn.tns_cancelled + 1;
      false
    | Session.Shed ->
      tn.tns_shed <- tn.tns_shed + 1;
      false
    | Session.Queued | Session.Running ->
      invalid_arg "Service.finish: not a terminal status"
  in
  (* Whatever the terminal state, a statement that did not complete by
     its deadline is a deadline miss: a late completion, a failure (at
     start or mid-run), a cancellation or a shed all mean the client did
     not get its answer in time. *)
  if not on_time then tn.tns_deadline_miss <- tn.tns_deadline_miss + 1;
  t.running <-
    List.filter
      (fun (o : Session.stmt) -> o.Session.stmt_id <> s.Session.stmt_id)
      t.running;
  s.Session.stmt_run <- None;
  (* a statement that failed at start may hold a lease already *)
  Broker.release t.broker ~id:s.Session.stmt_id;
  ignore (observe t (Finished { stmt = s; on_time; held_slot }));
  if held_slot then begin
    try_admit t
      ~now:
        (match status with
         | Session.Done _ -> s.Session.stmt_finish_ms
         | _ -> t.now_ms);
    regrant t
  end

let complete_stmt t (s : Session.stmt) run rep =
  let elapsed = Dispatcher.run_elapsed_ms run in
  s.Session.stmt_finish_ms <- s.Session.stmt_admit_ms +. elapsed;
  t.now_ms <- Float.max t.now_ms s.Session.stmt_finish_ms;
  t.wall_last <- Float.max t.wall_last (wall t);
  let tn = tenant_of t s.Session.stmt_tenant in
  tn.tns_exec_ms <- tn.tns_exec_ms +. elapsed;
  finish t s (Session.Done rep)

let cancel_stmt t (s : Session.stmt) =
  match s.Session.stmt_status with
  | Session.Running | Session.Queued ->
    (* a queued statement stays in the admission queue until the next
       purge *)
    Option.iter Dispatcher.abort s.Session.stmt_run;
    finish t s Session.Cancelled
  | _ -> ()

(* --- submission -------------------------------------------------------- *)

let submit_stmt t (s : Session.stmt) =
  let tn = tenant_of t s.Session.stmt_tenant in
  tn.tns_submitted <- tn.tns_submitted + 1;
  t.all <- s :: t.all;
  if can_admit_stmt t s then start_stmt t s ~now:s.Session.stmt_arrival_ms
  else if not (Admission.offer ~deadline:s.Session.stmt_deadline_ms t.queue s)
  then finish t s Session.Shed

let open_session t ~tenant =
  let tn = tenant_of t tenant in
  let id = t.next_session in
  t.next_session <- id + 1;
  let hooks =
    { Session.h_alloc_id =
        (fun () ->
           let id = t.next_stmt in
           t.next_stmt <- id + 1;
           id);
      h_submit = (fun s -> submit_stmt t s);
      h_cancel = (fun s -> cancel_stmt t s) }
  in
  let session =
    Session.create ~hooks ~id ~tenant ~slo:tn.tns_slo
      ~target_ms:tn.tns_target_ms
  in
  t.session_list <- session :: t.session_list;
  session

(* --- the scheduler loop ------------------------------------------------ *)

(* Pick the next running statement to step: among those that share the
   earliest deadline, in admission order, the one at the cursor, which
   advances on every pick (a batch of equal deadlines is round-robin). *)
let pick t =
  let deadline (s : Session.stmt) = s.Session.stmt_deadline_ms in
  let earliest =
    List.fold_left (fun d s -> Float.min d (deadline s)) infinity t.running
  in
  match List.filter (fun s -> Float.equal (deadline s) earliest) t.running with
  | [] -> None
  | tied ->
    let s = List.nth tied (t.rr mod List.length tied) in
    t.rr <- t.rr + 1;
    Some s

(* Execute one execution unit of one statement.  Returns false once
   nothing is running or admittable. *)
let step t =
  if t.running = [] then try_admit t ~now:t.now_ms;
  match pick t with
  | None -> false
  | Some s ->
    (match s.Session.stmt_run with
     | None -> finish t s (Session.Failed "lost dispatcher run")
     | Some run ->
       (match Dispatcher.step run with
        | Some rep ->
          complete_stmt t s run rep;
          ignore (observe t (Settled "statement completion"))
        | None ->
          (* statement paused at a decision point: advance the virtual
             clock to the lane time it has reached *)
          t.now_ms <-
            Float.max t.now_ms
              (s.Session.stmt_admit_ms +. Dispatcher.run_elapsed_ms run);
          ignore (observe t (Settled "service decision point"))
        | exception (Verifier.Rejected _ as e) ->
          (* sanitizer findings are bugs: tear the statement down (the
             dispatcher already did) but let the rejection propagate *)
          finish t s (Session.Failed (Printexc.to_string e));
          raise e
        | exception e -> finish t s (Session.Failed (Printexc.to_string e))));
    true

let rec drain t = if step t then drain t else ()

let idle t = t.running = [] && queued_count t = 0

(* --- introspection (the monitor's raw material) ------------------------ *)

let sessions t = List.rev t.session_list
let all_statements t = List.rev t.all
let running_statements t = t.running
let now_ms t = t.now_ms
let service_trace t = t.trace

(* --- reporting --------------------------------------------------------- *)

type class_stats = {
  cs_n : int;
  cs_p50_ms : float;
  cs_p99_ms : float;
  cs_violations : int;
}

type report = {
  statements : Session.stmt list;      (* submission order *)
  classes : (Session.slo * class_stats) list;
  tenants : tenant_summary list;
  makespan_ms : float;
  wall_makespan_ms : float;
  peak_leased_pages : int;
  outstanding_leases : int;
  stats_published : int;
  stats_applied : int;
}

let class_stats t slo =
  let done_stmts =
    List.filter
      (fun (s : Session.stmt) ->
         s.Session.stmt_slo = slo
         && (match s.Session.stmt_status with
             | Session.Done _ -> true
             | _ -> false))
      (List.rev t.all)
  in
  let latencies =
    Array.of_list
      (List.sort Float.compare
         (List.map
            (fun (s : Session.stmt) ->
               s.Session.stmt_finish_ms -. s.Session.stmt_arrival_ms)
            done_stmts))
  in
  let violations =
    Hashtbl.fold
      (fun _ tn acc -> if tn.tns_slo = slo then acc + tn.tns_violations else acc)
      t.tenants 0
  in
  { cs_n = List.length done_stmts;
    cs_p50_ms = Metrics.quantile latencies 0.50;
    cs_p99_ms = Metrics.quantile latencies 0.99;
    cs_violations = violations }

let report t =
  let statements = List.rev t.all in
  let makespan_ms =
    List.fold_left
      (fun acc (s : Session.stmt) ->
         Float.max acc s.Session.stmt_finish_ms)
      0.0 statements
  in
  let tenants =
    List.map
      (fun name ->
         let tn = tenant_of t name in
         tn.tns_peak_leased <- Broker.tenant_peak t.broker name;
         tn.tns_broker_waits <- Broker.tenant_floor_waits t.broker name;
         tn)
      (tenant_names t)
  in
  { statements;
    classes =
      [ (Session.Interactive, class_stats t Session.Interactive);
        (Session.Batch, class_stats t Session.Batch) ];
    tenants;
    makespan_ms;
    wall_makespan_ms = (t.wall_last -. t.wall_t0) *. 1000.0;
    peak_leased_pages = Broker.peak_leased t.broker;
    outstanding_leases = Broker.outstanding t.broker;
    stats_published =
      (match t.cache with Some c -> Stats_cache.published c | None -> 0);
    stats_applied =
      (match t.cache with Some c -> Stats_cache.applied c | None -> 0) }

let pp_report fmt t =
  let r = report t in
  Fmt.pf fmt "@[<v>service: %d statements, makespan %.1f ms (sim)@,"
    (List.length r.statements) r.makespan_ms;
  if r.wall_makespan_ms > 0.0 then
    Fmt.pf fmt "  wall makespan %.1f ms@," r.wall_makespan_ms;
  List.iter
    (fun (slo, (cs : class_stats)) ->
       if cs.cs_n > 0 then
         Fmt.pf fmt
           "  %-11s n=%d  p50 %.1f ms  p99 %.1f ms  violations %d@,"
           (Session.slo_to_string slo)
           cs.cs_n cs.cs_p50_ms cs.cs_p99_ms cs.cs_violations)
    r.classes;
  List.iter
    (fun tn ->
       Fmt.pf fmt
         "  tenant %-10s [%s w=%d] %d/%d done  %d failed  %d cancelled  %d \
          shed  queue %.1f ms  exec %.1f ms  replans %d  peak %d pages  \
          misses %d%s@,"
         tn.tns_tenant
         (Session.slo_to_string tn.tns_slo)
         (Broker.tenant_weight t.broker tn.tns_tenant)
         tn.tns_completed tn.tns_submitted tn.tns_failed
         tn.tns_cancelled tn.tns_shed tn.tns_queue_ms tn.tns_exec_ms
         tn.tns_replans tn.tns_peak_leased tn.tns_deadline_miss
         (if Float.is_finite tn.tns_min_headroom_ms then
            Printf.sprintf "  headroom %.1f ms" tn.tns_min_headroom_ms
          else ""))
    r.tenants;
  Fmt.pf fmt "  peak leased %d pages  outstanding %d  stats %d/%d@]"
    r.peak_leased_pages r.outstanding_leases r.stats_published r.stats_applied
