module Dispatcher = Mqr_core.Dispatcher
module Trace = Mqr_obs.Trace
module Metrics = Mqr_obs.Metrics
module Progress = Mqr_obs.Progress

type view = Statements | Sessions | Tenants | Broker_leases | Ledger

let view_names = [ "statements"; "sessions"; "tenants"; "broker"; "ledger" ]

let view_of_string = function
  | "statements" -> Some Statements
  | "sessions" -> Some Sessions
  | "tenants" -> Some Tenants
  | "broker" -> Some Broker_leases
  | "ledger" -> Some Ledger
  | _ -> None

let view_to_string = function
  | Statements -> "statements"
  | Sessions -> "sessions"
  | Tenants -> "tenants"
  | Broker_leases -> "broker"
  | Ledger -> "ledger"

(* --- per-statement derived state ----------------------------------- *)

(* The estimator's samples are on the statement's private clock (0 = its
   admission); the service timeline adds the admission offset, which is
   how deadlines are expressed. *)
type stmt_progress = {
  sp_percent : float;
  sp_eta_lo_ms : float;  (* absolute, service timeline *)
  sp_eta_hi_ms : float;
  sp_updates : int;
}

let stmt_progress (s : Session.stmt) =
  match s.Session.stmt_progress with
  | None -> None
  | Some p ->
    (match Progress.latest p with
     | None -> None
     | Some sample ->
       Some
         { sp_percent = sample.Progress.percent;
           sp_eta_lo_ms =
             s.Session.stmt_admit_ms +. sample.Progress.eta_lo_ms;
           sp_eta_hi_ms =
             s.Session.stmt_admit_ms +. sample.Progress.eta_hi_ms;
           sp_updates = sample.Progress.seq + 1 })

let stmt_pages svc (s : Session.stmt) =
  let lease = Broker.lease_of (Service.broker svc) ~id:s.Session.stmt_id in
  let transient =
    match s.Session.stmt_run with
    | Some run -> Dispatcher.transient_pages_held run
    | None -> 0
  in
  lease + transient

(* A statement is at deadline risk as soon as its provable worst-case
   finish time crosses its deadline; a queued statement is at risk once
   the virtual clock itself is past the deadline. *)
let stmt_deadline_risk svc (s : Session.stmt) =
  if Session.stmt_finished s then false
  else
    match s.Session.stmt_status with
    | Session.Queued -> Service.now_ms svc > s.Session.stmt_deadline_ms
    | Session.Running ->
      (match stmt_progress s with
       | Some sp -> sp.sp_eta_hi_ms > s.Session.stmt_deadline_ms
       | None -> false)
    | _ -> false

(* --- stable JSON ---------------------------------------------------- *)

let jstr s = Trace.arg_json (Trace.Str s)
let jnum v = Trace.arg_json (Trace.Float v)
let jbool b = Trace.arg_json (Trace.Bool b)
let jobj fields =
  "{"
  ^ String.concat ", "
      (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %s" k v) fields)
  ^ "}"
let jarr items = "[" ^ String.concat ", " items ^ "]"

let status_string (s : Session.stmt) =
  Session.status_to_string s.Session.stmt_status

let stmt_fields svc (s : Session.stmt) =
  let progress = stmt_progress s in
  [ ("id", string_of_int s.Session.stmt_id);
    ("label", jstr s.Session.stmt_label);
    ("tenant", jstr s.Session.stmt_tenant);
    ("session", string_of_int s.Session.stmt_session);
    ("state", jstr (status_string s));
    ("mode", jstr (Dispatcher.mode_to_string s.Session.stmt_mode));
    ("arrival_ms", jnum s.Session.stmt_arrival_ms);
    ("deadline_ms", jnum s.Session.stmt_deadline_ms);
    ("percent",
     match progress with Some sp -> jnum sp.sp_percent | None -> "null");
    ("eta_lo_ms",
     match progress with Some sp -> jnum sp.sp_eta_lo_ms | None -> "null");
    ("eta_hi_ms",
     match progress with Some sp -> jnum sp.sp_eta_hi_ms | None -> "null");
    ("updates",
     match progress with
     | Some sp -> string_of_int sp.sp_updates
     | None -> "0");
    ("pages", string_of_int (stmt_pages svc s));
    ("deadline_risk", jbool (stmt_deadline_risk svc s)) ]

let session_fields (sess : Session.t) =
  let stmts = Session.statements sess in
  let count pred = List.length (List.filter pred stmts) in
  let is st (s : Session.stmt) = s.Session.stmt_status = st in
  [ ("id", string_of_int (Session.id sess));
    ("tenant", jstr (Session.tenant sess));
    ("slo", jstr (Session.slo_to_string (Session.slo sess)));
    ("closed", jbool (Session.closed sess));
    ("statements", string_of_int (List.length stmts));
    ("queued", string_of_int (count (is Session.Queued)));
    ("running", string_of_int (count (is Session.Running)));
    ("done",
     string_of_int
       (count (fun s ->
            match s.Session.stmt_status with
            | Session.Done _ -> true
            | _ -> false)));
    ("failed",
     string_of_int
       (count (fun s ->
            match s.Session.stmt_status with
            | Session.Failed _ -> true
            | _ -> false)));
    ("cancelled", string_of_int (count (is Session.Cancelled)));
    ("shed", string_of_int (count (is Session.Shed))) ]

let tenant_fields svc (tn : Service.tenant_summary) =
  let broker = Service.broker svc in
  let name = tn.Service.tns_tenant in
  let share = Broker.tenant_share broker name in
  let leased = Broker.tenant_leased broker name in
  let live = Service.all_statements svc in
  let at_risk =
    List.length
      (List.filter
         (fun (s : Session.stmt) ->
            s.Session.stmt_tenant = name && stmt_deadline_risk svc s)
         live)
  in
  [ ("tenant", jstr name);
    ("slo", jstr (Session.slo_to_string tn.Service.tns_slo));
    ("weight", string_of_int (Broker.tenant_weight broker name));
    ("target_ms", jnum tn.Service.tns_target_ms);
    ("submitted", string_of_int tn.Service.tns_submitted);
    ("completed", string_of_int tn.Service.tns_completed);
    ("failed", string_of_int tn.Service.tns_failed);
    ("cancelled", string_of_int tn.Service.tns_cancelled);
    ("shed", string_of_int tn.Service.tns_shed);
    ("replans", string_of_int tn.Service.tns_replans);
    ("slo_violations", string_of_int tn.Service.tns_violations);
    ("deadline_misses", string_of_int tn.Service.tns_deadline_miss);
    ("min_headroom_ms", jnum tn.Service.tns_min_headroom_ms);
    ("at_risk", string_of_int at_risk);
    ("share_pages", string_of_int share);
    ("leased_pages", string_of_int leased);
    ("share_utilization",
     jnum
       (if share > 0 then float_of_int leased /. float_of_int share
        else 0.0));
    ("peak_leased_pages", string_of_int tn.Service.tns_peak_leased);
    ("floor_waits", string_of_int tn.Service.tns_broker_waits);
    ("queue_ms", jnum tn.Service.tns_queue_ms);
    ("exec_ms", jnum tn.Service.tns_exec_ms) ]

let broker_fields svc =
  let broker = Service.broker svc in
  let leases =
    List.filter_map
      (fun (s : Session.stmt) ->
         let pages = Broker.lease_of broker ~id:s.Session.stmt_id in
         if pages = 0 then None
         else
           Some
             (jobj
                [ ("id", string_of_int s.Session.stmt_id);
                  ("tenant", jstr s.Session.stmt_tenant);
                  ("label", jstr s.Session.stmt_label);
                  ("pages", string_of_int pages) ]))
      (Service.running_statements svc)
  in
  [ ("budget_pages", string_of_int (Broker.budget_pages broker));
    ("floor_pages", string_of_int (Broker.floor_pages broker));
    ("total_leased", string_of_int (Broker.total_leased broker));
    ("free_pages", string_of_int (Broker.free_pages broker));
    ("outstanding", string_of_int (Broker.outstanding broker));
    ("peak_leased", string_of_int (Broker.peak_leased broker));
    ("grants", string_of_int (Broker.grants broker));
    ("reclaimed_pages", string_of_int (Broker.reclaimed_pages broker));
    ("leases", jarr leases) ]

let ledger_tail svc =
  let tail = 10 in
  match Service.service_trace svc with
  | None -> []
  | Some tr ->
    let all = Trace.ledger tr in
    let n = List.length all in
    if n <= tail then all
    else List.filteri (fun i _ -> i >= n - tail) all

let to_json svc view =
  let body =
    match view with
    | Statements ->
      [ ("statements",
         jarr
           (List.map
              (fun s -> jobj (stmt_fields svc s))
              (Service.all_statements svc))) ]
    | Sessions ->
      [ ("sessions",
         jarr (List.map (fun s -> jobj (session_fields s)) (Service.sessions svc)))
      ]
    | Tenants ->
      let rep = Service.report svc in
      [ ("tenants",
         jarr
           (List.map
              (fun tn -> jobj (tenant_fields svc tn))
              rep.Service.tenants)) ]
    | Broker_leases -> broker_fields svc
    | Ledger ->
      [ ("ledger",
         jarr
           (List.map
              (fun (d : Trace.instant) ->
                 jobj
                   (List.map
                      (fun (k, v) -> (k, Trace.arg_json v))
                      d.Trace.i_args))
              (ledger_tail svc)))
      ]
  in
  jobj
    ([ ("view", jstr (view_to_string view));
       ("now_ms", jnum (Service.now_ms svc));
       ("queued", string_of_int (Service.queued_count svc));
       ("running",
        string_of_int (List.length (Service.running_statements svc))) ]
     @ body)
  ^ "\n"

(* --- human rendering ------------------------------------------------ *)

let pp_stmt svc fmt (s : Session.stmt) =
  let progress =
    match stmt_progress s with
    | Some sp ->
      Printf.sprintf "%5.1f%%  eta [%.1f, %.1f] ms" sp.sp_percent
        sp.sp_eta_lo_ms sp.sp_eta_hi_ms
    | None -> "     -"
  in
  Fmt.pf fmt "#%-3d %-12s %-10s %-9s %s  pages %d%s" s.Session.stmt_id
    (Printf.sprintf "%s/%s" s.Session.stmt_tenant s.Session.stmt_label)
    (Dispatcher.mode_to_string s.Session.stmt_mode)
    (status_string s) progress (stmt_pages svc s)
    (if stmt_deadline_risk svc s then "  AT RISK" else "")

let render svc view =
  let buf = Buffer.create 512 in
  let fmt = Format.formatter_of_buffer buf in
  Fmt.pf fmt "@[<v>%s @@ %.1f ms (sim)  queued %d  running %d@,"
    (view_to_string view) (Service.now_ms svc) (Service.queued_count svc)
    (List.length (Service.running_statements svc));
  (match view with
   | Statements ->
     List.iter
       (fun s -> Fmt.pf fmt "%a@," (pp_stmt svc) s)
       (Service.all_statements svc)
   | Sessions ->
     List.iter
       (fun sess ->
          Fmt.pf fmt "session %d  %-10s %-11s %s  %d statement(s)@,"
            (Session.id sess) (Session.tenant sess)
            (Session.slo_to_string (Session.slo sess))
            (if Session.closed sess then "closed" else "open")
            (List.length (Session.statements sess)))
       (Service.sessions svc)
   | Tenants ->
     let rep = Service.report svc in
     List.iter
       (fun (tn : Service.tenant_summary) ->
          let broker = Service.broker svc in
          let name = tn.Service.tns_tenant in
          Fmt.pf fmt
            "tenant %-10s [%s w=%d] %d/%d done  misses %d  leased %d/%d \
             pages  floor-waits %d%s@,"
            name
            (Session.slo_to_string tn.Service.tns_slo)
            (Broker.tenant_weight broker name) tn.Service.tns_completed
            tn.Service.tns_submitted tn.Service.tns_deadline_miss
            (Broker.tenant_leased broker name)
            (Broker.tenant_share broker name)
            tn.Service.tns_broker_waits
            (if Float.is_finite tn.Service.tns_min_headroom_ms then
               Printf.sprintf "  headroom %.1f ms"
                 tn.Service.tns_min_headroom_ms
             else ""))
       rep.Service.tenants
   | Broker_leases ->
     let broker = Service.broker svc in
     Fmt.pf fmt
       "budget %d pages  floor %d  leased %d  free %d  outstanding %d  \
        peak %d  grants %d  reclaimed %d@,"
       (Broker.budget_pages broker) (Broker.floor_pages broker)
       (Broker.total_leased broker) (Broker.free_pages broker)
       (Broker.outstanding broker) (Broker.peak_leased broker)
       (Broker.grants broker)
       (Broker.reclaimed_pages broker);
     List.iter
       (fun (s : Session.stmt) ->
          let pages =
            Broker.lease_of broker ~id:s.Session.stmt_id
          in
          if pages > 0 then
            Fmt.pf fmt "lease #%-3d %-12s %d pages@," s.Session.stmt_id
              (Printf.sprintf "%s/%s" s.Session.stmt_tenant
                 s.Session.stmt_label)
              pages)
       (Service.running_statements svc)
   | Ledger ->
     List.iter
       (fun d -> Fmt.pf fmt "%a@," Trace.pp_decision d)
       (ledger_tail svc));
  Fmt.pf fmt "@]@?";
  Buffer.contents buf

(* --- Prometheus ----------------------------------------------------- *)

let prometheus svc =
  match Service.service_trace svc with
  | None -> ""
  | Some tr -> Metrics.to_prometheus (Trace.metrics tr)
