(* Workload manager: broker invariants, admission control, and batches
   through the service, one batch tenant stepped round-robin — determinism,
   concurrent-equals-serial results, and the pinned bench batch. *)
module Engine = Mqr_core.Engine
module Dispatcher = Mqr_core.Dispatcher
module Broker = Mqr_wlm.Broker
module Admission = Mqr_wlm.Admission
module Service = Mqr_wlm.Service
module Session = Mqr_wlm.Session
module Queries = Mqr_tpcd.Queries
module Tpcd = Mqr_tpcd.Workload

let engine () =
  let catalog = Tpcd.experiment_catalog ~sf:0.001 () in
  Engine.create ~budget_pages:64 ~pool_pages:512 catalog

(* --- broker --- *)

(* A broker with one tenant registered, "solo": no other tenant's share is
   ever reserved, so its leases see the plain budget and admission floor. *)
let solo_broker ~budget_pages ~max_concurrency =
  let b = Broker.create ~budget_pages ~max_concurrency in
  Broker.register_tenant b ~weight:1 "solo";
  b

let idle _ = false

let test_broker_never_oversubscribes () =
  let b = solo_broker ~budget_pages:100 ~max_concurrency:4 in
  let lease = Broker.lease b ~tenant:"solo" ~pending:0 ~active:idle in
  let sum_ok () =
    Alcotest.(check bool) "sum of leases <= budget" true
      (Broker.total_leased b <= Broker.budget_pages b)
  in
  Alcotest.(check int) "greedy lease capped at budget" 100
    (lease ~id:1 ~min_pages:10 ~max_pages:400);
  sum_ok ();
  Alcotest.(check int) "nothing left for the second query" 0
    (lease ~id:2 ~min_pages:10 ~max_pages:50);
  sum_ok ();
  (* shrinking re-negotiation returns the difference to the pool *)
  Alcotest.(check int) "shrink to 30" 30
    (lease ~id:1 ~min_pages:10 ~max_pages:30);
  Alcotest.(check int) "freed pages available again" 50
    (lease ~id:2 ~min_pages:10 ~max_pages:50);
  sum_ok ();
  Broker.release b ~id:1;
  Broker.release b ~id:2;
  Alcotest.(check int) "all pages back" 100 (Broker.free_pages b);
  Alcotest.(check int) "no leases outstanding" 0 (Broker.outstanding b)

let test_broker_reserves_floor_for_pending () =
  let b = solo_broker ~budget_pages:100 ~max_concurrency:4 in
  let lease ~pending =
    Broker.lease b ~tenant:"solo" ~pending ~active:idle ~id:1 ~min_pages:1
      ~max_pages:400
  in
  (* floor is 25; three pending queries keep 75 pages in reserve *)
  Alcotest.(check int) "greedy lease leaves room for the batch" 25
    (lease ~pending:3);
  Alcotest.(check int) "reservation relaxes once the batch started" 100
    (lease ~pending:0)

(* With one tenant, admission is the plain floor check. *)
let test_broker_admission_floor () =
  let b = solo_broker ~budget_pages:100 ~max_concurrency:4 in
  let can_admit () = Broker.can_admit_tenant b ~active:idle "solo" in
  Alcotest.(check bool) "admits when free" true (can_admit ());
  ignore
    (Broker.lease b ~tenant:"solo" ~pending:0 ~active:idle ~id:1 ~min_pages:80
       ~max_pages:80);
  Alcotest.(check bool) "refuses below the floor" false (can_admit ());
  Broker.release b ~id:1;
  Alcotest.(check bool) "admits again after release" true (can_admit ())

(* Every lease, admission check and registration names a tenant the broker
   knows: an unregistered name raises and leaves the broker as it was. *)
let test_broker_unregistered_tenant_raises () =
  let b = solo_broker ~budget_pages:100 ~max_concurrency:4 in
  let raises what f =
    match f () with
    | _ -> Alcotest.failf "%s: no exception" what
    | exception Invalid_argument _ -> ()
  in
  raises "lease" (fun () ->
      Broker.lease b ~tenant:"ghost" ~pending:0 ~active:idle ~id:1
        ~min_pages:1 ~max_pages:10);
  raises "admission" (fun () -> Broker.can_admit_tenant b ~active:idle "ghost");
  raises "re-registration" (fun () ->
      Broker.register_tenant b ~weight:2 "solo");
  Alcotest.(check int) "no lease granted" 0 (Broker.outstanding b);
  Alcotest.(check int) "no lease call served" 0 (Broker.grants b);
  Alcotest.(check int) "weight kept" 1 (Broker.tenant_weight b "solo")

let test_broker_tenant_floors_prevent_starvation () =
  let b = Broker.create ~budget_pages:100 ~max_concurrency:4 in
  Broker.register_tenant b ~weight:1 "alpha";
  Broker.register_tenant b ~weight:1 "beta";
  let both _ = true and alpha_only name = name = "alpha" in
  let lease ~active tenant ~id =
    Broker.lease b ~tenant ~pending:0 ~active ~id ~min_pages:10 ~max_pages:400
  in
  Alcotest.(check int) "equal weights split the budget" 50
    (Broker.tenant_share b "alpha");
  (* a greedy alpha lease is clipped at the pages beta is entitled to *)
  Alcotest.(check int) "greedy lease stops at the other share" 50
    (lease ~active:both "alpha" ~id:1);
  Alcotest.(check bool) "the clip is counted as a broker wait" true
    (Broker.tenant_floor_waits b "alpha" >= 1);
  Alcotest.(check bool) "beta can still admit" true
    (Broker.can_admit_tenant b ~active:both "beta");
  Alcotest.(check int) "beta gets its full share despite alpha" 50
    (lease ~active:both "beta" ~id:2);
  (* work-conserving: an idle tenant's share is available to everyone *)
  Broker.release b ~id:1;
  Broker.release b ~id:2;
  Alcotest.(check int) "idle share is not reserved" 100
    (lease ~active:alpha_only "alpha" ~id:3);
  Broker.release b ~id:3

let test_broker_tenant_lease_accounting () =
  let b = Broker.create ~budget_pages:100 ~max_concurrency:4 in
  Broker.register_tenant b ~weight:3 "alpha";
  Broker.register_tenant b ~weight:1 "beta";
  let lease tenant ~id ~max_pages =
    ignore
      (Broker.lease b ~tenant ~pending:0 ~active:idle ~id ~min_pages:10
         ~max_pages)
  in
  Alcotest.(check int) "weighted share" 75 (Broker.tenant_share b "alpha");
  lease "alpha" ~id:1 ~max_pages:40;
  lease "alpha" ~id:2 ~max_pages:20;
  lease "beta" ~id:3 ~max_pages:25;
  Alcotest.(check int) "leases sum per tenant" 60
    (Broker.tenant_leased b "alpha");
  Alcotest.(check int) "other tenant tracked separately" 25
    (Broker.tenant_leased b "beta");
  (* a shrinking re-negotiation is reflected in the owner's account *)
  lease "alpha" ~id:1 ~max_pages:10;
  Alcotest.(check int) "shrink returns tenant pages" 30
    (Broker.tenant_leased b "alpha");
  Broker.release b ~id:1;
  Broker.release b ~id:2;
  Broker.release b ~id:3;
  Alcotest.(check int) "alpha account back to zero" 0
    (Broker.tenant_leased b "alpha");
  Alcotest.(check int) "beta account back to zero" 0
    (Broker.tenant_leased b "beta");
  Alcotest.(check int) "peak remembers the high-water mark" 60
    (Broker.tenant_peak b "alpha");
  Alcotest.(check int) "no leases outstanding" 0 (Broker.outstanding b)

(* Random register / activate / lease / release / pending sequences over
   1-3 tenants.  The test keeps what the scheduler would own: which
   tenants have work, and how many queries are pending; each lease passes
   them to the broker.  A lease goes to a registered tenant or to a name
   that is not registered (which must raise and change nothing), and a
   registration may repeat a name (likewise); after every operation the
   broker's totals must match the live leases the test itself recorded. *)
type broker_op =
  | Register of int * int          (* tenant index, weight *)
  | Active of int * bool
  | Lease of int * int * int * int
      (* id, tenant index (-1: the never-registered name), min, max *)
  | Release of int
  | Pending of int

let show_broker_op = function
  | Register (i, w) -> Printf.sprintf "register t%d w%d" i w
  | Active (i, a) -> Printf.sprintf "active t%d %b" i a
  | Lease (id, who, lo, hi) ->
    Printf.sprintf "lease #%d %s %d..%d" id
      (if who < 0 then "ghost" else Printf.sprintf "t%d" who)
      lo hi
  | Release id -> Printf.sprintf "release #%d" id
  | Pending n -> Printf.sprintf "pending %d" n

let broker_case_gen =
  let open QCheck.Gen in
  int_range 1 3 >>= fun tenants ->
  int_range 1 200 >>= fun budget ->
  int_range 1 4 >>= fun conc ->
  let tenant = int_range 0 (tenants - 1) in
  let op =
    frequency
      [ (2, map2 (fun i w -> Register (i, w)) tenant (int_range 1 4));
        (2, map2 (fun i a -> Active (i, a)) tenant bool);
        (6,
         int_range 0 5 >>= fun id ->
         oneof [ return (-1); tenant ] >>= fun who ->
         int_range 0 budget >>= fun lo ->
         map (fun extra -> Lease (id, who, lo, lo + extra))
           (int_range 0 (2 * budget)));
        (3, map (fun id -> Release id) (int_range 0 5));
        (1, map (fun n -> Pending n) (int_range 0 3)) ]
  in
  map (fun ops -> (tenants, budget, conc, ops)) (list_size (int_range 0 40) op)

let prop_broker_sums_live_leases =
  QCheck.Test.make ~name:"broker totals = the live leases" ~count:300
    (QCheck.make broker_case_gen
       ~print:(fun (tenants, budget, conc, ops) ->
           Printf.sprintf "%d tenants, budget %d, concurrency %d: %s" tenants
             budget conc (String.concat "; " (List.map show_broker_op ops))))
    (fun (tenants, budget, conc, ops) ->
       let b = Broker.create ~budget_pages:budget ~max_concurrency:conc in
       let name i = if i < 0 then "ghost" else Printf.sprintf "t%d" i in
       let registered = Hashtbl.create 4 in
       let active = Hashtbl.create 4 in
       let pending = ref 0 in
       let live = Hashtbl.create 8 in  (* id -> (pages, tenant name) *)
       let seen = Hashtbl.create 4 in  (* name -> largest tenant_leased *)
       let check what =
         let sum name =
           Hashtbl.fold
             (fun _ (pages, owner) acc ->
                if owner = name then acc + pages else acc)
             live 0
         in
         if Broker.total_leased b > budget then
           QCheck.Test.fail_reportf "after %s: %d pages leased of %d" what
             (Broker.total_leased b) budget;
         if Broker.outstanding b <> Hashtbl.length live then
           QCheck.Test.fail_reportf "after %s: %d leases, want %d" what
             (Broker.outstanding b) (Hashtbl.length live);
         List.iter
           (fun n ->
              let leased = Broker.tenant_leased b n in
              if leased <> sum n then
                QCheck.Test.fail_reportf "after %s: %s leases %d, want %d" what
                  n leased (sum n);
              if Hashtbl.mem registered n then begin
                let peak =
                  max leased
                    (Option.value ~default:0 (Hashtbl.find_opt seen n))
                in
                Hashtbl.replace seen n peak;
                if Broker.tenant_peak b n < peak then
                  QCheck.Test.fail_reportf "after %s: %s peak %d below %d"
                    what n (Broker.tenant_peak b n) peak
              end)
           (List.init tenants name @ [ name (-1) ])
       in
       let refused what f =
         match f () with
         | _ -> QCheck.Test.fail_reportf "%s: no exception" what
         | exception Invalid_argument _ -> ()
       in
       List.iter
         (fun op ->
            (match op with
             | Register (i, w) when Hashtbl.mem registered (name i) ->
               refused (show_broker_op op) (fun () ->
                   Broker.register_tenant b ~weight:w (name i))
             | Register (i, w) ->
               Broker.register_tenant b ~weight:w (name i);
               Hashtbl.replace registered (name i) ()
             | Active (i, a) -> Hashtbl.replace active (name i) a
             | Lease (id, who, lo, hi) ->
               let tenant = name who in
               let lease () =
                 Broker.lease b ~tenant ~pending:!pending
                   ~active:(fun n ->
                       Option.value ~default:false (Hashtbl.find_opt active n))
                   ~id ~min_pages:lo ~max_pages:hi
               in
               if Hashtbl.mem registered tenant then
                 Hashtbl.replace live id (lease (), tenant)
               else refused (show_broker_op op) lease
             | Release id ->
               Broker.release b ~id;
               Hashtbl.remove live id
             | Pending n -> pending := n);
            check (show_broker_op op))
         ops;
       true)

(* --- admission queue --- *)

let take q = Admission.take_if q (fun _ -> true)

let test_admission_deadline_order () =
  let q = Admission.create ~capacity:4 in
  (* no deadline = infinity: waits behind every deadline, FIFO *)
  Alcotest.(check bool) "offer slack" true (Admission.offer q "slack");
  Alcotest.(check bool) "offer late" true
    (Admission.offer q ~deadline:100.0 "late");
  Alcotest.(check bool) "offer soon" true
    (Admission.offer q ~deadline:5.0 "soon");
  Alcotest.(check bool) "offer slack2" true (Admission.offer q "slack2");
  Alcotest.(check bool) "full" false (Admission.offer q ~deadline:1.0 "shed");
  (* the tightest deadline overtakes everything queued before it *)
  Alcotest.(check (option string)) "earliest deadline first" (Some "soon")
    (take q);
  Alcotest.(check (option string)) "next deadline" (Some "late") (take q);
  Alcotest.(check (option string)) "no deadline last" (Some "slack") (take q);
  Alcotest.(check (option string)) "fifo within a deadline" (Some "slack2")
    (take q);
  Alcotest.(check (option string)) "empty" None (take q)

let test_admission_take_if_skips () =
  let q = Admission.create ~capacity:4 in
  ignore (Admission.offer q ~deadline:5.0 "capped");
  ignore (Admission.offer q ~deadline:10.0 "second");
  ignore (Admission.offer q "third");
  (* the head's tenant is at its cap: skip it without reordering *)
  Alcotest.(check (option string)) "best eligible item" (Some "second")
    (Admission.take_if q (fun x -> x <> "capped"));
  Alcotest.(check (option string)) "skipped head still first" (Some "capped")
    (take q);
  Alcotest.(check (option string)) "rest untouched" (Some "third") (take q);
  Alcotest.(check bool) "drained" true (Admission.length q = 0)

(* --- batches through the service: one tenant, stepped round-robin --- *)

(* One batch tenant submits [names] in order, statement [i] arriving at
   [i * stagger_ms], and the service drains them.  One slot makes the
   serial baseline: the broker's admission floor is then the whole
   budget, so each query runs alone with all of it. *)
let run_batch ?(max_concurrency = 4) ?(max_queue = 64) ?(feedback = true)
    ?(stagger_ms = 0.0) engine names =
  let svc =
    Service.create
      ~options:
        { Service.default_options with
          Service.max_concurrency;
          max_queue;
          feedback }
      engine
  in
  Service.add_tenant svc ~slo:Session.Batch "batch";
  let session = Service.open_session svc ~tenant:"batch" in
  List.iteri
    (fun i n ->
       ignore
         (Session.submit ~label:n
            ~arrival_ms:(float_of_int i *. stagger_ms)
            session (Queries.find n).Queries.sql))
    names;
  Service.drain svc;
  Service.report svc

let serial engine names =
  run_batch ~max_concurrency:1 ~feedback:false engine names

let stmt_report (s : Session.stmt) =
  match s.Session.stmt_status with
  | Session.Done r -> r
  | _ -> Alcotest.failf "%s not done" s.Session.stmt_label

let stmt_rows s = (stmt_report s).Dispatcher.rows

let batch_tenant (r : Service.report) =
  List.find (fun tn -> tn.Service.tns_tenant = "batch") r.Service.tenants

let test_concurrent_matches_serial () =
  let names = [ "Q3"; "Q6"; "Q10"; "Q5" ] in
  let serial = serial (engine ()) names in
  let conc = run_batch (engine ()) names in
  Alcotest.(check int) "all completed" 4
    (batch_tenant conc).Service.tns_completed;
  List.iter2
    (fun (a : Session.stmt) (b : Session.stmt) ->
       Alcotest.(check string) "same order" a.Session.stmt_label
         b.Session.stmt_label;
       Alcotest.(check bool) (a.Session.stmt_label ^ " bit-identical rows")
         true
         (stmt_rows a = stmt_rows b))
    serial.Service.statements conc.Service.statements;
  Alcotest.(check int) "no lease outlives its query" 0
    conc.Service.outstanding_leases;
  Alcotest.(check bool) "peak within budget" true
    (conc.Service.peak_leased_pages <= 64);
  Alcotest.(check bool) "the tenant's own leases peak above 0" true
    ((batch_tenant conc).Service.tns_peak_leased > 0);
  Alcotest.(check bool) "overlap beats serial makespan" true
    (conc.Service.makespan_ms < serial.Service.makespan_ms);
  Alcotest.(check bool) "serial batch queues" true
    ((batch_tenant serial).Service.tns_queue_ms > 0.0)

let test_workload_deterministic () =
  let run () =
    run_batch ~max_concurrency:2 ~stagger_ms:40.0 (engine ())
      [ "Q3"; "Q6"; "Q10" ]
  in
  let r1 = run () and r2 = run () in
  Alcotest.(check (float 0.0)) "same makespan" r1.Service.makespan_ms
    r2.Service.makespan_ms;
  List.iter2
    (fun (a : Session.stmt) (b : Session.stmt) ->
       let l = a.Session.stmt_label in
       Alcotest.(check (float 0.0)) (l ^ " same admit") a.Session.stmt_admit_ms
         b.Session.stmt_admit_ms;
       Alcotest.(check (float 0.0)) (l ^ " same finish")
         a.Session.stmt_finish_ms b.Session.stmt_finish_ms;
       Alcotest.(check bool) (l ^ " bit-identical rows") true
         (stmt_rows a = stmt_rows b))
    r1.Service.statements r2.Service.statements

let test_rejection_when_queue_full () =
  let r =
    run_batch ~max_concurrency:1 ~max_queue:1 ~feedback:false (engine ())
      [ "Q6"; "Q6"; "Q6" ]
  in
  Alcotest.(check (list string)) "third was shed" [ "done"; "done"; "shed" ]
    (List.map
       (fun (s : Session.stmt) -> Session.status_to_string s.Session.stmt_status)
       r.Service.statements);
  Alcotest.(check int) "one shed" 1 (batch_tenant r).Service.tns_shed

let test_feedback_applies_stats () =
  let r = run_batch ~max_concurrency:1 (engine ()) [ "Q10"; "Q10" ] in
  Alcotest.(check bool) "first run published" true
    (r.Service.stats_published > 0);
  Alcotest.(check bool) "second run applied cached stats" true
    (r.Service.stats_applied > 0)

(* The `bench wlm` batch at its own configuration: these two makespans
   are the workload manager's headline numbers and must not drift. *)
let test_bench_batch_pinned () =
  let engine () =
    let catalog =
      Tpcd.experiment_catalog ~sf:0.005
        ~degradations:Tpcd.paper_degradations ()
    in
    Engine.create ~budget_pages:200 ~pool_pages:1600 catalog
  in
  let names = [ "Q3"; "Q5"; "Q7"; "Q10" ] in
  let total f (r : Service.report) =
    List.fold_left (fun acc s -> acc + f (stmt_report s)) 0 r.Service.statements
  in
  List.iter
    (fun (what, r, makespan) ->
       Alcotest.(check (float 1e-3)) (what ^ " makespan") makespan
         r.Service.makespan_ms;
       Alcotest.(check int) (what ^ " switches") 1
         (total (fun d -> d.Dispatcher.switches) r);
       Alcotest.(check int) (what ^ " collectors") 40
         (total (fun d -> d.Dispatcher.collectors) r))
    [ ("serial", serial (engine ()) names, 17890.711);
      ("broker", run_batch (engine ()) names, 8674.173) ]

let suite =
  [ Alcotest.test_case "broker never oversubscribes" `Quick
      test_broker_never_oversubscribes;
    Alcotest.test_case "broker reserves floor for pending" `Quick
      test_broker_reserves_floor_for_pending;
    Alcotest.test_case "broker admission floor" `Quick
      test_broker_admission_floor;
    Alcotest.test_case "broker unregistered tenant raises" `Quick
      test_broker_unregistered_tenant_raises;
    Alcotest.test_case "broker tenant floors prevent starvation" `Quick
      test_broker_tenant_floors_prevent_starvation;
    Alcotest.test_case "broker tenant lease accounting" `Quick
      test_broker_tenant_lease_accounting;
    QCheck_alcotest.to_alcotest prop_broker_sums_live_leases;
    Alcotest.test_case "admission deadline order" `Quick
      test_admission_deadline_order;
    Alcotest.test_case "admission take_if skips" `Quick
      test_admission_take_if_skips;
    Alcotest.test_case "concurrent matches serial" `Quick
      test_concurrent_matches_serial;
    Alcotest.test_case "workload deterministic" `Quick
      test_workload_deterministic;
    Alcotest.test_case "rejection when queue full" `Quick
      test_rejection_when_queue_full;
    Alcotest.test_case "feedback applies stats" `Quick
      test_feedback_applies_stats;
    Alcotest.test_case "bench 4q-batch makespans pinned" `Quick
      test_bench_batch_pinned ]
