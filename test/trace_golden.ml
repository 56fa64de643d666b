(* Golden-file driver: run benchmark queries on a seeded sf=0.001
   catalog with the trace collector attached and print an export on
   stdout.  The simulated clock is deterministic, so the output is
   byte-stable and `dune promote` maintains the goldens.

     trace_golden chrome Q3    -- Chrome trace-event JSON
     trace_golden summary Q7   -- compact summary (spans, metrics, ledger)
     trace_golden decisions    -- summary of Q1/Q3/Q5/Q6/Q7/Q8/Q10 under
                                  every re-optimization mode, one trace,
                                  labelled "<query>/<mode>"
     trace_golden observers    -- what every observer sees of Q3/Q7/Q8
                                  under every mode at dop 1 and at dop 2
                                  with runtime filters, sanitizer, progress
                                  and trace attached: each timed event,
                                  each progress sample and the
                                  verification count, then a run aborted
                                  after its first unit, a run whose final
                                  unit raises, and the trace summary *)

module Engine = Mqr_core.Engine
module Dispatcher = Mqr_core.Dispatcher
module Queries = Mqr_tpcd.Queries
module Workload = Mqr_tpcd.Workload
module Trace = Mqr_obs.Trace
module Progress = Mqr_obs.Progress

let modes = Dispatcher.[ Off; Memory_only; Plan_only; Full; Bound_checked ]

let print_progress p =
  List.iter
    (fun (s : Progress.sample) ->
       Printf.printf "progress %s %h %h %h %h\n"
         (Progress.label_to_string s.Progress.label) s.Progress.ts_ms
         s.Progress.percent s.Progress.eta_lo_ms s.Progress.eta_hi_ms)
    (Progress.samples p)

let observers tr catalog =
  let engine ~dop =
    let e =
      Engine.create ~budget_pages:64 ~pool_pages:512 ~trace:tr
        ~sanitize:true ~parallel:dop
        ~runtime_filters:(dop > 1) catalog
    in
    Engine.register_udf e ~name:"boom" (fun _ -> failwith "boom");
    e
  in
  let dops = [ (1, engine ~dop:1); (2, engine ~dop:2) ] in
  List.iter
    (fun name ->
       List.iter
         (fun (dop, e) ->
            List.iter
              (fun mode ->
                 let label =
                   Printf.sprintf "%s/%s/dop%d" name
                     (Dispatcher.mode_to_string mode) dop
                 in
                 Printf.printf "== %s\n" label;
                 let p = Progress.create () in
                 let r =
                   Engine.run_query e ~mode ~label ~progress:p
                     (Engine.bind_sql e (Queries.find name).Queries.sql)
                 in
                 List.iter
                   (fun (ts, ev) ->
                      Printf.printf "%h %s\n" ts
                        (Format.asprintf "%a" Dispatcher.pp_event ev))
                   r.Dispatcher.timed_events;
                 print_progress p;
                 Printf.printf "verifications %d\n" r.Dispatcher.verifications)
              modes)
         dops)
    [ "Q3"; "Q7"; "Q8" ];
  let e = List.assoc 1 dops in
  let stepwise label sql ~steps =
    Printf.printf "== %s\n" label;
    let p = Progress.create () in
    let scope = Trace.scope tr ~label () in
    let cfg =
      Engine.dispatcher_config e ~mode:Dispatcher.Full ~trace:scope ~progress:p
        ()
    in
    let r = Dispatcher.start cfg (Engine.bind_sql e sql) in
    let rec drive n =
      if n > 0 && Dispatcher.step r = None then drive (n - 1)
    in
    (match drive steps with
     | () -> Dispatcher.abort r
     | exception Failure msg -> Printf.printf "raised %s\n" msg);
    print_progress p;
    Printf.printf "aborted %b open spans %d\n" (Dispatcher.aborted r)
      (Trace.open_spans tr)
  in
  stepwise "Q3/aborted" (Queries.find "Q3").Queries.sql ~steps:1;
  stepwise "boom/raised"
    "select o_orderpriority, count(*) as n from orders, lineitem \
     where o_orderkey = l_orderkey group by o_orderpriority having boom(n)"
    ~steps:max_int;
  print_string (Trace.to_summary_json tr)

let usage () =
  prerr_endline
    "usage: trace_golden chrome|summary <query> | decisions | observers";
  exit 2

let () =
  let tr = Trace.create () in
  let catalog = Workload.experiment_catalog ~sf:0.001 () in
  let engine = Engine.create ~budget_pages:64 ~pool_pages:512 ~trace:tr catalog in
  let run ?mode ~label name =
    let sql = (Queries.find name).Queries.sql in
    ignore (Engine.run_query engine ?mode ~label (Engine.bind_sql engine sql))
  in
  match Array.to_list Sys.argv |> List.tl with
  | [ "chrome"; name ] ->
    run ~label:name name;
    print_string (Trace.to_chrome_json tr)
  | [ "summary"; name ] ->
    run ~label:name name;
    print_string (Trace.to_summary_json tr)
  | [ "decisions" ] ->
    List.iter
      (fun name ->
         List.iter
           (fun mode ->
              run ~mode ~label:(name ^ "/" ^ Dispatcher.mode_to_string mode) name)
           modes)
      [ "Q1"; "Q3"; "Q5"; "Q6"; "Q7"; "Q8"; "Q10" ];
    print_string (Trace.to_summary_json tr)
  | [ "observers" ] -> observers tr catalog
  | _ -> usage ()
