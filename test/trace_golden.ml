(* Golden-file driver: run benchmark queries on a seeded sf=0.001
   catalog with the trace collector attached and print an export on
   stdout.  The simulated clock is deterministic, so the output is
   byte-stable and `dune promote` maintains the goldens.

     trace_golden chrome Q3    -- Chrome trace-event JSON
     trace_golden summary Q7   -- compact summary (spans, metrics, ledger)
     trace_golden decisions    -- summary of Q1/Q3/Q5/Q6/Q7/Q8/Q10 under
                                  every re-optimization mode, one trace,
                                  labelled "<query>/<mode>" *)

module Engine = Mqr_core.Engine
module Dispatcher = Mqr_core.Dispatcher
module Queries = Mqr_tpcd.Queries
module Workload = Mqr_tpcd.Workload
module Trace = Mqr_obs.Trace

let usage () =
  prerr_endline "usage: trace_golden chrome|summary <query> | decisions";
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
           Dispatcher.[ Off; Memory_only; Plan_only; Full; Bound_checked ])
      [ "Q1"; "Q3"; "Q5"; "Q6"; "Q7"; "Q8"; "Q10" ];
    print_string (Trace.to_summary_json tr)
  | _ -> usage ()
