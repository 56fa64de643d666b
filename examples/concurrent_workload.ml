(* A batch of TPC-D queries through the query service, twice: once
   serially (one slot, so each query gets the whole page budget in turn),
   then concurrently with the shared memory broker and cross-query
   statistics feedback.  The broker leases slices of one global page
   budget to the running queries, and pages freed by a finished query are
   re-granted to the others — so the batch overlaps and the simulated
   makespan drops well below the serial sum, while every query returns
   exactly the same rows.

     dune exec examples/concurrent_workload.exe *)

module Engine = Mqr_core.Engine
module Queries = Mqr_tpcd.Queries
module Service = Mqr_wlm.Service
module Session = Mqr_wlm.Session

let budget_pages = 128

let run_batch ~max_concurrency ~feedback =
  let catalog = Mqr_tpcd.Workload.experiment_catalog ~sf:0.002 () in
  let engine =
    Engine.create ~budget_pages ~pool_pages:(8 * budget_pages) catalog
  in
  (* one batch tenant submitting at one instant: equal deadlines, so FIFO
     admission, one execution unit per running query per sweep *)
  let svc =
    Service.create
      ~options:{ Service.default_options with Service.max_concurrency; feedback }
      engine
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

let () =
  Fmt.pr "== serial: one query at a time, %d pages each ==@." budget_pages;
  let serial = run_batch ~max_concurrency:1 ~feedback:false in
  Fmt.pr "%a@.@." Service.pp_report serial;

  Fmt.pr "== concurrent: broker leases over the same %d pages ==@."
    budget_pages;
  let conc = run_batch ~max_concurrency:4 ~feedback:true in
  Fmt.pr "%a@.@." Service.pp_report conc;

  Fmt.pr "makespan: %.1f ms serial -> %.1f ms concurrent (%.2fx)@."
    serial.Service.makespan_ms conc.Service.makespan_ms
    (serial.Service.makespan_ms /. conc.Service.makespan_ms)
