(* Decision support: the paper's motivating workload.  Runs TPC-D Q5 (a
   5-join query) against a catalog whose statistics have gone stale and
   narrates every mid-query decision the engine takes.

     dune exec examples/decision_support.exe *)

module Engine = Mqr_core.Engine
module Dispatcher = Mqr_core.Dispatcher
module Queries = Mqr_tpcd.Queries
module Workload = Mqr_tpcd.Workload

let () =
  Fmt.pr "Generating a scaled-down TPC-D database (sf = 0.005)...@.";
  let catalog = Workload.experiment_catalog ~sf:0.005 () in
  let engine = Engine.create ~budget_pages:200 catalog in
  let q = Queries.find "Q5" in
  Fmt.pr "@.%s (%s, %d joins):@.%s@.@." q.Queries.name
    (Queries.klass_to_string q.Queries.klass)
    q.Queries.joins q.Queries.sql;

  Fmt.pr "=== pass 1: conventional execution (re-optimization off) ===@.";
  let normal = Engine.run_sql engine ~mode:Dispatcher.Off q.Queries.sql in
  Fmt.pr "completed in %.1f simulated ms@.@." normal.Dispatcher.elapsed_ms;

  Fmt.pr "=== pass 2: with Dynamic Re-Optimization ===@.";
  let reopt = Engine.run_sql engine ~mode:Dispatcher.Full q.Queries.sql in
  List.iter
    (fun (_, ev) -> Fmt.pr "  %a@." Dispatcher.pp_event ev)
    reopt.Dispatcher.timed_events;
  Fmt.pr "completed in %.1f simulated ms (%d collectors, %d plan switches)@.@."
    reopt.Dispatcher.elapsed_ms reopt.Dispatcher.collectors
    reopt.Dispatcher.switches;

  let check =
    Array.length normal.Dispatcher.rows = Array.length reopt.Dispatcher.rows
  in
  Fmt.pr "results identical: %b@." check;
  Fmt.pr "improvement: %.1f%%@."
    (100.0
     *. (normal.Dispatcher.elapsed_ms -. reopt.Dispatcher.elapsed_ms)
     /. normal.Dispatcher.elapsed_ms);

  Fmt.pr "@.--- query answer ---@.";
  Array.iter (fun t -> Fmt.pr "%a@." Mqr_storage.Tuple.pp t) reopt.Dispatcher.rows
