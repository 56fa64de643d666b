(* The paper's Figure 3 worked example: a three-table join under a tight
   memory budget.  The optimizer over-estimates a filter's output, so the
   memory manager starves the second hash join, forcing it to run in two
   passes.  A statistics collector observes the real filter output
   mid-query; re-invoking the memory manager with the improved estimate
   gives the second join enough memory for a single pass.

     dune exec examples/memory_pressure.exe *)

open Mqr_storage
module Catalog = Mqr_catalog.Catalog
module Engine = Mqr_core.Engine
module Dispatcher = Mqr_core.Dispatcher

let () =
  let catalog = Catalog.create () in
  let rng = Mqr_stats.Rng.create 7 in
  (* rel1: the filtered relation of Figure 3 *)
  let rel1_schema =
    Schema.make
      [ Schema.col "joinattr2" Value.TInt;
        Schema.col "joinattr3" Value.TInt;
        Schema.col "selectattr1" Value.TInt;
        Schema.col "selectattr2" Value.TInt;
        Schema.col "groupattr" Value.TInt;
        Schema.col ~width:64 "payload" Value.TString ]
  in
  let rel1 = Heap_file.create rel1_schema in
  for i = 0 to 19_999 do
    (* correlated selection attributes: half of the small-s1 rows push s2
       out of range, so the independence assumption over-estimates the
       conjunction by 2x (the paper's 15000-vs-7500 scenario) *)
    let s1 = Mqr_stats.Rng.int rng 100 in
    let s2 =
      if s1 < 50 && Mqr_stats.Rng.int rng 2 = 0 then
        60 + Mqr_stats.Rng.int rng 40
      else Mqr_stats.Rng.int rng 100
    in
    Heap_file.append rel1
      [| Value.Int (i mod 5000); Value.Int (i mod 2000); Value.Int s1;
         Value.Int s2; Value.Int (i mod 25);
         Value.String (String.make 48 'x') |]
  done;
  (* rel2 and rel3 are larger than the filtered rel1 stream, so the
     optimizer builds each hash table on the (mis-estimated) intermediate,
     exactly the situation of the paper's Figure 3 *)
  let rel2_schema =
    Schema.make
      [ Schema.col "joinattr2" Value.TInt; Schema.col "b2" Value.TInt;
        Schema.col ~width:24 "pad2" Value.TString ]
  in
  let rel2 = Heap_file.create rel2_schema in
  for i = 0 to 29_999 do
    Heap_file.append rel2
      [| Value.Int i; Value.Int (i * 3); Value.String (String.make 20 'y') |]
  done;
  let rel3_schema =
    Schema.make
      [ Schema.col "joinattr3" Value.TInt; Schema.col "b3" Value.TInt;
        Schema.col ~width:24 "pad3" Value.TString ]
  in
  let rel3 = Heap_file.create rel3_schema in
  for i = 0 to 29_999 do
    Heap_file.append rel3
      [| Value.Int i; Value.Int (i * 7); Value.String (String.make 20 'z') |]
  done;
  ignore (Catalog.add_table catalog "rel1" rel1);
  ignore (Catalog.add_table catalog "rel2" rel2);
  ignore (Catalog.add_table catalog "rel3" rel3);
  Catalog.analyze_table catalog "rel1";
  Catalog.analyze_table ~keys:[ "joinattr2" ] catalog "rel2";
  Catalog.analyze_table ~keys:[ "joinattr3" ] catalog "rel3";

  (* Figure 1's query: filter rel1, join with rel2 and rel3, aggregate. *)
  let sql =
    "select groupattr, avg(selectattr1) as a1, avg(selectattr2) as a2 \
     from rel1, rel2, rel3 \
     where selectattr1 < 50 and selectattr2 < 50 \
     and rel1.joinattr2 = rel2.joinattr2 \
     and rel1.joinattr3 = rel3.joinattr3 \
     group by groupattr"
  in
  (* A budget tight enough that, under the over-estimate, the memory
     manager cannot give both joins their maximum. *)
  let engine = Engine.create ~budget_pages:200 catalog in
  Fmt.pr "query:@.  %s@.@." sql;

  Fmt.pr "=== static allocation (no re-optimization) ===@.";
  let normal = Engine.run_sql engine ~mode:Dispatcher.Off sql in
  Fmt.pr "elapsed: %.1f simulated ms, I/O writes (spills): %d@.@."
    normal.Dispatcher.elapsed_ms
    normal.Dispatcher.counters.Sim_clock.writes;

  Fmt.pr "=== dynamic memory re-allocation (paper Section 2.3) ===@.";
  let dyn = Engine.run_sql engine ~mode:Dispatcher.Memory_only sql in
  List.iter
    (fun (_, ev) -> Fmt.pr "  %a@." Dispatcher.pp_event ev)
    dyn.Dispatcher.timed_events;
  Fmt.pr "elapsed: %.1f simulated ms, I/O writes (spills): %d@.@."
    dyn.Dispatcher.elapsed_ms
    dyn.Dispatcher.counters.Sim_clock.writes;

  Fmt.pr "identical answers: %b@."
    (Array.length normal.Dispatcher.rows = Array.length dyn.Dispatcher.rows);
  Fmt.pr "memory re-allocation saved %.1f%%@."
    (100.0
     *. (normal.Dispatcher.elapsed_ms -. dyn.Dispatcher.elapsed_ms)
     /. normal.Dispatcher.elapsed_ms)
