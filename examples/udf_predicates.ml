(* Object-relational predicates (the paper's introduction): a selection
   through a user-defined function whose selectivity the optimizer cannot
   estimate.  The inaccuracy-potential rules mark everything above it
   High, the collectors observe the real cardinality, and the remainder
   of the query is re-optimized.

     dune exec examples/udf_predicates.exe *)

open Mqr_storage
module Catalog = Mqr_catalog.Catalog
module Engine = Mqr_core.Engine
module Dispatcher = Mqr_core.Dispatcher

let () =
  let catalog = Catalog.create () in
  let rng = Mqr_stats.Rng.create 99 in
  (* "polygons": the paper's spatial-ADT motivation, reduced to bounding
     boxes stored as four coordinates *)
  let parcels_schema =
    Schema.make
      [ Schema.col "parcel_id" Value.TInt;
        Schema.col "x0" Value.TFloat; Schema.col "y0" Value.TFloat;
        Schema.col "x1" Value.TFloat; Schema.col "y1" Value.TFloat;
        Schema.col "zone" Value.TInt ]
  in
  let parcels = Heap_file.create parcels_schema in
  for i = 0 to 19_999 do
    let x = float_of_int (Mqr_stats.Rng.int rng 1000) in
    let y = float_of_int (Mqr_stats.Rng.int rng 1000) in
    Heap_file.append parcels
      [| Value.Int i; Value.Float x; Value.Float y;
         Value.Float (x +. 1.0 +. float_of_int (Mqr_stats.Rng.int rng 20));
         Value.Float (y +. 1.0 +. float_of_int (Mqr_stats.Rng.int rng 20));
         Value.Int (i mod 50) |]
  done;
  let owners_schema =
    Schema.make
      [ Schema.col "zone" Value.TInt; Schema.col ~width:20 "owner" Value.TString ]
  in
  let owners = Heap_file.create owners_schema in
  for i = 0 to 49 do
    Heap_file.append owners
      [| Value.Int i; Value.String (Printf.sprintf "district-%02d" i) |]
  done;
  ignore (Catalog.add_table catalog "parcels" parcels);
  ignore (Catalog.add_table catalog "owners" owners);
  Catalog.analyze_table ~keys:[ "parcel_id" ] catalog "parcels";
  Catalog.analyze_table ~keys:[ "zone" ] catalog "owners";

  let engine = Engine.create ~budget_pages:96 catalog in
  (* The user-defined spatial predicate: does the parcel's box intersect a
     query window?  The engine has no statistics for this, so it guesses
     (and the guess is badly wrong: the window is tiny). *)
  Engine.register_udf engine ~name:"intersects_window" (function
      | [ Value.Float x0; Value.Float y0; Value.Float x1; Value.Float y1 ] ->
        Value.Bool (x1 >= 100.0 && x0 <= 120.0 && y1 >= 100.0 && y0 <= 120.0)
      | _ -> Value.Null);

  let sql =
    "select owner, count(*) as parcels \
     from parcels, owners \
     where intersects_window(x0, y0, x1, y1) \
     and parcels.zone = owners.zone \
     group by owner order by parcels desc limit 10"
  in
  Fmt.pr "query with a user-defined spatial predicate:@.  %s@.@." sql;

  let normal = Engine.run_sql engine ~mode:Dispatcher.Off sql in
  let reopt = Engine.run_sql engine ~mode:Dispatcher.Full sql in
  Fmt.pr "conventional execution:  %10.1f simulated ms@."
    normal.Dispatcher.elapsed_ms;
  Fmt.pr "dynamic re-optimization: %10.1f simulated ms (%d collectors, %d switches)@.@."
    reopt.Dispatcher.elapsed_ms reopt.Dispatcher.collectors
    reopt.Dispatcher.switches;
  List.iter
    (fun (_, ev) -> Fmt.pr "  %a@." Dispatcher.pp_event ev)
    reopt.Dispatcher.timed_events;
  (* the point of this example: the optimizer cannot estimate the
     user-defined predicate, and EXPLAIN ANALYZE shows how far off it was
     and that the collectors measured the truth at run time *)
  Fmt.pr "@.--- explain analyze (estimates vs observed cardinalities) ---@.";
  Dispatcher.pp_explain_analyze Fmt.stdout reopt;
  Fmt.pr "@.--- matching districts ---@.";
  Array.iter (fun t -> Fmt.pr "%a@." Tuple.pp t) reopt.Dispatcher.rows
