(* A database that drifts away from its statistics — the paper's core
   motivation ("statistics are not kept up-to-date").  We ANALYZE once,
   then keep inserting; the optimizer's estimates decay, dynamic
   re-optimization absorbs the error, and a fresh ANALYZE resets the
   world.

     dune exec examples/evolving_database.exe *)

open Mqr_storage
module Catalog = Mqr_catalog.Catalog
module Engine = Mqr_core.Engine
module Dispatcher = Mqr_core.Dispatcher
module Rng = Mqr_stats.Rng

let sql =
  "select region, sum(amount) as total, count(*) as n \
   from orders, accounts, regions \
   where orders.account_id = accounts.account_id \
   and accounts.region_id = regions.region_id \
   and amount > 500.0 and status = 'open' and region = 'north' \
   group by region order by total desc"

let verbose = Sys.getenv_opt "MQR_VERBOSE" <> None

let measure engine =
  let normal = Engine.run_sql engine ~mode:Dispatcher.Off sql in
  let reopt = Engine.run_sql engine ~mode:Dispatcher.Full sql in
  if verbose then
    List.iter (fun (_, ev) -> Fmt.pr "    %a@." Dispatcher.pp_event ev)
      reopt.Dispatcher.timed_events;
  (normal.Dispatcher.elapsed_ms, reopt.Dispatcher.elapsed_ms,
   reopt.Dispatcher.switches)

let () =
  let catalog = Catalog.create () in
  let rng = Rng.create 31337 in
  let regions_schema =
    Schema.make
      [ Schema.col "region_id" Value.TInt;
        Schema.col ~width:10 "region" Value.TString ]
  in
  let accounts_schema =
    Schema.make
      [ Schema.col "account_id" Value.TInt;
        Schema.col "region_id" Value.TInt;
        Schema.col ~width:24 "name" Value.TString ]
  in
  let orders_schema =
    Schema.make
      [ Schema.col "order_id" Value.TInt;
        Schema.col "account_id" Value.TInt;
        Schema.col "amount" Value.TFloat;
        Schema.col ~width:8 "status" Value.TString ]
  in
  let regions = Heap_file.create regions_schema in
  let region_names = [| "north"; "south"; "east"; "west" |] in
  Array.iteri
    (fun i name -> Heap_file.append regions [| Value.Int i; Value.String name |])
    region_names;
  let accounts = Heap_file.create accounts_schema in
  let n_accounts = 9_000 in
  for i = 0 to 2_999 do
    Heap_file.append accounts
      [| Value.Int i; Value.Int (Rng.int rng 4);
         Value.String (Printf.sprintf "account-%05d" i) |]
  done;
  let orders = Heap_file.create orders_schema in
  let statuses = [| "open"; "closed"; "void" |] in
  let add_order oid =
    [| Value.Int oid;
       Value.Int (Rng.int rng n_accounts);
       Value.Float (float_of_int (Rng.int rng 1000));
       Value.String statuses.(Rng.int rng 3) |]
  in
  for i = 0 to 29_999 do
    Heap_file.append orders (add_order i)
  done;
  ignore (Catalog.add_table catalog "regions" regions);
  ignore (Catalog.add_table catalog "accounts" accounts);
  ignore (Catalog.add_table catalog "orders" orders);
  Catalog.analyze_table ~keys:[ "region_id" ] catalog "regions";
  Catalog.analyze_table ~keys:[ "account_id" ] catalog "accounts";
  Catalog.analyze_table ~keys:[ "order_id" ] catalog "orders";

  let engine = Engine.create ~budget_pages:180 catalog in
  Fmt.pr "t0: freshly analyzed (3k accounts, 30k orders)@.";
  let n0, r0, s0 = measure engine in
  Fmt.pr "  normal %8.1f ms | reopt %8.1f ms | switches %d@.@." n0 r0 s0;

  (* the application keeps writing: accounts triple, stats don't move *)
  Fmt.pr "... onboarding 6,000 new accounts (no ANALYZE) ...@.";
  for batch = 0 to 59 do
    let values =
      String.concat ", "
        (List.init 100 (fun i ->
             let aid = 3_000 + (batch * 100) + i in
             Printf.sprintf "(%d, %d, 'account-%05d')" aid (Rng.int rng 4) aid))
    in
    match Engine.execute engine ("insert into accounts values " ^ values) with
    | Engine.Modified { count = 100; _ } -> ()
    | _ -> failwith "insert failed"
  done;
  let tbl = Catalog.find_exn catalog "accounts" in
  Fmt.pr "  update ratio since ANALYZE: %.0f%%@.@."
    (100.0 *. Catalog.update_ratio tbl);

  Fmt.pr "t1: accounts statistics are now 3x stale@.";
  let n1, r1, s1 = measure engine in
  Fmt.pr "  normal %8.1f ms | reopt %8.1f ms | switches %d@." n1 r1 s1;
  Fmt.pr "  re-optimization cuts the stale-statistics run by %.1f%%@."
    (100.0 *. (n1 -. r1) /. n1);
  Fmt.pr "  (of the drift penalty itself it recovers %.0f%%)@.@."
    (100.0 *. (n1 -. r1) /. Float.max 1.0 (n1 -. n0));

  Fmt.pr "t2: after ANALYZE@.";
  Engine.analyze engine ~keys:[ "order_id" ] "orders";
  Engine.analyze engine ~keys:[ "account_id" ] "accounts";
  let n2, r2, s2 = measure engine in
  Fmt.pr "  normal %8.1f ms | reopt %8.1f ms | switches %d@." n2 r2 s2
