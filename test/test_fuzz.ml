(* Randomized end-to-end queries: generate small SPJA query blocks over a
   three-table schema and check that the engine — in every re-optimization
   mode, under several memory budgets — produces exactly the rows of the
   brute-force reference executor. *)

open Mqr_storage
module Catalog = Mqr_catalog.Catalog
module Engine = Mqr_core.Engine
module Dispatcher = Mqr_core.Dispatcher
module Rng = Mqr_stats.Rng

(* one shared catalog: generation must be deterministic *)
let catalog = lazy (
  let catalog = Catalog.create () in
  let rng = Rng.create 20240 in
  let t1 =
    Heap_file.create
      (Schema.make
         [ Schema.col "k1" Value.TInt; Schema.col "f1" Value.TInt;
           Schema.col "v1" Value.TInt ])
  in
  for i = 0 to 79 do
    Heap_file.append t1
      [| Value.Int i; Value.Int (Rng.int rng 10); Value.Int (Rng.int rng 100) |]
  done;
  let t2 =
    Heap_file.create
      (Schema.make
         [ Schema.col "k2" Value.TInt; Schema.col "f2" Value.TInt;
           Schema.col "v2" Value.TInt ])
  in
  for i = 0 to 59 do
    Heap_file.append t2
      [| Value.Int i; Value.Int (Rng.int rng 80); Value.Int (Rng.int rng 100) |]
  done;
  let t3 =
    Heap_file.create
      (Schema.make [ Schema.col "k3" Value.TInt; Schema.col "v3" Value.TInt ])
  in
  for i = 0 to 9 do
    Heap_file.append t3 [| Value.Int i; Value.Int (Rng.int rng 100) |]
  done;
  ignore (Catalog.add_table catalog "t1" t1);
  ignore (Catalog.add_table catalog "t2" t2);
  ignore (Catalog.add_table catalog "t3" t3);
  Catalog.analyze_table ~keys:[ "k1" ] catalog "t1";
  Catalog.analyze_table ~keys:[ "k2" ] catalog "t2";
  Catalog.analyze_table ~keys:[ "k3" ] catalog "t3";
  ignore (Catalog.create_index catalog ~table:"t1" ~column:"k1");
  ignore (Catalog.create_index catalog ~table:"t2" ~column:"f2");
  catalog)

(* Random query text over the fixed schema.  Joins: t2.f2 -> t1.k1 (fk),
   t1.f1 -> t3.k3 (fk). *)
let gen_query =
  let open QCheck.Gen in
  let filter_t1 =
    oneofl [ ""; "v1 < 50"; "v1 >= 20 and v1 < 80"; "f1 = 3"; "k1 between 10 and 60" ]
  in
  let filter_t2 = oneofl [ ""; "v2 < 30"; "f2 < 40"; "v2 between 10 and 90" ] in
  let shape = int_range 0 6 in
  let agg = oneofl [ `None; `Count; `Sum ] in
  let limit = oneofl [ ""; " limit 5"; " limit 1" ] in
  let mk shape f1 f2 agg limit =
    let where parts =
      match List.filter (fun s -> s <> "") parts with
      | [] -> ""
      | l -> " where " ^ String.concat " and " l
    in
    match shape with
    | 0 ->
      (* single table *)
      (match agg with
       | `None -> "select k1, v1 from t1" ^ where [ f1 ] ^ " order by k1" ^ limit
       | `Count ->
         "select f1, count(*) as n from t1" ^ where [ f1 ]
         ^ " group by f1 order by f1"
       | `Sum ->
         "select f1, sum(v1) as s from t1" ^ where [ f1 ]
         ^ " group by f1 order by f1")
    | 1 ->
      (* 2-way join *)
      (match agg with
       | `None ->
         "select k1, v2 from t1, t2" ^ where [ "t2.f2 = t1.k1"; f1; f2 ]
         ^ " order by k1, v2" ^ limit
       | `Count ->
         "select f1, count(*) as n from t1, t2"
         ^ where [ "t2.f2 = t1.k1"; f1; f2 ]
         ^ " group by f1 order by f1"
       | `Sum ->
         "select f1, sum(v2) as s from t1, t2"
         ^ where [ "t2.f2 = t1.k1"; f1; f2 ]
         ^ " group by f1 order by f1")
    | 2 ->
      (* 3-way join *)
      "select v3, count(*) as n from t1, t2, t3"
      ^ where [ "t2.f2 = t1.k1"; "t1.f1 = t3.k3"; f1; f2 ]
      ^ " group by v3 order by v3"
    | 3 ->
      (* aggregate without group *)
      "select count(*) as n, sum(v1) as s from t1" ^ where [ f1 ]
    | 4 ->
      (* self join *)
      "select a.k1, b.v1 from t1 a, t1 b"
      ^ where [ "a.k1 = b.f1"; (if f1 = "" then "" else "a.v1 < 50") ]
      ^ " order by a.k1, b.v1" ^ limit
    | 5 ->
      (* distinct *)
      "select distinct f1 from t1" ^ where [ f1 ] ^ " order by f1"
    | _ ->
      (* having *)
      "select f1, count(*) as n from t1, t2"
      ^ where [ "t2.f2 = t1.k1"; f1; f2 ]
      ^ " group by f1 having n > 3 order by f1"
  in
  map
    (fun (shape, f1, f2, agg, limit) -> mk shape f1 f2 agg limit)
    (tup5 shape filter_t1 filter_t2 agg limit)

let modes =
  [ Dispatcher.Off; Dispatcher.Memory_only; Dispatcher.Plan_only;
    Dispatcher.Full; Dispatcher.Bound_checked ]

(* Every generated ORDER BY ... LIMIT query sorts on exactly its output
   columns, so tie-breaking differences between the engine and the
   reference cannot change the selected multiset of rows. *)
let prop_engine_matches_reference =
  QCheck.Test.make ~name:"random SPJA queries match reference executor"
    ~count:60
    (QCheck.make ~print:(fun s -> s) gen_query)
    (fun sql ->
       let catalog = Lazy.force catalog in
       let engine = Engine.create ~budget_pages:16 catalog in
       let q = Engine.bind_sql engine sql in
       let expect, _, bounds = Reference.eval catalog q in
       List.for_all
         (fun mode ->
            let r = Engine.run_sql engine ~mode sql in
            match
              Reference.agree ~tol:(Reference.within bounds) expect
                r.Dispatcher.rows
            with
            | Ok () -> true
            | Error why ->
              QCheck.Test.fail_reportf "mode %s disagrees on %s:@.%s"
                (Dispatcher.mode_to_string mode) sql why)
         modes)

let prop_modes_agree_under_budgets =
  QCheck.Test.make ~name:"all budgets produce identical answers" ~count:30
    (QCheck.make ~print:(fun s -> s) gen_query)
    (fun sql ->
       let catalog = Lazy.force catalog in
       let reference = ref None in
       List.for_all
         (fun budget ->
            let engine = Engine.create ~budget_pages:budget catalog in
            let r = Engine.run_sql engine sql in
            match !reference with
            | None ->
              let _, _, bounds =
                Reference.eval catalog (Engine.bind_sql engine sql)
              in
              reference := Some (r.Dispatcher.rows, Reference.within bounds);
              true
            | Some (rows0, tol) ->
              Result.is_ok (Reference.agree ~tol rows0 r.Dispatcher.rows))
         [ 4; 32; 512 ])

(* Every run under the sanitizer cross-checks each executed node's
   observed cardinality against its provable interval (BND-OBSERVED is a
   hard error raised as [Verifier.Rejected]), so completing at all — in
   every mode, with and without runtime filters, serial and parallel —
   is the soundness assertion; matching the reference rows rides along. *)
let prop_observed_within_bounds =
  QCheck.Test.make ~name:"observed cardinalities stay inside provable bounds"
    ~count:25
    (QCheck.make ~print:(fun s -> s) gen_query)
    (fun sql ->
       let catalog = Lazy.force catalog in
       let expect, _, bounds =
         let engine = Engine.create ~budget_pages:16 catalog in
         Reference.eval catalog (Engine.bind_sql engine sql)
       in
       List.for_all
         (fun (rf, max_dop) ->
            let engine =
              Engine.create ~budget_pages:16 ~runtime_filters:rf
                ~sanitize:true ~parallel:max_dop
                catalog
            in
            List.for_all
              (fun mode ->
                 match Engine.run_sql engine ~mode sql with
                 | r ->
                   Result.is_ok
                     (Reference.agree ~tol:(Reference.within bounds) expect
                        r.Dispatcher.rows)
                 | exception Mqr_analysis.Verifier.Rejected { what; diags } ->
                   QCheck.Test.fail_reportf
                     "sanitizer rejected %s [%s] at %s: %d diagnostic(s)"
                     sql
                     (Dispatcher.mode_to_string mode)
                     what (List.length diags))
              modes)
         [ (false, 1); (true, 1); (true, 4) ])

let suite =
  [ QCheck_alcotest.to_alcotest prop_engine_matches_reference;
    QCheck_alcotest.to_alcotest prop_modes_agree_under_budgets;
    QCheck_alcotest.to_alcotest prop_observed_within_bounds ]
