(* Partitioned-parallel operators: identical results to serial, near-linear
   speedup of the simulated clock, skew sensitivity. *)
open Mqr_storage
module Exec_ctx = Mqr_exec.Exec_ctx
module Parallel = Mqr_exec.Parallel
module Join = Mqr_exec.Join
module Aggregate = Mqr_exec.Aggregate
module Leaf = Mqr_exec.Leaf
module Sort = Mqr_exec.Sort
module Expr = Mqr_expr.Expr

let ctx () = Exec_ctx.create ~pool_pages:1024 ()

let schema_ab q =
  Schema.make
    [ Schema.col ~qualifier:q "a" Value.TInt;
      Schema.col ~qualifier:q "b" Value.TInt ]

let rows_of l = Array.of_list (List.map (fun (a, b) -> [| Value.Int a; Value.Int b |]) l)

let canon rows =
  Array.to_list rows
  |> List.map (fun t -> Array.to_list (Array.map Value.to_string t))
  |> List.sort compare

let heap_of n =
  let heap = Heap_file.create (schema_ab "t") in
  for i = 0 to n - 1 do
    Heap_file.append heap [| Value.Int i; Value.Int (i * 2) |]
  done;
  heap

let test_parallel_scan_matches_serial () =
  let heap = heap_of 5000 in
  let serial = Leaf.rows (Leaf.scan (ctx ()) heap) in
  let par = Leaf.rows (Parallel.scan (ctx ()) ~degree:4 heap) in
  Alcotest.(check (list (list string))) "same rows" (canon serial) (canon par)

let test_parallel_scan_speedup () =
  let heap = heap_of 20_000 in
  let c1 = ctx () and c4 = ctx () in
  ignore (Parallel.scan c1 ~degree:1 heap);
  ignore (Parallel.scan c4 ~degree:4 heap);
  let t1 = Sim_clock.elapsed_ms c1.Exec_ctx.clock in
  let t4 = Sim_clock.elapsed_ms c4.Exec_ctx.clock in
  Alcotest.(check bool)
    (Printf.sprintf "speedup: %.1f vs %.1f" t1 t4)
    true
    (t4 < t1 /. 2.5)

(* A striped scan hands on the file's own array, and charges the parent
   clock what reading each stripe into its own array did: every worker
   reads its rid range through a fresh pool slice, and the parent pays
   the slowest worker plus the startup fee per extra worker. *)
let test_striped_scan_in_place () =
  let heap = heap_of 5003 in
  Heap_file.append heap [| Value.Int (-1); Value.Int (-2) |];
  let n = Heap_file.tuple_count heap in
  List.iter
    (fun degree ->
       let c = ctx () in
       let leaf = Parallel.scan c ~degree heap in
       Alcotest.(check bool)
         (Printf.sprintf "degree %d: the file's own rows" degree)
         true
         (Heap_file.owns heap (Leaf.rows leaf) && Leaf.length leaf = n);
       let r = ctx () in
       let slice = max 1 (Buffer_pool.capacity r.Exec_ctx.pool / degree) in
       (* the slowest stripe's elapsed time and pages read *)
       let slowest, pages =
         List.fold_left max (0.0, 0)
           (List.init degree (fun w ->
                let wctx = Exec_ctx.create ~pool_pages:slice () in
                let stripe =
                  Heap_file.read heap ~pool:wctx.Exec_ctx.pool
                    ~clock:wctx.Exec_ctx.clock ~from_rid:(w * n / degree)
                    ~to_rid:((w + 1) * n / degree)
                in
                Alcotest.(check int) "stripe length"
                  (((w + 1) * n / degree) - (w * n / degree))
                  (Array.length stripe);
                let k = wctx.Exec_ctx.clock in
                (Sim_clock.elapsed_ms k, (Sim_clock.counters k).Sim_clock.seq_reads)))
       in
       Sim_clock.charge_cpu_ms r.Exec_ctx.clock slowest;
       Sim_clock.charge_cpu_ms r.Exec_ctx.clock
         (Sim_clock.parallel_startup_ms *. float_of_int (degree - 1));
       Alcotest.(check int64)
         (Printf.sprintf "degree %d: charged as the per-stripe reads" degree)
         (Int64.bits_of_float (Sim_clock.elapsed_ms r.Exec_ctx.clock))
         (Int64.bits_of_float (Sim_clock.elapsed_ms c.Exec_ctx.clock));
       Alcotest.(check int) "the slowest stripe's pages stay pages" pages
         (Sim_clock.counters c.Exec_ctx.clock).Sim_clock.seq_reads)
    [ 2; 3; 4 ]

let test_parallel_join_matches_serial () =
  let c = ctx () in
  let ls = schema_ab "l" and rs = schema_ab "r" in
  let left = rows_of (List.init 2000 (fun i -> (i mod 97, i))) in
  let right = rows_of (List.init 500 (fun i -> (i mod 97, i + 10_000))) in
  let serial =
    Join.hash_join c ~mem_pages:64 ~build:(right, rs) ~probe:(Leaf.of_rows left, ls)
      ~keys:[ ("l.a", "r.a") ] ~out:(Schema.concat ls rs) ()
  in
  let par_rows =
    Parallel.hash_join (ctx ()) ~degree:4 ~mem_pages:64
      ~build:(right, rs) ~probe:(Leaf.of_rows left, ls) ~keys:[ ("l.a", "r.a") ]
      ~out:(Schema.concat ls rs) ()
  in
  Alcotest.(check (list (list string))) "same rows"
    (canon serial.Join.rows) (canon par_rows)

let test_parallel_join_speedup_with_exchange_cost () =
  let mk () = rows_of (List.init 20_000 (fun i -> (i, i))) in
  let ls = schema_ab "l" and rs = schema_ab "r" in
  let time degree =
    let c = ctx () in
    ignore
      (Parallel.hash_join c ~degree ~mem_pages:16 ~build:(mk (), rs)
         ~probe:(Leaf.of_rows (mk ()), ls) ~keys:[ ("l.a", "r.a") ]
         ~out:(Schema.concat ls rs) ());
    Sim_clock.elapsed_ms c.Exec_ctx.clock
  in
  let t1 = time 1 and t4 = time 4 in
  Alcotest.(check bool)
    (Printf.sprintf "parallel join faster: %.1f vs %.1f" t1 t4)
    true (t4 < t1);
  (* but not super-linear: the exchange is charged *)
  Alcotest.(check bool) "no free lunch" true (t4 > t1 /. 16.0)

let test_parallel_agg_matches_serial () =
  let schema = schema_ab "t" in
  let rows = rows_of (List.init 5000 (fun i -> (i mod 13, i))) in
  let aggs =
    [ { Aggregate.fn = Aggregate.Sum; distinct_arg = false; arg = Some (Expr.col "t.b"); out_name = "s" };
      { Aggregate.fn = Aggregate.Avg; distinct_arg = false; arg = Some (Expr.col "t.b"); out_name = "a" } ]
  in
  let serial =
    Aggregate.hash_aggregate (ctx ()) ~mem_pages:32 schema ~group_by:[ "t.a" ]
      ~aggs (Leaf.of_rows rows)
  in
  let par_rows =
    Parallel.aggregate (ctx ()) ~degree:4 ~mem_pages:32
      schema ~group_by:[ "t.a" ] ~aggs (Leaf.of_rows rows)
  in
  Alcotest.(check (list (list string))) "same groups"
    (canon serial.Aggregate.rows) (canon par_rows)

let test_skewed_partition_dominates () =
  (* all rows share one key: one worker does everything, so parallelism
     buys nothing on the join itself *)
  let ls = schema_ab "l" and rs = schema_ab "r" in
  let skewed = rows_of (List.init 8000 (fun i -> (7, i))) in
  let uniform = rows_of (List.init 8000 (fun i -> (i mod 1024, i))) in
  let probe = rows_of [ (7, 0) ] in
  let time rows =
    let c = ctx () in
    ignore
      (Parallel.hash_join c ~degree:4 ~mem_pages:64
         ~build:(rows, rs) ~probe:(Leaf.of_rows probe, ls) ~keys:[ ("l.a", "r.a") ]
         ~out:(Schema.concat ls rs) ());
    Sim_clock.elapsed_ms c.Exec_ctx.clock
  in
  Alcotest.(check bool) "skew slower than uniform" true
    (time skewed > time uniform)

let test_partition_by_covers_all_rows () =
  let schema = schema_ab "t" in
  let rows = rows_of (List.init 999 (fun i -> (i, i))) in
  let parts =
    Parallel.partition_by (ctx ()) ~degree:3 schema
      ~column:"t.a" rows
  in
  let total = Array.fold_left (fun acc p -> acc + Array.length p) 0 parts in
  Alcotest.(check int) "no row lost" 999 total

let test_round_robin_balanced () =
  let rows = rows_of (List.init 1000 (fun i -> (i, i))) in
  let parts =
    Parallel.partition_round_robin (ctx ()) ~degree:4 rows
  in
  Array.iter
    (fun p -> Alcotest.(check int) "even split" 250 (Array.length p))
    parts

let test_degree_one_is_serial () =
  let heap = heap_of 1000 in
  let c1 = ctx () and c2 = ctx () in
  let a =
    Heap_file.read heap ~pool:c1.Exec_ctx.pool ~clock:c1.Exec_ctx.clock
      ~from_rid:0 ~to_rid:(Heap_file.tuple_count heap)
  in
  let b = Leaf.rows (Parallel.scan c2 ~degree:1 heap) in
  Alcotest.(check (list (list string))) "identical" (canon a) (canon b);
  Alcotest.(check (float 1e-9)) "identical cost"
    (Sim_clock.elapsed_ms c1.Exec_ctx.clock)
    (Sim_clock.elapsed_ms c2.Exec_ctx.clock)

let prop_parallel_join_equals_serial =
  QCheck.Test.make ~name:"parallel join = serial join (any degree)" ~count:60
    QCheck.(triple (int_range 1 8)
              (list_of_size (Gen.int_range 0 80) (int_range 0 10))
              (list_of_size (Gen.int_range 0 80) (int_range 0 10)))
    (fun (degree, lks, rks) ->
       let ls = schema_ab "l" and rs = schema_ab "r" in
       let left = rows_of (List.mapi (fun i k -> (k, i)) lks) in
       let right = rows_of (List.mapi (fun i k -> (k, i + 1000)) rks) in
       let serial =
         Join.hash_join (ctx ()) ~mem_pages:16 ~build:(right, rs)
           ~probe:(Leaf.of_rows left, ls) ~keys:[ ("l.a", "r.a") ]
           ~out:(Schema.concat ls rs) ()
       in
       let par_rows =
         Parallel.hash_join (ctx ()) ~degree ~mem_pages:16
           ~build:(right, rs) ~probe:(Leaf.of_rows left, ls) ~keys:[ ("l.a", "r.a") ]
           ~out:(Schema.concat ls rs) ()
       in
       canon serial.Join.rows = canon par_rows)

(* Keys draw from a three-value domain so runs of equal keys cross worker
   boundaries; the payload column [c] makes every row distinct, so the
   multiset check catches a dropped or duplicated row. *)
let prop_parallel_sort =
  QCheck.Test.make ~name:"parallel sort: ordered, same multiset, repeatable"
    ~count:80
    QCheck.(quad (int_range 1 4) (pair bool bool) (int_range 2 8)
              (list_of_size (Gen.int_range 0 120)
                 (pair (int_range 0 2) (int_range 0 2))))
    (fun (degree, (a_asc, b_asc), mem_pages, kvs) ->
       let schema =
         Schema.make
           [ Schema.col ~qualifier:"t" "a" Value.TInt;
             Schema.col ~qualifier:"t" "b" Value.TInt;
             Schema.col ~qualifier:"t" "c" Value.TInt ]
       in
       let rows =
         Array.of_list
           (List.mapi
              (fun i (a, b) -> [| Value.Int a; Value.Int b; Value.Int i |])
              kvs)
       in
       let keys = [ ("t.a", a_asc); ("t.b", b_asc) ] in
       let run () =
         let c = ctx () in
         let out =
           Parallel.sort c ~degree ~mem_pages schema ~keys (Array.copy rows)
         in
         (out, Sim_clock.elapsed_ms c.Exec_ctx.clock)
       in
       let out, charged = run () in
       let again, charged_again = run () in
       let cmp x y =
         let dir asc c = if asc then c else -c in
         match dir a_asc (Value.compare x.(0) y.(0)) with
         | 0 -> dir b_asc (Value.compare x.(1) y.(1))
         | c -> c
       in
       let ordered = ref true in
       for i = 1 to Array.length out - 1 do
         if cmp out.(i - 1) out.(i) > 0 then ordered := false
       done;
       let serial = Sort.sort (ctx ()) ~mem_pages schema ~keys rows in
       !ordered
       && canon out = canon rows
       && canon out = canon serial.Sort.rows
       && out = again
       && charged = charged_again)

let suite =
  [ Alcotest.test_case "scan matches serial" `Quick test_parallel_scan_matches_serial;
    Alcotest.test_case "scan speedup" `Quick test_parallel_scan_speedup;
    Alcotest.test_case "striped scan reads in place" `Quick test_striped_scan_in_place;
    Alcotest.test_case "join matches serial" `Quick test_parallel_join_matches_serial;
    Alcotest.test_case "join speedup" `Quick test_parallel_join_speedup_with_exchange_cost;
    Alcotest.test_case "aggregate matches serial" `Quick test_parallel_agg_matches_serial;
    Alcotest.test_case "skewed partition dominates" `Quick test_skewed_partition_dominates;
    Alcotest.test_case "partition covers rows" `Quick test_partition_by_covers_all_rows;
    Alcotest.test_case "round robin balanced" `Quick test_round_robin_balanced;
    Alcotest.test_case "degree one serial" `Quick test_degree_one_is_serial;
    QCheck_alcotest.to_alcotest prop_parallel_join_equals_serial;
    QCheck_alcotest.to_alcotest prop_parallel_sort ]
