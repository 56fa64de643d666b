open Mqr_storage
module Exec_ctx = Mqr_exec.Exec_ctx
module Rows_ops = Mqr_exec.Rows_ops
module Join = Mqr_exec.Join
module Sort = Mqr_exec.Sort
module Aggregate = Mqr_exec.Aggregate
module Collector = Mqr_exec.Collector
module Leaf = Mqr_exec.Leaf
module Parallel = Mqr_exec.Parallel
module Expr = Mqr_expr.Expr
module Histogram = Mqr_stats.Histogram
module Column_stats = Mqr_catalog.Column_stats

let ctx () = Exec_ctx.create ~pool_pages:256 ()

let schema_ab q =
  Schema.make
    [ Schema.col ~qualifier:q "a" Value.TInt;
      Schema.col ~qualifier:q "b" Value.TInt ]

let rows_of l = Array.of_list (List.map (fun (a, b) -> [| Value.Int a; Value.Int b |]) l)

let sorted_pairs rows =
  Array.to_list rows
  |> List.map (fun t -> Array.to_list (Array.map Value.to_string t))
  |> List.sort compare

(* --- scans --- *)

let test_seq_scan () =
  let c = ctx () in
  let heap = Heap_file.create (schema_ab "t") in
  for i = 0 to 99 do
    Heap_file.append heap [| Value.Int i; Value.Int (i * 2) |]
  done;
  let rows = Leaf.rows (Leaf.scan c heap) in
  Alcotest.(check int) "all rows" 100 (Array.length rows);
  Alcotest.(check bool) "charged io" true
    ((Sim_clock.counters c.Exec_ctx.clock).Sim_clock.seq_reads > 0)

let test_index_scan () =
  let c = ctx () in
  let heap = Heap_file.create (schema_ab "t") in
  let bt = Btree.create () in
  for i = 0 to 999 do
    Heap_file.append heap [| Value.Int i; Value.Int i |];
    Btree.insert bt (Value.Int i) i
  done;
  let rows =
    Leaf.rows
      (Leaf.index_scan c heap bt ~lo:(Value.Int 10, true) ~hi:(Value.Int 19, true) ())
  in
  Alcotest.(check int) "range size" 10 (Array.length rows)

(* --- filter/project/limit --- *)

let test_filter () =
  let c = ctx () in
  let schema = schema_ab "t" in
  let rows = rows_of (List.init 100 (fun i -> (i, i))) in
  let out = Rows_ops.filter c schema Expr.(col "a" <% int 10) rows in
  Alcotest.(check int) "filtered" 10 (Array.length out)

let test_project () =
  let c = ctx () in
  let schema = schema_ab "t" in
  let rows = rows_of [ (1, 2); (3, 4) ] in
  let out, out_schema = Rows_ops.project c schema [ "t.b" ] rows in
  Alcotest.(check int) "arity" 1 (Schema.arity out_schema);
  Alcotest.(check bool) "values" true (Value.equal out.(0).(0) (Value.Int 2))

let test_limit () =
  let c = ctx () in
  let rows = rows_of (List.init 100 (fun i -> (i, i))) in
  Alcotest.(check int) "limited" 7 (Array.length (Rows_ops.limit c 7 rows));
  Alcotest.(check int) "under limit" 100 (Array.length (Rows_ops.limit c 200 rows))

(* --- hash join vs reference nested loop --- *)

(* Spill charges pinned exactly: pages read back and written, and the CPU
   total as bits.  The expected values were recorded while every operator
   still sized both of its inputs up front. *)
let check_charges what (seq_reads, writes, cpu_bits) c =
  let k = Sim_clock.counters c.Exec_ctx.clock in
  Alcotest.(check (triple int int int64)) (what ^ ": seq reads, writes, cpu bits")
    (seq_reads, writes, cpu_bits)
    (k.Sim_clock.seq_reads, k.Sim_clock.writes, Int64.bits_of_float k.Sim_clock.cpu_ms)

let reference_join left right ~li ~ri =
  List.concat_map
    (fun lt ->
       List.filter_map
         (fun rt ->
            if Value.equal lt.(li) rt.(ri) then Some (Array.append lt rt)
            else None)
         (Array.to_list right))
    (Array.to_list left)

let test_hash_join_matches_reference () =
  let c = ctx () in
  let ls = schema_ab "l" and rs = schema_ab "r" in
  let left = rows_of (List.init 50 (fun i -> (i mod 7, i))) in
  let right = rows_of (List.init 30 (fun i -> (i mod 5, i * 10))) in
  let r =
    Join.hash_join c ~mem_pages:64 ~build:(right, rs) ~probe:(Leaf.of_rows left, ls)
      ~keys:[ ("l.a", "r.a") ] ()
  in
  let expect = reference_join left right ~li:0 ~ri:0 in
  Alcotest.(check int) "row count" (List.length expect) (Array.length r.Join.rows);
  Alcotest.(check (list (list string))) "rows match"
    (sorted_pairs (Array.of_list expect))
    (sorted_pairs r.Join.rows)

let test_hash_join_one_pass_in_memory () =
  let c = ctx () in
  let ls = schema_ab "l" and rs = schema_ab "r" in
  let left = rows_of [ (1, 1) ] and right = rows_of [ (1, 2) ] in
  let r =
    Join.hash_join c ~mem_pages:64 ~build:(right, rs) ~probe:(Leaf.of_rows left, ls)
      ~keys:[ ("l.a", "r.a") ] ()
  in
  Alcotest.(check int) "1 pass" 1 r.Join.passes;
  Alcotest.(check int) "no spill writes" 0
    (Sim_clock.counters c.Exec_ctx.clock).Sim_clock.writes;
  check_charges "no spill" (0, 0, 4576918229304087675L) c

let test_hash_join_spills_when_tight () =
  let c = ctx () in
  let ls = schema_ab "l" and rs = schema_ab "r" in
  let big = rows_of (List.init 5000 (fun i -> (i, i))) in
  let r =
    Join.hash_join c ~mem_pages:2 ~build:(big, rs) ~probe:(Leaf.of_rows big, ls)
      ~keys:[ ("l.a", "r.a") ] ()
  in
  Alcotest.(check bool) "multi-pass" true (r.Join.passes > 1);
  Alcotest.(check bool) "spill writes charged" true
    ((Sim_clock.counters c.Exec_ctx.clock).Sim_clock.writes > 0);
  Alcotest.(check int) "results still exact" 5000 (Array.length r.Join.rows);
  Alcotest.(check int) "passes" 6 r.Join.passes;
  check_charges "even sides" (300, 300, 4641240890982006784L) c;
  (* a probe side of another size: both sides are re-read per pass *)
  let c = ctx () in
  let probe = rows_of (List.init 1700 (fun i -> (3 * i, i))) in
  let r =
    Join.hash_join c ~mem_pages:3 ~build:(big, rs) ~probe:(Leaf.of_rows probe, ls)
      ~keys:[ ("l.a", "r.a") ] ()
  in
  Alcotest.(check int) "uneven rows" 1667 (Array.length r.Join.rows);
  Alcotest.(check int) "uneven passes" 5 r.Join.passes;
  check_charges "uneven sides" (160, 160, 4637241694512901784L) c

let test_hash_join_null_keys_dont_match () =
  let c = ctx () in
  let ls = schema_ab "l" and rs = schema_ab "r" in
  let left = [| [| Value.Null; Value.Int 1 |] |] in
  let right = [| [| Value.Null; Value.Int 2 |] |] in
  let r =
    Join.hash_join c ~mem_pages:8 ~build:(right, rs) ~probe:(Leaf.of_rows left, ls)
      ~keys:[ ("l.a", "r.a") ] ()
  in
  Alcotest.(check int) "nulls never join" 0 (Array.length r.Join.rows)

let test_hash_join_residual () =
  let c = ctx () in
  let ls = schema_ab "l" and rs = schema_ab "r" in
  let left = rows_of [ (1, 5); (1, 15) ] in
  let right = rows_of [ (1, 0) ] in
  let r =
    Join.hash_join c ~mem_pages:8 ~build:(right, rs) ~probe:(Leaf.of_rows left, ls)
      ~keys:[ ("l.a", "r.a") ] ~extra:Expr.(col "l.b" <% int 10) ()
  in
  Alcotest.(check int) "residual filters" 1 (Array.length r.Join.rows)

let test_index_nl_join_matches_reference () =
  let c = ctx () in
  let ls = schema_ab "l" in
  let inner_schema = schema_ab "r" in
  let heap = Heap_file.create inner_schema in
  let bt = Btree.create () in
  for i = 0 to 29 do
    Heap_file.append heap [| Value.Int (i mod 5); Value.Int (i * 10) |];
    Btree.insert bt (Value.Int (i mod 5)) i
  done;
  let outer = rows_of (List.init 50 (fun i -> (i mod 7, i))) in
  let r =
    Join.index_nl_join c ~outer:(outer, ls) ~inner_heap:heap ~inner_schema
      ~inner_index:bt ~outer_col:"l.a" ()
  in
  let inner_rows = Array.init 30 (fun i -> Heap_file.get heap i) in
  let expect = reference_join outer inner_rows ~li:0 ~ri:0 in
  Alcotest.(check int) "row count" (List.length expect) (Array.length r.Join.rows);
  Alcotest.(check bool) "random reads charged" true
    ((Sim_clock.counters c.Exec_ctx.clock).Sim_clock.rand_reads > 0)

let test_block_nl_join_cross () =
  let c = ctx () in
  let ls = schema_ab "l" and rs = schema_ab "r" in
  let left = rows_of [ (1, 1); (2, 2) ] in
  let right = rows_of [ (10, 10); (20, 20); (30, 30) ] in
  let r = Join.block_nl_join c ~mem_pages:8 ~outer:(left, ls) ~inner:(right, rs) () in
  Alcotest.(check int) "cross product" 6 (Array.length r.Join.rows)

let test_block_nl_join_pred () =
  let c = ctx () in
  let ls = schema_ab "l" and rs = schema_ab "r" in
  let left = rows_of (List.init 10 (fun i -> (i, i))) in
  let right = rows_of (List.init 10 (fun i -> (i, i))) in
  let r =
    Join.block_nl_join c ~mem_pages:8 ~outer:(left, ls) ~inner:(right, rs)
      ~pred:Expr.(col "l.a" <% col "r.a") ()
  in
  Alcotest.(check int) "strictly less pairs" 45 (Array.length r.Join.rows)

(* --- merge join --- *)

module Merge_join = Mqr_exec.Merge_join

let test_merge_join_matches_reference () =
  let c = ctx () in
  let ls = schema_ab "l" and rs = schema_ab "r" in
  let left = rows_of (List.init 50 (fun i -> (i mod 7, i))) in
  let right = rows_of (List.init 30 (fun i -> (i mod 5, i * 10))) in
  let r =
    Merge_join.merge_join c ~mem_pages:64 ~left:(left, ls) ~right:(right, rs)
      ~keys:[ ("l.a", "r.a") ] ()
  in
  let expect = reference_join left right ~li:0 ~ri:0 in
  Alcotest.(check int) "row count" (List.length expect)
    (Array.length r.Merge_join.rows);
  Alcotest.(check (list (list string))) "rows match"
    (sorted_pairs (Array.of_list expect))
    (sorted_pairs r.Merge_join.rows)

let test_merge_join_duplicates_both_sides () =
  let c = ctx () in
  let ls = schema_ab "l" and rs = schema_ab "r" in
  let left = rows_of [ (1, 0); (1, 1); (2, 2) ] in
  let right = rows_of [ (1, 10); (1, 11); (1, 12); (3, 13) ] in
  let r =
    Merge_join.merge_join c ~mem_pages:16 ~left:(left, ls) ~right:(right, rs)
      ~keys:[ ("l.a", "r.a") ] ()
  in
  Alcotest.(check int) "2x3 pairs" 6 (Array.length r.Merge_join.rows)

let test_merge_join_nulls () =
  let c = ctx () in
  let ls = schema_ab "l" and rs = schema_ab "r" in
  let left = [| [| Value.Null; Value.Int 1 |]; [| Value.Int 1; Value.Int 2 |] |] in
  let right = [| [| Value.Null; Value.Int 3 |]; [| Value.Int 1; Value.Int 4 |] |] in
  let r =
    Merge_join.merge_join c ~mem_pages:16 ~left:(left, ls) ~right:(right, rs)
      ~keys:[ ("l.a", "r.a") ] ()
  in
  Alcotest.(check int) "null keys skipped" 1 (Array.length r.Merge_join.rows)

let test_merge_join_residual () =
  let c = ctx () in
  let ls = schema_ab "l" and rs = schema_ab "r" in
  let left = rows_of [ (1, 5); (1, 15) ] in
  let right = rows_of [ (1, 0) ] in
  let r =
    Merge_join.merge_join c ~mem_pages:16 ~left:(left, ls) ~right:(right, rs)
      ~keys:[ ("l.a", "r.a") ] ~extra:Expr.(col "l.b" <% int 10) ()
  in
  Alcotest.(check int) "residual filters" 1 (Array.length r.Merge_join.rows)

let test_merge_join_external_charges () =
  let c = ctx () in
  let ls = schema_ab "l" and rs = schema_ab "r" in
  let big = rows_of (List.init 4000 (fun i -> (i, i))) in
  let r =
    Merge_join.merge_join c ~mem_pages:4 ~left:(big, ls) ~right:(big, rs)
      ~keys:[ ("l.a", "r.a") ] ()
  in
  Alcotest.(check bool) "left external" true (r.Merge_join.left_passes > 1);
  Alcotest.(check bool) "spill charged" true
    ((Sim_clock.counters c.Exec_ctx.clock).Sim_clock.writes > 0);
  Alcotest.(check int) "exact rows" 4000 (Array.length r.Merge_join.rows)

let prop_merge_join_equals_hash_join =
  QCheck.Test.make ~name:"merge join = hash join" ~count:100
    QCheck.(pair (list_of_size (Gen.int_range 0 50) (int_range 0 6))
              (list_of_size (Gen.int_range 0 50) (int_range 0 6)))
    (fun (lks, rks) ->
       let c = ctx () in
       let ls = schema_ab "l" and rs = schema_ab "r" in
       let left = rows_of (List.mapi (fun i k -> (k, i)) lks) in
       let right = rows_of (List.mapi (fun i k -> (k, i + 500)) rks) in
       let m =
         Merge_join.merge_join c ~mem_pages:8 ~left:(left, ls)
           ~right:(right, rs) ~keys:[ ("l.a", "r.a") ] ()
       in
       let h =
         Join.hash_join c ~mem_pages:8 ~build:(right, rs) ~probe:(Leaf.of_rows left, ls)
           ~keys:[ ("l.a", "r.a") ] ()
       in
       sorted_pairs m.Merge_join.rows = sorted_pairs h.Join.rows)

(* --- sort --- *)

let test_sort_orders () =
  let c = ctx () in
  let schema = schema_ab "t" in
  let rows = rows_of [ (3, 1); (1, 2); (2, 3) ] in
  let r = Sort.sort c ~mem_pages:16 schema ~keys:[ ("t.a", true) ] rows in
  let keys = Array.to_list (Array.map (fun t -> Value.to_string t.(0)) r.Sort.rows) in
  Alcotest.(check (list string)) "ascending" [ "1"; "2"; "3" ] keys

let test_sort_desc_and_secondary () =
  let c = ctx () in
  let schema = schema_ab "t" in
  let rows = rows_of [ (1, 5); (2, 1); (1, 9); (2, 3) ] in
  let r =
    Sort.sort c ~mem_pages:16 schema ~keys:[ ("t.a", false); ("t.b", true) ] rows
  in
  let pairs =
    Array.to_list
      (Array.map (fun t -> (Value.to_string t.(0), Value.to_string t.(1))) r.Sort.rows)
  in
  Alcotest.(check (list (pair string string))) "desc then asc"
    [ ("2", "1"); ("2", "3"); ("1", "5"); ("1", "9") ]
    pairs

let test_sort_passes () =
  Alcotest.(check int) "fits" 1 (Sort.sort_passes ~mem_pages:10 ~data_pages:5);
  Alcotest.(check int) "one merge" 2 (Sort.sort_passes ~mem_pages:10 ~data_pages:50);
  Alcotest.(check bool) "deep merge" true
    (Sort.sort_passes ~mem_pages:3 ~data_pages:100 > 2)

let test_external_sort_charges () =
  let c = ctx () in
  let schema = schema_ab "t" in
  let rows = rows_of (List.init 5000 (fun i -> (5000 - i, i))) in
  let r = Sort.sort c ~mem_pages:2 schema ~keys:[ ("t.a", true) ] rows in
  Alcotest.(check bool) "multi-pass" true (r.Sort.passes > 1);
  Alcotest.(check bool) "spill charged" true
    ((Sim_clock.counters c.Exec_ctx.clock).Sim_clock.writes > 0);
  (* still exactly sorted *)
  let ok = ref true in
  for i = 0 to Array.length r.Sort.rows - 2 do
    if Value.compare r.Sort.rows.(i).(0) r.Sort.rows.(i + 1).(0) > 0 then ok := false
  done;
  Alcotest.(check bool) "sorted" true !ok

(* --- aggregate --- *)

let test_aggregate_group_sums () =
  let c = ctx () in
  let schema = schema_ab "t" in
  let rows = rows_of (List.init 100 (fun i -> (i mod 4, i))) in
  let aggs =
    [ { Aggregate.fn = Aggregate.Sum; distinct_arg = false; arg = Some (Expr.col "t.b"); out_name = "s" };
      { Aggregate.fn = Aggregate.Count; distinct_arg = false; arg = None; out_name = "n" } ]
  in
  let r = Aggregate.hash_aggregate c ~mem_pages:16 schema ~group_by:[ "t.a" ] ~aggs (Leaf.of_rows rows) in
  Alcotest.(check int) "4 groups" 4 (Array.length r.Aggregate.rows);
  Array.iter
    (fun t ->
       let n = match t.(2) with Value.Int n -> n | _ -> -1 in
       Alcotest.(check int) "25 per group" 25 n)
    r.Aggregate.rows

let distinct_groups n = rows_of (List.init n (fun i -> (i, 7 * i)))

let sum_count =
  [ { Aggregate.fn = Aggregate.Sum; distinct_arg = false; arg = Some (Expr.col "t.b"); out_name = "s" };
    { Aggregate.fn = Aggregate.Count; distinct_arg = false; arg = None; out_name = "n" } ]

let test_aggregate_spills_when_tight () =
  let c = ctx () in
  let r =
    Aggregate.hash_aggregate c ~mem_pages:2 (schema_ab "t") ~group_by:[ "t.a" ]
      ~aggs:sum_count (Leaf.of_rows (distinct_groups 4000))
  in
  Alcotest.(check int) "groups" 4000 (Array.length r.Aggregate.rows);
  Alcotest.(check int) "passes" 2 r.Aggregate.passes;
  check_charges "spill" (24, 24, 4628574517030027264L) c

let test_aggregate_fits () =
  let c = ctx () in
  let r =
    Aggregate.hash_aggregate c ~mem_pages:64 (schema_ab "t") ~group_by:[ "t.a" ]
      ~aggs:sum_count (Leaf.of_rows (distinct_groups 4000))
  in
  Alcotest.(check int) "groups" 4000 (Array.length r.Aggregate.rows);
  Alcotest.(check int) "passes" 1 r.Aggregate.passes;
  check_charges "no spill" (0, 0, 4628574517030027264L) c

let test_aggregate_global_empty () =
  let c = ctx () in
  let schema = schema_ab "t" in
  let aggs = [ { Aggregate.fn = Aggregate.Count; distinct_arg = false; arg = None; out_name = "n" } ] in
  let r = Aggregate.hash_aggregate c ~mem_pages:16 schema ~group_by:[] ~aggs (Leaf.of_rows [||]) in
  Alcotest.(check int) "one row" 1 (Array.length r.Aggregate.rows);
  Alcotest.(check bool) "count 0" true
    (Value.equal r.Aggregate.rows.(0).(0) (Value.Int 0))

let test_aggregate_avg_min_max () =
  let c = ctx () in
  let schema = schema_ab "t" in
  let rows = rows_of [ (0, 10); (0, 20); (0, 30) ] in
  let aggs =
    [ { Aggregate.fn = Aggregate.Avg; distinct_arg = false; arg = Some (Expr.col "t.b"); out_name = "avg" };
      { Aggregate.fn = Aggregate.Min; distinct_arg = false; arg = Some (Expr.col "t.b"); out_name = "min" };
      { Aggregate.fn = Aggregate.Max; distinct_arg = false; arg = Some (Expr.col "t.b"); out_name = "max" } ]
  in
  let r = Aggregate.hash_aggregate c ~mem_pages:16 schema ~group_by:[] ~aggs (Leaf.of_rows rows) in
  let t = r.Aggregate.rows.(0) in
  Alcotest.(check bool) "avg" true (Value.equal t.(0) (Value.Float 20.0));
  Alcotest.(check bool) "min" true (Value.equal t.(1) (Value.Int 10));
  Alcotest.(check bool) "max" true (Value.equal t.(2) (Value.Int 30))

let test_aggregate_nulls_skipped () =
  let c = ctx () in
  let schema = schema_ab "t" in
  let rows = [| [| Value.Int 0; Value.Null |]; [| Value.Int 0; Value.Int 4 |] |] in
  let aggs =
    [ { Aggregate.fn = Aggregate.Count; distinct_arg = false; arg = Some (Expr.col "t.b"); out_name = "n" };
      { Aggregate.fn = Aggregate.Sum; distinct_arg = false; arg = Some (Expr.col "t.b"); out_name = "s" } ]
  in
  let r = Aggregate.hash_aggregate c ~mem_pages:16 schema ~group_by:[ "t.a" ] ~aggs (Leaf.of_rows rows) in
  let t = r.Aggregate.rows.(0) in
  Alcotest.(check bool) "count non-null" true (Value.equal t.(1) (Value.Int 1));
  Alcotest.(check bool) "sum skips null" true (Value.equal t.(2) (Value.Int 4))

(* MIN/MAX/COUNT over a string column.  Every accumulator used to run
   [Value.add], which rejects strings, so the query failed. *)
let nation_string_aggs =
  "select n_regionkey, min(n_name) as lo, max(n_name) as hi, count(n_name) as c \
   from nation group by n_regionkey"

let rendered rows =
  Array.to_list rows
  |> List.map (fun t -> String.concat "|" (Array.to_list (Array.map Value.to_string t)))
  |> List.sort compare

let test_string_min_max_count () =
  let expected =
    [ "0|ALGERIA|MOZAMBIQUE|5"; "1|ARGENTINA|UNITED STATES|5"; "2|CHINA|VIETNAM|5";
      "3|FRANCE|UNITED KINGDOM|5"; "4|EGYPT|SAUDI ARABIA|5" ]
  in
  let catalog = Mqr_tpcd.Workload.experiment_catalog ~sf:0.001 () in
  let r = Mqr_core.Engine.run_sql (Mqr_core.Engine.create catalog) nation_string_aggs in
  Alcotest.(check (list string)) "engine (hash aggregate)" expected
    (rendered r.Mqr_core.Dispatcher.rows);
  let heap = (Mqr_catalog.Catalog.find_exn catalog "nation").Mqr_catalog.Catalog.heap in
  let schema = Heap_file.schema heap in
  let rows = Leaf.rows (Leaf.scan (ctx ()) heap) in
  let aggs =
    List.map
      (fun (fn, out_name) ->
         { Aggregate.fn; distinct_arg = false; arg = Some (Expr.col "n_name"); out_name })
      [ (Aggregate.Min, "lo"); (Aggregate.Max, "hi"); (Aggregate.Count, "c") ]
  in
  let group_by = [ "n_regionkey" ] in
  let p, _ =
    Parallel.aggregate (ctx ()) ~degree:2 ~mem_pages:16 schema ~group_by
      ~aggs (Leaf.of_rows rows)
  in
  Alcotest.(check (list string)) "parallel aggregate, degree 2" expected (rendered p)

(* Reference: the aggregate operators with list keys and every accumulator
   folding [Value.add], [Value.min_value] and [Value.max_value], as they
   were before accumulators tracked only what their function reads. *)
module Ref_agg = struct
  module Key = struct
    type t = Value.t list

    let equal a b = List.equal Value.equal a b
    let hash k = List.fold_left (fun acc v -> (acc * 31) + Value.hash v) 17 k
  end

  module Ktbl = Hashtbl.Make (Key)

  module Vtbl = Hashtbl.Make (struct
      type t = Value.t

      let equal = Value.equal
      let hash = Value.hash
    end)

  type acc = {
    mutable count : int;
    mutable sum : Value.t;
    mutable min_v : Value.t;
    mutable max_v : Value.t;
    seen : unit Vtbl.t option;
  }

  let fresh_accs specs =
    Array.map
      (fun (s : Aggregate.spec) ->
         { count = 0; sum = Value.Null; min_v = Value.Null; max_v = Value.Null;
           seen = (if s.Aggregate.distinct_arg then Some (Vtbl.create 16) else None) })
      specs

  let feed arg_evals accs t =
    List.iteri
      (fun i ev ->
         let a = accs.(i) in
         match ev with
         | None -> a.count <- a.count + 1
         | Some f ->
           let v = f t in
           if not (Value.is_null v) then begin
             let fresh =
               match a.seen with
               | None -> true
               | Some set ->
                 if Vtbl.mem set v then false
                 else begin
                   Vtbl.replace set v ();
                   true
                 end
             in
             if fresh then begin
               a.count <- a.count + 1;
               a.sum <- Value.add a.sum v;
               a.min_v <- Value.min_value a.min_v v;
               a.max_v <- Value.max_value a.max_v v
             end
           end)
      arg_evals

  let finalize aggs key accs =
    let agg_vals =
      List.mapi
        (fun i (s : Aggregate.spec) ->
           let a = accs.(i) in
           match s.Aggregate.fn with
           | Aggregate.Count -> Value.Int a.count
           | Aggregate.Sum -> a.sum
           | Aggregate.Min -> a.min_v
           | Aggregate.Max -> a.max_v
           | Aggregate.Avg ->
             if a.count = 0 then Value.Null
             else Value.Float (Value.to_float a.sum /. float_of_int a.count))
        aggs
    in
    Array.of_list (key @ agg_vals)

  let setup schema ~group_by ~aggs =
    ( List.map (Schema.index_of schema) group_by,
      List.map (fun (s : Aggregate.spec) -> Option.map (Expr.compile schema) s.Aggregate.arg) aggs,
      Array.of_list aggs )

  let bytes rows = Array.fold_left (fun acc t -> acc + Tuple.byte_size t) 0 rows

  let hash_aggregate ctx ~mem_pages schema ~group_by ~aggs rows =
    let clock = ctx.Exec_ctx.clock in
    let group_idx, arg_evals, specs = setup schema ~group_by ~aggs in
    (* the groups, and their keys newest first *)
    let table = Ktbl.create 256 and keys = ref [] in
    let add key =
      let a = fresh_accs specs in
      Ktbl.replace table key a;
      keys := key :: !keys;
      a
    in
    Array.iter
      (fun t ->
         let key = List.map (fun i -> t.(i)) group_idx in
         let accs =
           match Ktbl.find_opt table key with
           | Some a -> a
           | None -> add key
         in
         feed arg_evals accs t)
      rows;
    Sim_clock.charge_hash_tuples clock (Array.length rows);
    if group_by = [] && Ktbl.length table = 0 then ignore (add []);
    let out =
      Array.of_list
        (List.rev_map (fun key -> finalize aggs key (Ktbl.find table key)) !keys)
    in
    Sim_clock.charge_cpu_tuples clock (Array.length out);
    let input_pages = Exec_ctx.pages_of_bytes (bytes rows) in
    let passes =
      if Exec_ctx.pages_of_bytes (bytes out) <= max 1 mem_pages then 1
      else begin
        Sim_clock.charge_write clock input_pages;
        Sim_clock.charge_seq_read clock input_pages;
        2
      end
    in
    (out, passes)
end

(* Grouping columns [g] (Int) and [h] (String); numeric arguments [i]
   (Int), [f] (Float) and [n], which mixes Int and Float so sums go
   Int-then-Float and Float-then-Int, and holds integral Floats equal to
   its Ints (Int 3 and Float 3.0).  Key columns over [domain] values: [d]
   (Date); [w] (Int, plus Ints and Floats around +-2^53); [x] (Int and the
   equal integral Floats, 0.0, -0.0 and nan).  Every column has Nulls. *)
let agg_schema =
  Schema.make
    [ Schema.col ~qualifier:"t" "g" Value.TInt;
      Schema.col ~qualifier:"t" "h" Value.TString;
      Schema.col ~qualifier:"t" "i" Value.TInt;
      Schema.col ~qualifier:"t" "f" Value.TFloat;
      Schema.col ~qualifier:"t" "n" Value.TFloat;
      Schema.col ~qualifier:"t" "d" Value.TDate;
      Schema.col ~qualifier:"t" "w" Value.TInt;
      Schema.col ~qualifier:"t" "x" Value.TFloat ]

(* Around 2^53 every Int stays its own group: no Float here equals two
   different Ints (Float 2^53 would equal both Int 2^53 and Int 2^53+1). *)
let near_2_53 =
  let p = 1 lsl 53 in
  List.concat_map
    (fun s ->
       [ Value.Int (s * (p - 1)); Value.Int (s * p); Value.Int (s * (p + 1));
         Value.Int (s * (p + 2)); Value.Float (float_of_int (s * (p - 1)));
         Value.Float (float_of_int (s * (p + 2))) ])
    [ 1; -1 ]
  |> Array.of_list

let agg_rows ?(domain = 40) st n =
  let pick mk = if Random.State.int st 8 = 0 then Value.Null else mk (Random.State.int st 40) in
  let wide () = Random.State.int st domain in
  Array.init n (fun _ ->
      [| pick (fun k -> Value.Int (k mod 4));
         pick (fun k -> Value.String (if k land 1 = 0 then "x" else "y"));
         pick (fun k -> Value.Int (k - 20));
         pick (fun k -> Value.Float (float_of_int k /. 3.0));
         pick (fun k ->
             let j = (k / 3) - 6 in
             match k mod 3 with
             | 0 -> Value.Int j
             | 1 -> Value.Float (float_of_int j)
             | _ -> Value.Float (float_of_int k *. 0.1));
         pick (fun _ -> Value.Date (wide ()));
         pick (fun k ->
             if k < Array.length near_2_53 then near_2_53.(k) else Value.Int (wide ()));
         pick (fun k ->
             match k with
             | 0 -> Value.Float 0.0
             | 1 -> Value.Float (-0.0)
             | 2 | 3 -> Value.Float Float.nan
             | _ when k land 1 = 0 -> Value.Int (wide ())
             | _ -> Value.Float (float_of_int (wide ()))) |])

let agg_specs st =
  let fns = [| Aggregate.Count; Aggregate.Sum; Aggregate.Avg; Aggregate.Min; Aggregate.Max |] in
  let args = [| "t.i"; "t.f"; "t.n" |] in
  List.init (1 + Random.State.int st 5) (fun k ->
      let fn = fns.(Random.State.int st 5) in
      let arg =
        if fn = Aggregate.Count && Random.State.int st 3 = 0 then None
        else Some (Expr.col args.(Random.State.int st 3))
      in
      { Aggregate.fn; distinct_arg = Random.State.bool st; arg;
        out_name = Printf.sprintf "a%d" k })

let same_value a b =
  match a, b with
  | Value.Float x, Value.Float y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Value.Int x, Value.Int y | Value.Date x, Value.Date y -> x = y
  | Value.String x, Value.String y -> String.equal x y
  | Value.Null, Value.Null -> true
  | _ -> false

let same_rows a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Array.length x = Array.length y && Array.for_all2 same_value x y)
       a b

let prop_aggregate_matches_reference =
  (* Key domains up to 4000 values take the group count past 2048, so
     groups come out in first-seen order across several resizes of the
     operator's table. *)
  let gen =
    QCheck.Gen.(
      quad (int_bound 100_000)
        (frequency
           [ (1, return 0); (6, int_range 1 300); (2, int_range 300 6000) ])
        (int_bound 9)
        (pair (oneofl [ 1; 64 ]) (oneofl [ 40; 600; 1100; 2100; 4000 ])))
  in
  QCheck.Test.make ~name:"aggregate = list-keyed reference" ~count:200
    (QCheck.make gen)
    (fun (seed, n, gsel, (mem_pages, domain)) ->
       let st = Random.State.make [| seed |] in
       let rows = agg_rows ~domain st n in
       let aggs = agg_specs st in
       let group_by =
         List.nth
           [ []; [ "t.g" ]; [ "t.g"; "t.h" ]; [ "t.h" ]; [ "t.d" ]; [ "t.w" ];
             [ "t.x" ]; [ "t.w"; "t.d" ]; [ "t.h"; "t.x" ]; [ "t.n" ] ]
           gsel
       in
       let elapsed c = Int64.bits_of_float (Sim_clock.elapsed_ms c.Exec_ctx.clock) in
       let c1 = ctx () and c2 = ctx () in
       let r =
         Aggregate.hash_aggregate c1 ~mem_pages agg_schema ~group_by ~aggs (Leaf.of_rows rows)
       in
       let ref_rows, ref_passes =
         Ref_agg.hash_aggregate c2 ~mem_pages agg_schema ~group_by ~aggs rows
       in
       same_rows r.Aggregate.rows ref_rows
       && r.Aggregate.passes = ref_passes
       && elapsed c1 = elapsed c2)

let test_merge_join_presorted_skips_sort_cost () =
  let c1 = ctx () and c2 = ctx () in
  let ls = schema_ab "l" and rs = schema_ab "r" in
  let rows = rows_of (List.init 3000 (fun i -> (i, i))) in  (* already sorted *)
  let run c ~flags =
    ignore
      (Merge_join.merge_join c ~mem_pages:3
         ?left_sorted:(Some (fst flags)) ?right_sorted:(Some (snd flags))
         ~left:(rows, ls) ~right:(rows, rs) ~keys:[ ("l.a", "r.a") ] ())
  in
  run c1 ~flags:(false, false);
  run c2 ~flags:(true, true);
  let cost c = Sim_clock.elapsed_ms c.Exec_ctx.clock in
  Alcotest.(check bool) "presorted cheaper" true (cost c2 < cost c1)

(* --- collector --- *)

let test_collector_counters () =
  let c = ctx () in
  let schema = schema_ab "t" in
  let rows = rows_of (List.init 500 (fun i -> (i mod 20, i))) in
  let stats = Collector.collect c schema (Collector.spec ()) (Leaf.of_rows rows) in
  Alcotest.(check int) "no spec, no statistics" 0 (List.length stats);
  match Collector.ranges schema ~columns:[ "t.a" ] rows with
  | [ ("t.a", ({ Column_stats.min_v = Some lo; max_v = Some hi; _ } as st)) ] ->
    Alcotest.(check bool) "min" true (Value.equal lo (Value.Int 0));
    Alcotest.(check bool) "max" true (Value.equal hi (Value.Int 19));
    Alcotest.(check bool) "min/max only" true
      (st = { Column_stats.empty with min_v = Some lo; max_v = Some hi })
  | _ -> Alcotest.fail "no range"

let test_collector_histogram () =
  let c = ctx () in
  let schema = schema_ab "t" in
  let rows = rows_of (List.init 2000 (fun i -> (i mod 10, i))) in
  let spec = Collector.spec ~hist_cols:[ "t.a" ] () in
  match Collector.collect c schema spec (Leaf.of_rows rows) with
  | [ ("t.a", { Column_stats.histogram = Some h; _ }) ] ->
    Alcotest.(check (float 20.0)) "scaled to stream" 2000.0 (Histogram.total_rows h);
    let s = Histogram.est_eq h 3.0 in
    Alcotest.(check bool) (Printf.sprintf "eq sel %.3f ~ 0.1" s) true
      (Float.abs (s -. 0.1) < 0.05)
  | _ -> Alcotest.fail "no histogram"

let test_collector_distinct () =
  let c = ctx () in
  let schema = schema_ab "t" in
  let rows = rows_of (List.init 1000 (fun i -> (i mod 37, i))) in
  let spec = Collector.spec ~distinct_cols:[ "t.a" ] () in
  match Collector.collect c schema spec (Leaf.of_rows rows) with
  | [ ("t.a", { Column_stats.distinct = Some d; histogram = None; _ }) ] ->
    Alcotest.(check bool) "37" true (Float.abs (d -. 37.0) < 2.0)
  | _ -> Alcotest.fail "no distinct"

let test_collector_cost_budgeting () =
  let base = Collector.estimated_cost_ms (Collector.spec ()) ~rows:1000.0 in
  let loaded =
    Collector.estimated_cost_ms
      (Collector.spec ~hist_cols:[ "a" ] ~distinct_cols:[ "b" ] ())
      ~rows:1000.0
  in
  Alcotest.(check bool) "stats cost more" true (loaded > base);
  Alcotest.(check (float 1e-9)) "formula"
    (1000.0
     *. (Sim_clock.collect_base_tuple_ms
         +. (2.0 *. Sim_clock.collect_stat_tuple_ms)))
    loaded

let test_collector_to_column_stats () =
  let c = ctx () in
  let schema = schema_ab "t" in
  let rows = rows_of (List.init 100 (fun i -> (i, i))) in
  let spec = Collector.spec ~hist_cols:[ "t.a" ] ~distinct_cols:[ "t.a" ] () in
  match Collector.collect c schema spec (Leaf.of_rows rows) with
  | [ ("t.a", st); ("t.a", st') ] ->
    Alcotest.(check bool) "has histogram" true
      (st.Column_stats.histogram <> None);
    Alcotest.(check bool) "has distinct" true
      (st.Column_stats.distinct <> None);
    Alcotest.(check bool) "one record per name" true (st = st')
  | _ -> Alcotest.fail "not one entry per spec column"

(* Reference histograms: a reservoir fed every non-null value of each
   histogram column, row by row, in order; each with its dictionary. *)
let reference_histograms schema hist_cols rows =
  List.map
    (fun c ->
       let i = Schema.index_of schema c in
       let res =
         Mqr_stats.Reservoir.create ~capacity:(Heap_file.page_size_bytes / 8) ()
       in
       Array.iter
         (fun (t : Tuple.t) ->
            if not (Value.is_null t.(i)) then Mqr_stats.Reservoir.add res t.(i))
         rows;
       let sample = Mqr_stats.Reservoir.sample res in
       let seen = Mqr_stats.Reservoir.seen res in
       let has_string =
         Array.exists (fun v -> match v with Value.String _ -> true | _ -> false)
           sample
       in
       let dict, to_float =
         if has_string then begin
           let module SS = Set.Make (String) in
           let set =
             Array.fold_left
               (fun acc v -> match v with Value.String s -> SS.add s acc | _ -> acc)
               SS.empty sample
           in
           let dict = List.mapi (fun i s -> (s, float_of_int i)) (SS.elements set) in
           ( Some dict,
             fun v ->
               match v with
               | Value.String s -> List.assoc s dict
               | v -> Value.to_float v )
         end
         else (None, Value.to_float)
       in
       let h =
         Histogram.build Histogram.Maxdiff ~buckets:32
           (Array.map to_float sample)
       in
       (c, (Histogram.scale h (float_of_int seen), dict)))
    hist_cols

(* Reference: the row-at-a-time collector that kept min/max over every
   column and fed every statistic from one pass over the rows.  The
   collector must observe exactly what it did on the spec's columns. *)
let reference_collect schema (s : Collector.spec) rows =
  let arity = Schema.arity schema in
  let qualified i =
    let c = Schema.column schema i in
    if c.Schema.qualifier = "" then c.Schema.name
    else c.Schema.qualifier ^ "." ^ c.Schema.name
  in
  let mins = Array.make arity Value.Null and maxs = Array.make arity Value.Null in
  let distinct_targets =
    List.map
      (fun c -> (c, Schema.index_of schema c, Mqr_stats.Distinct.create ()))
      s.Collector.distinct_cols
  in
  Array.iter
    (fun (t : Tuple.t) ->
       for i = 0 to arity - 1 do
         if not (Value.is_null t.(i)) then begin
           mins.(i) <- Value.min_value mins.(i) t.(i);
           maxs.(i) <- Value.max_value maxs.(i) t.(i)
         end
       done;
       List.iter
         (fun (_, i, d) ->
            if not (Value.is_null t.(i)) then Mqr_stats.Distinct.add d t.(i))
         distinct_targets)
    rows;
  let histograms = reference_histograms schema s.Collector.hist_cols rows in
  let distincts =
    List.map (fun (c, _, d) -> (c, Mqr_stats.Distinct.estimate d)) distinct_targets
  in
  let ranges =
    List.filter_map
      (fun i ->
         if Value.is_null mins.(i) then None
         else Some (qualified i, (mins.(i), maxs.(i))))
      (List.init arity Fun.id)
  in
  (ranges, histograms, distincts)

(* The statistics the collector must return under [s]: one record per
   spec column, in order, assembled from the reference's per-kind
   results by the collector's rule. *)
let expected_stats schema (s : Collector.spec) rows =
  let ranges, histograms, distincts = reference_collect schema s rows in
  List.map
    (fun c ->
       let column = Schema.column schema (Schema.index_of schema c) in
       let range = List.assoc_opt (Schema.qualified_name column) ranges in
       let histogram = List.assoc_opt c histograms in
       let h = Option.map fst histogram in
       ( c,
         { Column_stats.empty with
           min_v = Option.map fst range;
           max_v = Option.map snd range;
           distinct =
             (match List.assoc_opt c distincts with
              | Some d -> Some d
              | None -> Option.map Histogram.distinct h);
           histogram = h;
           dict = Option.bind histogram snd } ))
    (Collector.spec_columns s)

(* Five typed columns (one unqualified) with nulls; [n] mixes Int and
   Float, so min/max ties between Int k and Float k occur.  [`Sorted]
   sorts the rows by one column, so its values and nulls come in long
   runs, and [t.n]'s Int k and Float k sit side by side; [`Runs] repeats
   each column's last non-null cell (the same box) three times in four,
   with nulls inside the runs, and turns [t.n]'s Int k into Float k, or
   back, one time in four. *)
let oracle_schema =
  Schema.make
    [ Schema.col ~qualifier:"t" "i" Value.TInt;
      Schema.col ~qualifier:"t" "f" Value.TFloat;
      Schema.col ~qualifier:"t" "n" Value.TFloat;
      Schema.col ~qualifier:"t" "d" Value.TDate;
      Schema.col "s" Value.TString ]

let oracle_columns = [ "t.i"; "t.f"; "t.n"; "t.d"; "s" ]

let oracle_rows ?(layout = `Random) ~seed ~n ~domain () =
  let st = Random.State.make [| seed |] in
  let pick mk = if Random.State.int st 10 = 0 then Value.Null else mk (Random.State.int st domain) in
  let fresh () =
    [| pick (fun k -> Value.Int k);
       pick (fun k -> Value.Float (float_of_int k /. 4.0));
       pick (fun k -> if k land 1 = 0 then Value.Int (k / 2) else Value.Float (float_of_int (k / 2)));
       pick (fun k -> Value.Date (8000 + k));
       pick (fun k -> Value.String (Printf.sprintf "v%d" k)) |]
  in
  match layout with
  | `Random -> Array.init n (fun _ -> fresh ())
  | `Sorted ->
    let rows = Array.init n (fun _ -> fresh ()) in
    let by = seed mod 5 in
    Array.stable_sort (fun (a : Tuple.t) b -> Value.compare a.(by) b.(by)) rows;
    rows
  | `Runs ->
    let last = Array.make 5 Value.Null in
    Array.init n (fun _ ->
        let row = fresh () in
        Array.mapi
          (fun i v ->
             if Value.is_null v then v
             else begin
               let v =
                 if Value.is_null last.(i) || Random.State.int st 4 = 0 then v
                 else if i = 2 && Random.State.int st 4 = 0 then
                   match last.(i) with
                   | Value.Int k -> Value.Float (float_of_int k)
                   | Value.Float f -> Value.Int (int_of_float f)
                   | v -> v
                 else last.(i)
               in
               last.(i) <- v;
               v
             end)
          row)

let bits f = Int64.bits_of_float f

let same_histogram a b =
  Histogram.kind a = Histogram.kind b
  && List.equal
       (fun (x : Histogram.bucket) (y : Histogram.bucket) ->
          bits x.lo = bits y.lo && bits x.hi = bits y.hi
          && bits x.rows = bits y.rows && bits x.distinct = bits y.distinct)
       (Histogram.buckets a) (Histogram.buckets b)

(* Two collectors' statistics, column by column, bit for bit. *)
let same_stats a b =
  let same (c, (x : Column_stats.t)) (c', (y : Column_stats.t)) =
    let key = Option.map Test_storage.bits_key in
    c = c'
    && key x.min_v = key y.min_v && key x.max_v = key y.max_v
    && Option.equal (fun d d' -> bits d = bits d') x.distinct y.distinct
    && Option.equal same_histogram x.histogram y.histogram
    && compare x.dict y.dict = 0
    && x.stale = y.stale && x.is_key = y.is_key
  in
  List.equal same a b

(* The collector against the reference over [rows] as plain rows, then
   over a heap file of them: its scan leaf, coded where a column keeps
   its dictionary, and the positions of a filter over that leaf. *)
let matches_reference spec rows =
  let agrees leaf =
    same_stats
      (Collector.collect (ctx ()) oracle_schema spec leaf)
      (expected_stats oracle_schema spec (Leaf.rows leaf))
  in
  let heap = Heap_file.create oracle_schema in
  Array.iter (fun r -> Heap_file.append heap (Array.copy r)) rows;
  let scan = Leaf.of_heap heap in
  (* drops the rows whose t.d is null or 8001 *)
  let pred = Expr.Cmp (Expr.Ne, Expr.Col "t.d", Expr.Const (Value.Date 8001)) in
  agrees (Leaf.of_rows rows)
  && agrees scan
  && agrees (Leaf.filter (ctx ()) oracle_schema pred scan)

let oracle_gen =
  QCheck.Gen.(
    quad (int_bound 10_000)
      (frequency [ (3, int_range 0 400); (1, int_range 4200 6000) ])
      (oneofl [ 1; 7; 300; 100_000 ])
      (oneofl [ `Random; `Sorted; `Runs ]))

(* spec lists in any order, a column possibly listed twice *)
let prop_collector_matches_reference =
  let columns = QCheck.Gen.(list_size (int_bound 7) (oneofl oracle_columns)) in
  QCheck.Test.make ~name:"collector = row-at-a-time reference" ~count:40
    (QCheck.make (QCheck.Gen.pair oracle_gen (QCheck.Gen.pair columns columns)))
    (fun ((seed, n, domain, layout), (hist_cols, distinct_cols)) ->
       let spec = Collector.spec ~hist_cols ~distinct_cols () in
       matches_reference spec (oracle_rows ~layout ~seed ~n ~domain ()))

(* A temp table's free statistics: min/max-only records over every
   column, in the order named, equal a [Value.min_value] /
   [Value.max_value] fold — on [t.n], whose Int k and Float k tie, the
   first of them wins. *)
let prop_ranges_match_fold =
  QCheck.Test.make ~name:"Collector.ranges = min/max fold" ~count:40
    (QCheck.make oracle_gen)
    (fun (seed, n, domain, layout) ->
       let rows = oracle_rows ~layout ~seed ~n ~domain () in
       let ref_ranges, _, _ =
         reference_collect oracle_schema (Collector.spec ()) rows
       in
       same_stats
         (Collector.ranges oracle_schema ~columns:oracle_columns rows)
         (List.filter_map
            (fun c ->
               Option.map
                 (fun (lo, hi) ->
                    (c, { Column_stats.empty with min_v = Some lo; max_v = Some hi }))
                 (List.assoc_opt c ref_ranges))
            oracle_columns))

(* ANALYZE's statistics equal the folds they replaced: min/max by
   [Value.min_value] / [Value.max_value], the dictionary as the sorted
   distinct strings, the histogram built over [List.assoc] ordinals. *)
let prop_analyze_matches_fold =
  QCheck.Test.make ~name:"Column_stats.analyze = folds" ~count:40
    (QCheck.make oracle_gen)
    (fun (seed, n, domain, layout) ->
       let rows = oracle_rows ~layout ~seed ~n ~domain () in
       List.for_all
         (fun i ->
            let values = Array.to_list (Array.map (fun (t : Tuple.t) -> t.(i)) rows) in
            let non_null = List.filter (fun v -> not (Value.is_null v)) values in
            let st = Column_stats.analyze values in
            let fold f = List.fold_left f Value.Null non_null in
            let opt v = if Value.is_null v then None else Some v in
            let strings =
              List.filter_map (function Value.String s -> Some s | _ -> None) non_null
            in
            let dict =
              if strings = [] then None
              else
                Some
                  (List.mapi (fun k s -> (s, float_of_int k))
                     (List.sort_uniq String.compare strings))
            in
            let domain =
              List.map
                (function
                  | Value.String s -> List.assoc s (Option.get dict)
                  | v -> Value.to_float v)
                non_null
            in
            st.Column_stats.min_v = opt (fold Value.min_value)
            && st.Column_stats.max_v = opt (fold Value.max_value)
            && st.Column_stats.dict = dict
            &&
            match st.Column_stats.histogram with
            | None -> non_null = []
            | Some h ->
              same_histogram h
                (Histogram.build Histogram.Maxdiff ~buckets:32
                   (Array.of_list domain)))
         (List.init (Schema.arity oracle_schema) Fun.id))

(* A NaN in a collected column once made the histogram build loop forever. *)
let test_collector_histogram_nan () =
  let schema = Schema.make [ Schema.col ~qualifier:"t" "x" Value.TFloat ] in
  let rows =
    Array.init 3000 (fun i ->
        [| Value.Float (if i mod 5 = 0 then Float.nan else float_of_int (i mod 40)) |])
  in
  let spec = Collector.spec ~hist_cols:[ "t.x" ] ~distinct_cols:[ "t.x" ] () in
  match Collector.collect (ctx ()) schema spec (Leaf.of_rows rows) with
  | ("t.x", { Column_stats.histogram = Some h; _ }) :: _ ->
    Alcotest.(check (float 1e-6)) "scaled to stream" 3000.0 (Histogram.total_rows h)
  | _ -> Alcotest.fail "no histogram"

(* Past the exact counter's 4096 values the distincts come from the
   Flajolet-Martin sketch. *)
let test_collector_reference_sketch_path () =
  let rows = oracle_rows ~seed:3 ~n:6000 ~domain:100_000 () in
  let spec =
    Collector.spec ~hist_cols:oracle_columns ~distinct_cols:oracle_columns ()
  in
  let seen = Hashtbl.create 8192 in
  Array.iter (fun (t : Tuple.t) -> Hashtbl.replace seen t.(0) ()) rows;
  Alcotest.(check bool) "over the exact limit" true (Hashtbl.length seen > 4096);
  Alcotest.(check bool) "matches reference" true (matches_reference spec rows)

let prop_hash_join_equals_nested_loop =
  QCheck.Test.make ~name:"hash join = nested loop" ~count:100
    QCheck.(pair (list_of_size (Gen.int_range 0 60) (int_range 0 8))
              (list_of_size (Gen.int_range 0 60) (int_range 0 8)))
    (fun (lks, rks) ->
       let c = ctx () in
       let ls = schema_ab "l" and rs = schema_ab "r" in
       let left = rows_of (List.mapi (fun i k -> (k, i)) lks) in
       let right = rows_of (List.mapi (fun i k -> (k, i + 1000)) rks) in
       let r =
         Join.hash_join c ~mem_pages:4 ~build:(right, rs) ~probe:(Leaf.of_rows left, ls)
           ~keys:[ ("l.a", "r.a") ] ()
       in
       let expect = reference_join left right ~li:0 ~ri:0 in
       sorted_pairs r.Join.rows = sorted_pairs (Array.of_list expect))

(* A join given an output schema returns its full output with every
   other column dropped: the same multiset of rows, each restricted to
   the output's columns.  Every join method, with and without a residual
   (over columns the output keeps), and the partitioned hash join at
   degrees 2 and 4.  The output keeps a random, in-order subset of the
   six input columns. *)
let prop_join_outputs_project =
  let schema q =
    Schema.make
      (List.map (fun c -> Schema.col ~qualifier:q c Value.TInt) [ "a"; "b"; "c" ])
  in
  let ls = schema "l" and rs = schema "r" in
  let all = Schema.concat ls rs in
  QCheck.Test.make ~name:"join outputs = full join restricted to their columns"
    ~count:100
    QCheck.(
      quad (int_bound 100_000) (int_range 0 63) (int_range 0 120)
        (pair (int_range 0 120) bool))
    (fun (seed, mask, nl, (nr, with_residual)) ->
       let st = Random.State.make [| seed |] in
       let row _ = Array.init 3 (fun _ -> Value.Int (Random.State.int st 6)) in
       let left = Array.init nl row and right = Array.init nr row in
       let extra =
         if with_residual then Some Expr.(col "l.b" <% col "r.b") else None
       in
       (* the columns a join's predicate reads stay, any other may go: the
          residual's, and a block join's key columns, which its predicate
          tests *)
       let reads = if with_residual then [ 1; 4 ] else [] in
       let kept reads =
         List.filter
           (fun i -> mask land (1 lsl i) <> 0 || List.mem i reads)
           (List.init 6 Fun.id)
       in
       let same ~reads what full proj =
         let idx = kept reads in
         if
           Reference.bits (Array.map (fun t -> Tuple.project t idx) full)
           = Reference.bits proj
         then true
         else QCheck.Test.fail_reportf "%s: projected rows differ" what
       in
       let out reads = Some (Schema.project all (kept reads)) in
       let keys = [ ("l.a", "r.a") ] in
       let hash out c =
         (Join.hash_join c ~mem_pages:4 ~build:(right, rs)
            ~probe:(Leaf.of_rows left, ls) ~keys ?extra ?out ()).Join.rows
       in
       let merge out c =
         (Merge_join.merge_join c ~mem_pages:4 ~left:(left, ls)
            ~right:(right, rs) ~keys ?extra ?out ()).Merge_join.rows
       in
       let block out c =
         let pred =
           Expr.conjoin
             (Expr.(col "l.a" =% col "r.a") :: Option.to_list extra)
         in
         (Join.block_nl_join c ~mem_pages:2 ~outer:(left, ls)
            ~inner:(right, rs) ~pred ?out ()).Join.rows
       in
       let heap = Heap_file.create rs and bt = Btree.create ~fanout:4 () in
       Array.iteri
         (fun rid t -> Heap_file.append heap t; Btree.insert bt t.(0) rid)
         right;
       let index out c =
         (Join.index_nl_join c ~outer:(left, ls) ~inner_heap:heap
            ~inner_schema:rs ~inner_index:bt ~outer_col:"l.a" ?extra ?out ())
           .Join.rows
       in
       let parallel degree out c =
         fst
           (Parallel.hash_join c ~degree ~mem_pages:8 ~build:(right, rs)
              ~probe:(Leaf.of_rows left, ls) ~keys ?extra ?out ())
       in
       List.for_all
         (fun (what, reads, run) ->
            same ~reads what (run None (ctx ())) (run (out reads) (ctx ())))
         [ ("hash", reads, hash); ("merge", reads, merge);
           ("block", 0 :: 3 :: reads, block); ("index", reads, index) ]
       && List.for_all
            (fun degree ->
               same ~reads
                 (Printf.sprintf "parallel %d" degree)
                 (hash None (ctx ()))
                 (parallel degree (out reads) (ctx ())))
            [ 2; 4 ])

(* Reference for the order of [Join.hash_join]'s output: probe rows in
   order, each followed by its matches as [Hashtbl.find_all] returns them
   (the newest build row first). *)
module Ref_join = struct
  module Ktbl = Hashtbl.Make (struct
      type t = Value.t list

      let equal a b = List.equal Value.equal a b
      let hash k = List.fold_left (fun acc v -> (acc * 31) + Value.hash v) 17 k
    end)

  let join ~build ~build_idx ~probe ~probe_idx residual =
    let key t idx = List.map (fun i -> t.(i)) idx in
    let has_null t idx = List.exists (fun i -> Value.is_null t.(i)) idx in
    let table = Ktbl.create 16 in
    Array.iter
      (fun t -> if not (has_null t build_idx) then Ktbl.add table (key t build_idx) t)
      build;
    Array.to_list probe
    |> List.concat_map (fun pt ->
        if has_null pt probe_idx then []
        else
          List.filter_map
            (fun bt ->
               let joined = Array.append pt bt in
               if residual joined then Some joined else None)
            (Ktbl.find_all table (key pt probe_idx)))
    |> Array.of_list
end

(* Keys over a few values with Nulls, so keys repeat on both sides; the
   build side also mixes in the equal integral Floats. *)
let prop_hash_join_order_matches_reference =
  let schema q =
    Schema.make
      (List.map (fun c -> Schema.col ~qualifier:q c Value.TInt) [ "a"; "b"; "c"; "p" ])
  in
  let ls = schema "l" and rs = schema "r" in
  QCheck.Test.make ~name:"hash join order = find_all reference" ~count:200
    (QCheck.make
       QCheck.Gen.(
         quad (int_bound 100_000) (int_range 1 3) (int_range 0 400) (int_range 0 400)))
    (fun (seed, nkeys, nl, nr) ->
       let st = Random.State.make [| seed |] in
       let row ~floats i =
         let key () =
           match Random.State.int st 10 with
           | 0 -> Value.Null
           | k when floats && k < 4 -> Value.Float (float_of_int (Random.State.int st 5))
           | _ -> Value.Int (Random.State.int st 5)
         in
         let a = key () in
         let b = key () in
         let c = key () in
         [| a; b; c; Value.Int i |]
       in
       let left = Array.init nl (row ~floats:false) in
       let right = Array.init nr (row ~floats:true) in
       let cols = List.filteri (fun i _ -> i < nkeys) [ "a"; "b"; "c" ] in
       let keys = List.map (fun c -> ("l." ^ c, "r." ^ c)) cols in
       let idx = List.mapi (fun i _ -> i) cols in
       let with_residual = Random.State.bool st in
       let extra = if with_residual then Some Expr.(col "l.p" <% col "r.p") else None in
       let residual t = (not with_residual) || Value.compare t.(3) t.(7) < 0 in
       let r =
         Join.hash_join (ctx ()) ~mem_pages:4 ~build:(right, rs) ~probe:(Leaf.of_rows left, ls)
           ~keys ?extra ()
       in
       same_rows r.Join.rows
         (Ref_join.join ~build:right ~build_idx:idx ~probe:left ~probe_idx:idx residual))

(* Values that are often [Value.equal] to one another: one number as an
   Int or a Float (small, around +-2^53, where Floats round to even, or
   at the ints' ends +-2^62), -0.0 and 0.0, +-inf, nans with different
   payloads, Dates, Strings, Bools and Null. *)
let key_value =
  let p = 1 lsl 53 in
  let number =
    QCheck.Gen.(
      oneof
        [ int_range (-5) 5;
          map2 (fun s d -> s * (p + d)) (oneofl [ 1; -1 ]) (int_range (-3) 3);
          map (fun d -> max_int - d) (int_range 0 3);
          map (fun d -> min_int + d) (int_range 0 3) ])
  in
  QCheck.Gen.(
    frequency
      [ (6, map2 (fun k as_int -> if as_int then Value.Int k else Value.Float (float_of_int k))
             number bool);
        (1, oneofl [ Value.Float 0.0; Value.Float (-0.0); Value.Float 0.5;
                     Value.Float Float.nan; Value.Float (Int64.float_of_bits 0x7ff8000000000001L);
                     Value.Float (-.Float.nan); Value.Float Float.infinity;
                     Value.Float Float.neg_infinity; Value.Float 0x1p62;
                     Value.Float (-0x1p62); Value.Float (Float.pred 0x1p62); Value.Null ]);
        (1, map (fun d -> Value.Date d) (int_range (-3) 3));
        (1, map (fun s -> Value.String s) (string_size ~gen:(char_range 'a' 'c') (int_bound 10)));
        (1, map (fun b -> Value.Bool b) bool) ])

let prop_hash_agrees_with_equal =
  QCheck.Test.make ~name:"Value.hash agrees with Value.equal" ~count:2000
    (QCheck.make (QCheck.Gen.pair key_value key_value))
    (fun (a, b) ->
       match Value.equal a b with
       | eq -> (not eq) || Value.hash a = Value.hash b
       | exception Invalid_argument _ -> true)

(* The two paths that bypass [Value.compare], over [key_value]: a
   [Column_pass]'s min/max against a [Value.min_value] / [max_value]
   fold (constructor and bits: the first value of an extreme wins ties),
   over a column of one kind (numbers, Dates, Strings or Bools) with
   nulls; and [Rows_ops.keys_equal] of two-column keys against
   [Value.equal] column by column, raising alike. *)
let prop_order_bypasses_agree =
  let module Column_pass = Mqr_stats.Column_pass in
  let comparable a b =
    match Value.compare a b with _ -> true | exception Invalid_argument _ -> false
  in
  QCheck.Test.make ~name:"Column_pass min/max and keys_equal = Value order" ~count:2000
    (QCheck.make
       ~print:(fun (column, (a1, a2, b1, b2)) ->
           String.concat " " (List.map Test_storage.bits_key (column @ [ a1; a2; b1; b2 ])))
       QCheck.Gen.(pair (list_size (int_bound 12) key_value) (quad key_value key_value key_value key_value)))
    (fun (column, (a1, a2, b1, b2)) ->
       let column =
         match List.find_opt (fun v -> not (Value.is_null v)) column with
         | Some first -> List.filter (comparable first) column
         | None -> column
       in
       let pass = Column_pass.create () in
       List.iter (Column_pass.add pass) column;
       let fold f = List.fold_left f Value.Null column in
       let range_agrees =
         match Column_pass.range pass with
         | None -> List.for_all Value.is_null column
         | Some (lo, hi) ->
           let same a b = Test_storage.bits_key a = Test_storage.bits_key b in
           same lo (fold Value.min_value) && same hi (fold Value.max_value)
       in
       let run f = match f () with eq -> Some eq | exception Invalid_argument _ -> None in
       let equal_agrees =
         run (fun () -> Rows_ops.keys_equal [| a1; a2 |] [| 0; 1 |] [| b1; b2 |] [| 0; 1 |])
         = run (fun () -> Value.equal a1 b1 && Value.equal a2 b2)
       in
       range_agrees && equal_agrees)

(* Every arm of [Value.hash], a non-integral Float's included, and its
   payload arm; the bound leaves room for [Gc.minor_words]'s own boxed
   result. *)
let test_hash_allocation_free () =
  let keys =
    [| Value.Int 42; Value.Date 9000; Value.String "R"; Value.String "a key of 17 bytes";
       Value.Float 2.5; Value.Float 3.0; Value.Float Float.nan; Value.Null |]
  in
  let sink = ref 0 in
  let before = Gc.minor_words () in
  for i = 1 to 10_000 do
    sink :=
      !sink + Value.hash keys.(i land 7) + Value.hash_payload i
  done;
  let words = Gc.minor_words () -. before in
  if words >= 100.0 then Alcotest.failf "10 000 rounds of hashes allocated %.0f minor words" words;
  Alcotest.(check bool) "hashed" true (!sink <> 0)

(* Codes and positions at the scan leaf change nothing but the wall
   clock.  A file is built by [create] + [append] from [Test_storage]'s
   interning cells (Null, both zeros, nan payloads, and Int 3, Float 3.0,
   Date 3 in one column; or only Null, Int and Float), some columns
   never null (the collector's pass over such a coded column stops at
   its last new code: every code early, a code the filtered leaf lacks,
   a Null appended after the scan leaf was built), sometimes pushing
   column 0 past 4096 values, sometimes [retain]ed and appended to again.
   Three leaves are checked: the full scan, the survivors of a filter
   over it (a filter over a filtered leaf), and an index scan (probed
   rids out of rid order).  Against an [of_rows] copy of a leaf's rows
   (no codes): [Leaf.filter] gives the rows of [Rows_ops.filter] (by
   bits, in order), the same exception, the same UDF calls and charges
   (conjuncts include ones that raise on a String cell partway through
   the rows, so the conjunct-at-a-time path must fall back to the row
   path's exception); over the leaf and over the survivors,
   [Collector.collect] the same statistics, and its histograms those of
   a reservoir fed row by row (histogram columns hold nulls, and past
   512 values in some cases, coded or not); over the survivors,
   [hash_aggregate] the same rows in the same order on the coded leaf as
   on [Leaf.of_rows] of the copy, or both the same exception. *)
let udf_calls = ref 0

let coded_udf c =
  Expr.udf ~name:"parity"
    (fun args ->
       incr udf_calls;
       match args with
       | [ v ] -> Value.Bool (Value.hash v land 1 = 0)
       | _ -> Value.Null)
    [ Expr.Col c ]

let coded_case_gen =
  QCheck.Gen.(
    let* cols = int_range 1 4 in
    let null_free = frequency [ (1, return true); (2, return false) ] in
    let* kinds = list_repeat cols (pair bool null_free) in
    let* wide = frequency [ (1, return true); (7, return false) ] in
    let* long = frequency [ (1, return true); (4, return false) ] in
    let wide_cell =
      frequency [ (1, return Value.Null); (19, Test_storage.intern_wide_cell) ]
    in
    let no_null = map (fun v -> if Value.is_null v then Value.Int 0 else v) in
    let row =
      map Array.of_list
        (flatten_l
           (List.mapi
              (fun i (numeric, never_null) ->
                 let cell =
                   if wide && i = 0 then wide_cell
                   else if numeric then Test_storage.intern_number
                   else Test_storage.intern_cell
                 in
                 if never_null then no_null cell else cell)
              kinds))
    in
    let* first =
      list_size
        (if wide then return 5000 else if long then int_range 520 1500 else int_range 0 200)
        row
    in
    let* kept =
      opt (list_repeat (List.length first) (frequency [ (3, return true); (1, return false) ]))
    in
    let* second = list_size (int_range 0 60) row in
    let* late_null = bool in
    let col = map (Printf.sprintf "c%d") (int_bound (cols - 1)) in
    let op = oneofl Expr.[ Eq; Ne; Lt; Le; Gt; Ge ] in
    let const = map (fun v -> Expr.Const v) Test_storage.intern_cell in
    let rec single c depth =
      frequency
        ([ (3, map2 (fun op v -> Expr.Cmp (op, Expr.Col c, v)) op const);
           (1, map2 (fun op v -> Expr.Cmp (op, v, Expr.Col c)) op const);
           (2, map2 (fun lo hi -> Expr.Between (Expr.Col c, lo, hi)) const const) ]
         @
         if depth = 0 then []
         else
           [ (1, map (fun p -> Expr.Not p) (single c (depth - 1)));
             (1, map2 (fun a b -> Expr.Or (a, b)) (single c (depth - 1))
                   (single c (depth - 1))) ])
    in
    (* raises [Value.to_float: String] at a String cell, [Value.compare]'s
       message at a Bool or Date one *)
    let raising c =
      map
        (fun k ->
           Expr.Cmp (Expr.Lt, Expr.Arith (Expr.Sub, Expr.Col c, Expr.Const (Value.Int 1)),
                     Expr.Const (Value.Int k)))
        (int_range (-4) 4)
    in
    let conjunct =
      frequency
        [ (6, col >>= fun c -> single c 2);
          (1, map3 (fun op a b -> Expr.Cmp (op, Expr.Col a, Expr.Col b)) op col col);
          (1, col >>= raising);
          (1, map coded_udf col) ]
    in
    let pred = map Expr.conjoin (list_size (int_range 1 4) conjunct) in
    let* pred = pair pred pred in
    let* group_by = map (List.sort_uniq compare) (list_size (int_range 1 3) col) in
    let* hist_cols = list_size (int_bound 2) col in
    let* distinct_cols = list_size (int_bound 2) col in
    let* agg_col = col in
    let* probe = pair (int_bound 10) (int_bound 10) in
    return
      ( cols,
        (first, kept, second, late_null),
        pred,
        (group_by, hist_cols, distinct_cols, agg_col),
        probe ))

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y ->
          Array.length x = Array.length y
          && Array.for_all2 (fun u v -> Test_storage.bits_key u = Test_storage.bits_key v) x y)
       a b

let outcome f = match f () with v -> Ok v | exception e -> Error (Printexc.to_string e)

let same_outcome same a b =
  match a, b with
  | Ok x, Ok y -> same x y
  | Error x, Error y -> String.equal x y
  | _ -> false

(* [Collector.collect_table] against [Collector.collect] over a fresh
   [Leaf.of_heap] of the table, statistics and charge bit for bit: each
   column alone, histogram only, then distinct only, then both (so a
   kept summary meets a request for a piece it lacks), then every column
   at once under two aliases, which share the summaries. *)
let table_collect_agrees (tbl : Mqr_catalog.Catalog.table) =
  let heap = tbl.Mqr_catalog.Catalog.heap in
  let schema alias = Schema.qualify (Heap_file.schema heap) alias in
  let names alias =
    List.map Schema.qualified_name (Schema.columns (schema alias))
  in
  let agrees alias spec =
    let c1 = ctx () and c2 = ctx () in
    let kept = Collector.collect_table c1 (schema alias) spec tbl in
    let fresh = Collector.collect c2 (schema alias) spec (Leaf.of_heap heap) in
    same_stats kept fresh
    && bits (Sim_clock.elapsed_ms c1.Exec_ctx.clock)
       = bits (Sim_clock.elapsed_ms c2.Exec_ctx.clock)
  in
  List.for_all
    (fun c ->
       List.for_all (agrees "a")
         [ Collector.spec ~hist_cols:[ c ] ();
           Collector.spec ~distinct_cols:[ c ] ();
           Collector.spec ~hist_cols:[ c ] ~distinct_cols:[ c ] () ])
    (names "a")
  && List.for_all
       (fun alias ->
          let all = names alias in
          agrees alias (Collector.spec ~hist_cols:all ~distinct_cols:all ()))
       [ "a"; "b" ]

(* Every column of every base table at sf 0.005, and of a generated
   table with nulls, coded columns and columns past the dictionary cap
   (an Int key, a Float), then again after an INSERT, a DELETE and an
   ANALYZE of each table.  ANALYZE moves no heap generation, so its
   histogram-only requests meet the distinct estimates kept before it,
   which the statistics must not show. *)
let test_collect_table_matches_collect () =
  let module Catalog = Mqr_catalog.Catalog in
  let catalog = Mqr_tpcd.Workload.experiment_catalog ~sf:0.005 () in
  let rng = Mqr_stats.Rng.create 5 in
  let generated_row k =
    let maybe_null v = if Mqr_stats.Rng.int rng 7 = 0 then Value.Null else v in
    [| Value.Int k;
       maybe_null (Value.Int (Mqr_stats.Rng.int rng 40));
       Value.String (Printf.sprintf "s%d" (Mqr_stats.Rng.int rng 9));
       maybe_null
         (Value.Float (float_of_int (Mqr_stats.Rng.int rng 100_000) /. 7.0));
       maybe_null (Value.Date (Mqr_stats.Rng.int rng 3000));
       Value.Null |]
  in
  let generated =
    Heap_file.create
      (Schema.make
         [ Schema.col "k" Value.TInt; Schema.col "g" Value.TInt;
           Schema.col "s" Value.TString; Schema.col "f" Value.TFloat;
           Schema.col "d" Value.TDate; Schema.col "z" Value.TInt ])
  in
  for k = 0 to 5999 do Heap_file.append generated (generated_row k) done;
  ignore (Catalog.add_table catalog "generated" generated);
  let tables =
    List.sort
      (fun a b -> String.compare a.Catalog.name b.Catalog.name)
      (Catalog.tables catalog)
  in
  let check what =
    List.iter
      (fun tbl ->
         Alcotest.(check bool) (what ^ " " ^ tbl.Catalog.name) true
           (table_collect_agrees tbl))
      tables
  in
  check "fresh";
  List.iter
    (fun tbl ->
       let heap = tbl.Catalog.heap in
       let row =
         if tbl.Catalog.name = "generated" then generated_row (-1)
         else Array.map (fun _ -> Value.Null) (Heap_file.get heap 0)
       in
       Catalog.insert_row tbl row;
       Catalog.insert_row tbl (Array.copy (Heap_file.get heap 1)))
    tables;
  check "after INSERT";
  List.iter
    (fun tbl ->
       let rid = ref (-1) in
       ignore (Catalog.delete_rows tbl (fun _ -> incr rid; !rid mod 3 <> 1)))
    tables;
  check "after DELETE";
  List.iter (fun tbl -> Catalog.analyze_table catalog tbl.Catalog.name) tables;
  check "after ANALYZE"

(* Whether the filter, collector and GROUP BY agree on [leaf] and on
   [plain], a copy of its rows without codes; then the filter's
   survivors on both sides, as the next check's leaf and copy. *)
let coded_agrees schema pred (group_by, hist_cols, distinct_cols, agg_col) leaf plain =
  let elapsed c = bits (Sim_clock.elapsed_ms c.Exec_ctx.clock) in
  let c1 = ctx () and c2 = ctx () in
  udf_calls := 0;
  let coded = outcome (fun () -> Leaf.filter c1 schema pred leaf) in
  let coded_calls = !udf_calls in
  udf_calls := 0;
  let rows = outcome (fun () -> Rows_ops.filter c2 schema pred plain) in
  let filter_ok =
    same_outcome (fun l r -> same_bits (Leaf.rows l) r) coded rows
    && coded_calls = !udf_calls
    && elapsed c1 = elapsed c2
  in
  let spec = Collector.spec ~hist_cols ~distinct_cols () in
  let collect leaf () = Collector.collect (ctx ()) schema spec leaf in
  (* the collector on a leaf against its copy, and its histograms
     against a reservoir fed row by row *)
  let collect_agrees leaf plain =
    let coded = outcome (collect leaf) in
    same_outcome same_stats coded (outcome (collect (Leaf.of_rows plain)))
    &&
    match coded with
    | Error _ -> true
    | Ok stats ->
      List.for_all
        (fun (c, (h, dict)) ->
           match List.assoc c stats with
           | { Column_stats.histogram = Some h'; dict = dict'; _ } ->
             same_histogram h h' && compare dict dict' = 0
           | _ -> false)
        (reference_histograms schema hist_cols plain)
  in
  let input_ok = collect_agrees leaf plain in
  let leaf, plain =
    match coded, rows with Ok l, Ok r -> (l, r) | _ -> (leaf, plain)
  in
  let collect_ok = input_ok && collect_agrees leaf plain in
  let agg fn ?(distinct_arg = false) arg =
    { Aggregate.fn; distinct_arg; arg = Option.map Expr.col arg; out_name = "a" }
  in
  let aggs =
    [ agg Aggregate.Count None;
      agg Aggregate.Count ~distinct_arg:true (Some agg_col);
      agg Aggregate.Min (Some agg_col) ]
  in
  (* the serial operator also runs the sums and counts that a coded
     GROUP BY may run as kernels over codes or payloads *)
  let serial_aggs =
    aggs
    @ [ agg Aggregate.Sum (Some agg_col); agg Aggregate.Avg (Some agg_col);
        agg Aggregate.Count (Some agg_col) ]
  in
  let aggregate aggs leaf () =
    (Aggregate.hash_aggregate (ctx ()) ~mem_pages:64 schema ~group_by ~aggs leaf)
      .Aggregate.rows
  in
  let serial_reference = outcome (aggregate serial_aggs (Leaf.of_rows plain)) in
  let aggregate_ok =
    same_outcome same_bits (outcome (aggregate serial_aggs leaf)) serial_reference
  in
  (* every GROUP BY runs through [Parallel.aggregate]: at degree 1 it
     is the serial operator, codes and all; at degree 2 its groups
     are the serial ones in worker order, and it raises what the serial
     operator raises *)
  let parallel ~degree aggs () =
    fst
      (Parallel.aggregate (ctx ()) ~degree ~mem_pages:64 schema ~group_by ~aggs
         leaf)
  in
  let multiset rows =
    List.sort compare (Array.to_list (Array.map (Array.map Test_storage.bits_key) rows))
  in
  let parallel_ok =
    same_outcome same_bits (outcome (parallel ~degree:1 serial_aggs)) serial_reference
    && same_outcome
         (fun a b -> multiset a = multiset b)
         (outcome (parallel ~degree:2 serial_aggs))
         serial_reference
  in
  (filter_ok && collect_ok && aggregate_ok && parallel_ok, (leaf, plain))

let prop_coded_leaf_matches_rows =
  QCheck.Test.make ~name:"coded scan leaf = plain rows" ~count:150
    (QCheck.make coded_case_gen)
    (fun (cols, (first, kept, second, late_null), (pred, pred2), work, (lo, hi)) ->
       let schema =
         Schema.make (List.init cols (fun i -> Schema.col (Printf.sprintf "c%d" i) Value.TInt))
       in
       let heap = Heap_file.create schema in
       List.iter (fun r -> Heap_file.append heap (Array.copy r)) first;
       Option.iter
         (fun kept ->
            let rest = ref kept in
            ignore
              (Heap_file.retain heap (fun _ ->
                   match !rest with
                   | k :: tl -> rest := tl; k
                   | [] -> true)))
         kept;
       List.iter (fun r -> Heap_file.append heap (Array.copy r)) second;
       let copy leaf =
         Heap_file.rows (Heap_file.of_rows schema (Array.copy (Leaf.rows leaf)))
       in
       let scan = Leaf.scan (ctx ()) heap in
       (* a Null the scan leaf's rows do not hold: a column that held
          none when the leaf was built may still stop at its last code *)
       if late_null then Heap_file.append heap (Array.make cols Value.Null);
       let scan_ok, (filtered, filtered_plain) =
         coded_agrees schema pred work scan (copy scan)
       in
       let refiltered_ok, _ = coded_agrees schema pred2 work filtered filtered_plain in
       (* an index whose key order is not rid order: the leaf holds the
          probed rids, fetched and charged in probe order *)
       let btree = Btree.create ~fanout:4 () in
       for rid = 0 to Heap_file.tuple_count heap - 1 do
         Btree.insert btree (Value.Int (rid * 7 mod 11)) rid
       done;
       let bound k = (Value.Int k, true) in
       let c1 = ctx () and c2 = ctx () in
       let indexed =
         Leaf.index_scan c1 heap btree ~lo:(bound (min lo hi)) ~hi:(bound (max lo hi)) ()
       in
       let fetched =
         List.map
           (fun rid ->
              Heap_file.fetch heap ~pool:c2.Exec_ctx.pool ~clock:c2.Exec_ctx.clock rid)
           (Btree.probe btree ~pool:c2.Exec_ctx.pool ~clock:c2.Exec_ctx.clock
              ~lo:(Value.Int (min lo hi)) ~hi:(Value.Int (max lo hi)) ())
       in
       let index_ok =
         List.equal ( == ) (Array.to_list (Leaf.rows indexed)) fetched
         && Leaf.length indexed = List.length fetched
         && bits (Sim_clock.elapsed_ms c1.Exec_ctx.clock)
            = bits (Sim_clock.elapsed_ms c2.Exec_ctx.clock)
       in
       let indexed_ok, _ = coded_agrees schema pred work indexed (copy indexed) in
       scan_ok && refiltered_ok && index_ok && indexed_ok)

(* The conjunct-at-a-time filter meets a raising conjunct on another row
   than the row path does: the first conjunct raises only at row 3, the
   second already at row 1.  [Leaf.filter] must raise the row path's
   exception, after the same charges, on a coded and an uncoded leaf;
   without the raising rows both give the same survivors. *)
let test_coded_filter_raises_as_rows () =
  let schema =
    Schema.make [ Schema.col "a" Value.TInt; Schema.col "b" Value.TInt ]
  in
  let rows =
    [| [| Value.Int 1; Value.Int 1 |];
       [| Value.Int 2; Value.String "x" |];
       [| Value.Int 3; Value.Int 5 |];
       [| Value.String "y"; Value.Int 2 |];
       [| Value.Int 9; Value.Int 0 |] |]
  in
  let heap = Heap_file.create schema in
  Array.iter (fun r -> Heap_file.append heap (Array.copy r)) rows;
  let pred =
    Expr.conjoin
      [ Expr.Cmp (Expr.Lt, Expr.Arith (Expr.Sub, Expr.Col "a", Expr.Const (Value.Int 1)),
                  Expr.Const (Value.Int 5));
        Expr.Cmp (Expr.Gt, Expr.Col "b", Expr.Const (Value.Int 0)) ]
  in
  let run leaf =
    let c = ctx () in
    (outcome (fun () -> Leaf.rows (Leaf.filter c schema pred leaf)),
     bits (Sim_clock.elapsed_ms c.Exec_ctx.clock))
  in
  let c = ctx () in
  let expected =
    (outcome (fun () -> Rows_ops.filter c schema pred rows),
     bits (Sim_clock.elapsed_ms c.Exec_ctx.clock))
  in
  let show (o, e) =
    (match o with Ok r -> Printf.sprintf "%d rows" (Array.length r) | Error m -> m)
    ^ Printf.sprintf " after %Ld" e
  in
  Alcotest.(check string) "row path raises the second conjunct's error"
    "Invalid_argument(\"Value.compare: incompatible types\")"
    (match fst expected with Error m -> m | Ok _ -> "no exception");
  Alcotest.(check string) "coded leaf" (show expected) (show (run (Leaf.scan (ctx ()) heap)));
  Alcotest.(check string) "plain leaf" (show expected) (show (run (Leaf.of_rows rows)));
  let clean = Leaf.filter (ctx ()) schema pred (Leaf.of_rows [| rows.(0); rows.(2); rows.(4) |]) in
  Alcotest.(check int) "survivors" 2 (Leaf.length clean)

(* A filter whose conjuncts over one coded column are merged into one
   verdict table.  [a] is coded.  First case: the later of two adjacent
   conjuncts over [a] compares it with a String, so it raises on the
   first row the earlier one passes.  Second case: a conjunct over [a]
   after one over [b] is not merged, so row 2 (a = 5, b = "s"), which
   fails [a < 3], still reaches the raising [b + 0 > 0] first, as on
   the row path.  Each gives the row path's exception, or survivors,
   after its charges, with row 2 and without it. *)
let test_merged_conjuncts_raise_as_rows () =
  let schema =
    Schema.make [ Schema.col "a" Value.TInt; Schema.col "b" Value.TInt ]
  in
  let rows =
    Array.init 600 (fun i ->
        match i with
        | 2 -> [| Value.Int 5; Value.String "s" |]
        | _ -> [| Value.Int (i mod 7); Value.Int (i mod 5) |])
  in
  let heap = Heap_file.create schema in
  Array.iter (fun r -> Heap_file.append heap (Array.copy r)) rows;
  let a = Expr.Col "a" and b = Expr.Col "b" and int k = Expr.Const (Value.Int k) in
  let preds =
    [ ("merged, later raises",
       Expr.conjoin [ Expr.Cmp (Expr.Ge, a, int 1);
                      Expr.Cmp (Expr.Lt, a, Expr.Const (Value.String "x"));
                      Expr.Cmp (Expr.Gt, b, int 0) ]);
      ("merged, clean",
       Expr.conjoin [ Expr.Cmp (Expr.Ge, a, int 1); Expr.Cmp (Expr.Lt, a, int 6);
                      Expr.Cmp (Expr.Gt, b, int 0) ]);
      ("apart, middle raises",
       Expr.conjoin [ Expr.Cmp (Expr.Gt, a, int 0);
                      Expr.Cmp (Expr.Gt, Expr.Arith (Expr.Add, b, int 0), int 0);
                      Expr.Cmp (Expr.Lt, a, int 3) ]) ]
  in
  let show (o, e) =
    (match o with
     | Ok r -> Printf.sprintf "%d rows %s" (Array.length r)
                 (String.concat ";" (Array.to_list (Array.map Tuple.to_string r)))
     | Error m -> m)
    ^ Printf.sprintf " after %Ld" e
  in
  let run f =
    let c = ctx () in
    (outcome (fun () -> f c), bits (Sim_clock.elapsed_ms c.Exec_ctx.clock))
  in
  List.iter
    (fun (name, pred) ->
       let expected = run (fun c -> Rows_ops.filter c schema pred rows) in
       Alcotest.(check string) name (show expected)
         (show (run (fun c -> Leaf.rows (Leaf.filter c schema pred (Leaf.scan (ctx ()) heap)))));
       (* without the raising rows: the same survivors *)
       let clean = Array.of_list (List.filteri (fun i _ -> i <> 2) (Array.to_list rows)) in
       let cheap = Heap_file.create schema in
       Array.iter (fun r -> Heap_file.append cheap (Array.copy r)) clean;
       Alcotest.(check string) (name ^ ", clean")
         (show (run (fun c -> Rows_ops.filter c schema pred clean)))
         (show (run (fun c -> Leaf.rows (Leaf.filter c schema pred (Leaf.scan (ctx ()) cheap))))))
    preds

(* The example that showed [Parallel.aggregate] raising another error
   than the serial operator: ten groups holding one String each, and an
   [Int 1] added to group [m]; AVG by group.  The serial operator raises
   [Value.add]'s error at the Int row, whichever [m]; every degree must
   too, and without the Int row, the first group's finalizing error. *)
let test_parallel_aggregate_raises_as_serial () =
  let schema =
    Schema.make [ Schema.col "g" Value.TInt; Schema.col "x" Value.TInt ]
  in
  let aggs = [ { Aggregate.fn = Aggregate.Avg; distinct_arg = false;
                 arg = Some (Expr.Col "x"); out_name = "avg" } ] in
  let serial rows () =
    (Aggregate.hash_aggregate (ctx ()) ~mem_pages:64 schema ~group_by:[ "g" ] ~aggs
       (Leaf.of_rows rows)).Aggregate.rows
  in
  let parallel degree rows () =
    fst
      (Parallel.aggregate (ctx ()) ~degree ~mem_pages:64 schema ~group_by:[ "g" ]
         ~aggs (Leaf.of_rows rows))
  in
  let strings = List.init 10 (fun g -> [| Value.Int g; Value.String "s" |]) in
  let cases =
    None :: List.init 10 (fun m -> Some m)
  in
  List.iter
    (fun m ->
       let rows =
         Array.of_list
           (strings @ Option.fold m ~none:[] ~some:(fun m -> [ [| Value.Int m; Value.Int 1 |] ]))
       in
       let expected = outcome (serial rows) in
       Alcotest.(check bool) "the serial operator raises" true (Result.is_error expected);
       List.iter
         (fun degree ->
            Alcotest.(check bool)
              (Printf.sprintf "m=%s degree %d"
                 (Option.fold m ~none:"none" ~some:string_of_int) degree)
              true
              (same_outcome same_bits (outcome (parallel degree rows)) expected))
         [ 2; 3; 4 ])
    cases

(* The scratch an engine lends its operators: no buffer is lent twice
   before its release, a release takes back what was lent and lends it
   again, what it keeps stays under the cap (8 MB, exec_ctx.mli), small
   requests are never tracked, and a poisoned scratch fills what it
   takes back so that positions read -1. *)
let test_scratch_lifetime () =
  let s = Exec_ctx.scratch () in
  let c = Exec_ctx.create ~scratch:s ~pool_pages:64 () in
  let b1 = Exec_ctx.bytes c 10_000 and b2 = Exec_ctx.bytes c 10_000 in
  let i1 = Exec_ctx.ints c 5000 and i2 = Exec_ctx.ints c 5000 in
  let w = Exec_ctx.worker c ~pool_pages:16 in
  Alcotest.(check bool) "bytes lent once" true (b1 != b2);
  Alcotest.(check bool) "ints lent once" true (i1 != i2);
  Alcotest.(check bool) "sized up" true (Bytes.length b1 >= 10_000 && Array.length i1 >= 5000);
  ignore (Exec_ctx.bytes c 16);
  ignore (Exec_ctx.ints c 8);
  Alcotest.(check int) "lent: two bytes, two ints, a worker pool" 5 (Exec_ctx.lent s);
  Exec_ctx.release c;
  Alcotest.(check int) "nothing lent after a release" 0 (Exec_ctx.lent s);
  Alcotest.(check bool) "kept for later" true (Exec_ctx.retained_bytes s > 0);
  let b3 = Exec_ctx.bytes c 9000 and i3 = Exec_ctx.ints c 4097 in
  Alcotest.(check bool) "bytes reused" true (b3 == b1 || b3 == b2);
  Alcotest.(check bool) "ints reused" true (i3 == i1 || i3 == i2);
  ignore (Buffer_pool.access w.Exec_ctx.pool ~file:1 ~page:1);
  let w2 = Exec_ctx.worker c ~pool_pages:13 in
  Alcotest.(check bool) "worker pool of the same class reused, reset" true
    (w2.Exec_ctx.pool == w.Exec_ctx.pool
     && Buffer_pool.resident w2.Exec_ctx.pool = 0
     && Buffer_pool.capacity w2.Exec_ctx.pool = 13);
  Exec_ctx.release c;
  (* far more than the cap, in one step *)
  for _ = 1 to 40 do
    ignore (Exec_ctx.bytes c (1 lsl 20));
    ignore (Exec_ctx.ints c (1 lsl 17))
  done;
  Exec_ctx.release c;
  Alcotest.(check bool) "retained under the cap" true
    (Exec_ctx.retained_bytes s <= 8 lsl 20);
  (* the run's own pool goes back once, at its last release *)
  let before = Exec_ctx.retained_bytes s in
  Exec_ctx.release ~last:true c;
  Exec_ctx.release ~last:true c;
  Alcotest.(check bool) "the run's pool kept once" true
    (Exec_ctx.retained_bytes s - before
     <= Buffer_pool.words c.Exec_ctx.pool * (Sys.word_size / 8));
  let p = Exec_ctx.create ~scratch:s ~pool_pages:64 () in
  Alcotest.(check bool) "a new run takes it" true (p.Exec_ctx.pool == c.Exec_ctx.pool);
  Exec_ctx.poison p;
  let b = Exec_ctx.bytes p 4096 in
  Bytes.fill b 0 (Bytes.length b) '\000';
  Exec_ctx.release p;
  Alcotest.(check bool) "poisoned" true
    (Bytes.for_all (fun ch -> ch = '\255') b && Bytes.get_int32_le b 0 = -1l)

(* A filtered leaf whose step ended, under a poisoned scratch: its
   positions read -1, so reading its rows fails instead of returning
   another step's rows. *)
let test_leaf_outliving_its_step_fails () =
  let s = Exec_ctx.scratch () in
  let c = Exec_ctx.create ~scratch:s () in
  Exec_ctx.poison c;
  let schema = schema_ab "t" in
  let heap = Heap_file.create schema in
  for i = 0 to 999 do
    Heap_file.append heap [| Value.Int i; Value.Int (i mod 3) |]
  done;
  let leaf = Leaf.filter c schema Expr.(col "t.b" =% int 1) (Leaf.scan c heap) in
  Alcotest.(check int) "survivors" 333 (Leaf.length leaf);
  Exec_ctx.release c;
  Alcotest.(check int) "position poisoned" (-1) (Leaf.position leaf 0);
  Alcotest.check_raises "gathering fails" (Invalid_argument "index out of bounds")
    (fun () -> ignore (Leaf.rows leaf))

(* Every kernel of a coded GROUP BY, bit for bit against the row path
   over [Leaf.of_rows] of a copy.  Groups on a coded String and a coded
   Int; group "z" holds only -0.0 in the float columns, group "s" one
   row, whose floats are a signalling nan: a sum that added its first
   value to 0.0 would lose both; group "n" holds nans of three payloads
   and both infinities, the others finite floats whose sum depends on
   its order.  The kernels: count-star, and SUM and AVG of coded Floats,
   of coded Floats with Nulls (skipped) and of Float payloads past 4096
   values.  After the copy is taken, those three columns' cells in the
   leaf's own rows are overwritten with a String: a kernel reads no row,
   so an aggregate that fell back to the row path would raise.  The
   other columns take the row path and are left intact: coded Ints (up
   to +-2^62, so sums wrap), Int payloads, a mixed Int/Float dictionary
   (Ints past 2^53, where an Int sum and a float sum differ), a wide
   Float column that held a Null, so it has no payloads, and COUNT of a
   column.  Next to the kernels run a UDF argument, whose calls are
   counted, and in a second list an argument that raises at a String:
   the same exception after the same calls.  Over the scan leaf and over
   a filter of it. *)
let test_group_kernels () =
  let names =
    [ "g"; "h"; "ci"; "cf"; "cn"; "mixed"; "pi"; "pf"; "wn"; "s"; "k" ]
  in
  let schema = Schema.make (List.map (fun c -> Schema.col c Value.TInt) names) in
  let col = Schema.index_of schema in
  let snan = Int64.float_of_bits 0x7FF0000000000001L in
  (* sums of these depend on their order *)
  let finite = [| 0.0; -0.0; 1.5; 2.25; 0.1; 1e16; -1e16; 3e-300 |] in
  let special = [| Float.nan; -.Float.nan; snan; infinity; neg_infinity; 0.0; -0.0 |] in
  let st = Random.State.make [| 59 |] in
  let pick a = a.(Random.State.int st (Array.length a)) in
  let n = 6000 in
  let row k : Tuple.t =
    let g =
      if k = 4321 then "s"
      else if k mod 97 = 5 then "z"
      else if k mod 89 = 7 then "n"
      else pick [| "a"; "b"; "c"; "d" |]
    in
    (* "s": a signalling nan; "z": -0.0; "n": nans and infinities *)
    let f x : Value.t =
      Float
        (match g with
         | "s" -> snan
         | "z" -> -0.0
         | "n" -> pick special
         | _ -> x)
    in
    [| String g;
       Int (k land 1);
       Int (pick [| -3; 0; 2; 7; 1 lsl 62; -(1 lsl 62) |]);
       f (pick finite);
       (if Random.State.int st 4 = 0 then Null else f (pick finite));
       pick [| Value.Int ((1 lsl 53) + 1); Int 1; Float 0.5; Float (-0.0) |];
       Int ((k * 7919) + (1 lsl 60));
       f (if k mod 50 = 0 then pick finite
          else float_of_int (Random.State.int st 1_000_000) /. 8.0);
       (if k = 10 then Null else Float (float_of_int k /. 3.0));
       (if k = 3000 then String "x" else Int (k mod 13));
       Int k |]
  in
  let heap = Heap_file.create schema in
  for k = 0 to n - 1 do
    Heap_file.append heap (row k)
  done;
  let scan = Leaf.scan (ctx ()) heap in
  let coded c = Option.is_some (Leaf.column scan (col c)) in
  Alcotest.(check (list bool)) "coded columns" [ true; true; true; true; true; true ]
    (List.map coded [ "g"; "h"; "ci"; "cf"; "cn"; "mixed" ]);
  Alcotest.(check (list bool)) "Int payloads, Float payloads, a Null: none" [ true; true; true ]
    [ (match Leaf.view scan (col "pi") with Ints _ -> true | _ -> false);
      (match Leaf.view scan (col "pf") with Floats _ -> true | _ -> false);
      (match Leaf.view scan (col "wn") with Plain -> true | _ -> false) ];
  let filtered =
    Leaf.filter (ctx ()) schema
      (Expr.Cmp (Expr.Lt, Expr.Col "k", Expr.Const (Value.Int 4500)))
      scan
  in
  let agg fn arg = { Aggregate.fn; distinct_arg = false; arg; out_name = "a" } in
  let over fn c = agg fn (Some (Expr.Col c)) in
  let kernels =
    [ agg Aggregate.Count None; over Aggregate.Sum "cf"; over Aggregate.Avg "cf";
      over Aggregate.Sum "cn"; over Aggregate.Avg "cn"; over Aggregate.Sum "pf";
      over Aggregate.Avg "pf" ]
  in
  let generic =
    [ over Aggregate.Sum "ci"; over Aggregate.Avg "ci"; over Aggregate.Count "ci";
      over Aggregate.Sum "pi"; over Aggregate.Avg "pi"; over Aggregate.Count "pi";
      over Aggregate.Sum "mixed"; over Aggregate.Avg "mixed"; over Aggregate.Sum "wn";
      over Aggregate.Count "wn"; agg Aggregate.Count (Some (coded_udf "mixed")) ]
  in
  let raising =
    agg Aggregate.Sum
      (Some (Expr.Arith (Expr.Sub, Expr.Col "s", Expr.Const (Value.Int 1))))
  in
  let run aggs leaf =
    udf_calls := 0;
    let c = ctx () in
    let rows =
      outcome (fun () ->
          (Aggregate.hash_aggregate c ~mem_pages:64 schema ~group_by:[ "g"; "h" ] ~aggs leaf)
            .Aggregate.rows)
    in
    (rows, !udf_calls, bits (Sim_clock.elapsed_ms c.Exec_ctx.clock))
  in
  let cases =
    List.map
      (fun (what, leaf) -> (what, leaf, Array.map Array.copy (Leaf.rows leaf)))
      [ ("scan", scan); ("filter", filtered) ]
  in
  Array.iter
    (fun (t : Tuple.t) ->
       List.iter (fun c -> t.(col c) <- Value.String "read") [ "cf"; "cn"; "pf" ])
    (Heap_file.rows heap);
  List.iter
    (fun (what, leaf, plain) ->
       List.iter
         (fun (list, aggs) ->
            let rows, calls, elapsed = run aggs leaf in
            let rows', calls', elapsed' = run aggs (Leaf.of_rows plain) in
            let name = what ^ ", " ^ list in
            Alcotest.(check bool) (name ^ ": rows or exception") true
              (same_outcome same_bits rows rows');
            Alcotest.(check int) (name ^ ": UDF calls") calls' calls;
            Alcotest.(check int64) (name ^ ": charges") elapsed' elapsed)
         [ ("kernels", kernels @ generic); ("raising", kernels @ generic @ [ raising ]) ];
       Alcotest.(check bool) (what ^ ": the raising list raises") true
         (Result.is_error (let r, _, _ = run [ raising ] (Leaf.of_rows plain) in r)))
    cases

(* A probe file of [n] rows built by [create] + [append]: column k
   holds [key i] for row [i] (a run of equal keys when [key] repeats),
   column p the ordinal [i], column f a small Int that filters test on. *)
let keyed_heap st ~q n key =
  let schema =
    Schema.make
      (List.map (fun c -> Schema.col ~qualifier:q c Value.TInt) [ "k"; "p"; "f" ])
  in
  let heap = Heap_file.create schema in
  for i = 0 to n - 1 do
    Heap_file.append heap [| key i; Value.Int i; Value.Int (Random.State.int st 4) |]
  done;
  (heap, schema)

(* [n] and row [i]'s key number, over 4096 distinct ones among the [n]
   rows, so a column of their cells keeps payloads: in runs of 1 to 3
   equal keys, else drawn from 20000 numbers. *)
let wide_keys st ~sorted =
  let run = 1 + Random.State.int st 3 in
  if sorted then (4100 * run + 300, fun i -> i / run)
  else (7000, fun _ -> Random.State.int st 20_000)

(* The hash join reads a one-column probe key from the leaf's payloads
   and looks it up once per run of equal payloads; over codes or plain
   cells it hashes each row.  A payload case gives column k over 4096
   distinct Ints, Ints beyond +-2^53 or Dates (which keep no payloads:
   their column ends plain), in runs or unsorted; a cell case appends a Null after them, which drops the payloads, then
   more keys and Nulls; a code case keeps 50 values and Nulls.  The
   probe leaf is the scan, or a filter over it (its positions).  The
   build side draws its keys from the probe's cells, some as the Float
   of an Int (equal to it below 2^53; beyond, the rounded float, equal
   only to the one Int it holds exactly) or as the Date of an Int's
   number or the Int of a Date's (never equal), and Nulls.  The join's rows, in
   order, and its charges must be those of the join over [Leaf.of_rows]
   of the leaf's rows, and the rows those of a reference: each probe row
   in order with its matches, the last-built first. *)
let prop_hash_join_key_sources =
  QCheck.Test.make ~name:"hash join over payloads, codes and cells = reference"
    ~count:40
    (QCheck.make
       QCheck.Gen.(
         quad (int_bound 1_000_000)
           (oneofl [ `Int; `Huge; `Date ])
           (oneofl [ `Payloads; `Codes; `Cells ])
           (triple bool bool bool)))
    (fun (seed, kind, source, (sorted, filtered, with_residual)) ->
       let st = Random.State.make [| seed |] in
       let value k : Value.t =
         match kind with
         | `Int -> Int k
         | `Huge -> Int (if k land 1 = 0 then (1 lsl 53) + k else -(1 lsl 53) - k)
         | `Date -> Date k
       in
       let null_or v = if Random.State.int st 20 = 0 then Value.Null else v in
       let heap, ls =
         match source with
         | `Codes ->
           keyed_heap st ~q:"l" 600 (fun i ->
               null_or (value (if sorted then i / 12 else Random.State.int st 50)))
         | `Payloads | `Cells ->
           let n, number = wide_keys st ~sorted in
           let key i = value (number i) in
           let heap, ls = keyed_heap st ~q:"l" n key in
           if source = `Cells then
             for i = n to n + 200 do
               let k = if i = n then Value.Null else null_or (key i) in
               Heap_file.append heap [| k; Value.Int i; Value.Int (Random.State.int st 4) |]
             done;
           (heap, ls)
       in
       let leaf = Leaf.scan (ctx ()) heap in
       let leaf =
         if filtered then
           Leaf.filter (ctx ()) ls (Expr.Cmp (Expr.Ne, Expr.Col "l.f", Expr.Const (Value.Int 0))) leaf
         else leaf
       in
       let source_ok =
         match source, Leaf.view leaf 0 with
         | `Payloads, Ints _ -> kind <> `Date
         | `Payloads, Plain -> kind = `Date
         | `Codes, Codes _ | `Cells, Plain -> true
         | _ -> false
       in
       let probe = Leaf.rows leaf in
       let rs =
         Schema.make
           (List.map (fun c -> Schema.col ~qualifier:"r" c Value.TInt) [ "k"; "q" ])
       in
       let cross (v : Value.t) : Value.t =
         match v, Random.State.bool st with
         | Int x, true -> Float (float_of_int x)
         | Int x, false -> Date x
         | Date x, _ -> Int x
         | v, _ -> v
       in
       let build =
         Array.init
           (1 + Random.State.int st 120)
           (fun _ ->
              let k =
                match Random.State.int st 10 with
                | 0 -> Value.Null
                | 1 | 2 -> cross (value (Random.State.int st 20_000))
                | 3 | 4 when Array.length probe > 0 ->
                  cross probe.(Random.State.int st (Array.length probe)).(0)
                | _ when Array.length probe > 0 ->
                  probe.(Random.State.int st (Array.length probe)).(0)
                | _ -> value (Random.State.int st 50)
              in
              [| k; Value.Int (Random.State.int st 8000) |])
       in
       let extra = if with_residual then Some Expr.(col "l.p" <% col "r.q") else None in
       let join probe =
         let c = ctx () in
         let r =
           Join.hash_join c ~mem_pages:64 ~build:(build, rs) ~probe:(probe, ls)
             ~keys:[ ("l.k", "r.k") ] ?extra ()
         in
         (r.Join.rows, bits (Sim_clock.elapsed_ms c.Exec_ctx.clock))
       in
       (* equal keys have equal [Value.to_float]s, so the reference looks
          in one bucket and tests [Value.equal] there *)
       let bucket (v : Value.t) =
         match v with Date d -> (true, float_of_int d) | v -> (false, Value.to_float v)
       in
       let by_bucket = Hashtbl.create 64 in
       Array.iteri
         (fun b t ->
            if not (Value.is_null t.(0)) then
              Hashtbl.replace by_bucket (bucket t.(0))
                (b :: Option.value ~default:[] (Hashtbl.find_opt by_bucket (bucket t.(0)))))
         build;
       let equal a b = try Value.equal a b with Invalid_argument _ -> false in
       let reference =
         Array.of_list
           (List.concat_map
              (fun pt ->
                 if Value.is_null pt.(0) then []
                 else
                   List.filter_map
                     (fun b ->
                        let bt = build.(b) in
                        if equal pt.(0) bt.(0)
                           && ((not with_residual) || Value.compare pt.(1) bt.(1) < 0)
                        then Some (Array.append pt bt)
                        else None)
                     (Option.value ~default:[]
                        (Hashtbl.find_opt by_bucket (bucket pt.(0)))))
              (Array.to_list probe))
       in
       let rows, charged = join leaf in
       let plain_rows, plain_charged = join (Leaf.of_rows (Array.copy probe)) in
       source_ok
       && same_bits rows reference
       && same_bits rows plain_rows
       && charged = plain_charged)

(* A collector over a leaf with payloads gives the statistics of the
   same rows without them ([Leaf.of_rows] of a copy), bit for bit, and
   the same charge: a column of Int payloads beside a Date column of as
   many distinct values, which keeps none (a plain input), in runs or
   unsorted, over the scan and over a filter of it, each with
   a histogram, a distinct count or both. *)
let prop_collector_payloads_match_rows =
  QCheck.Test.make ~name:"collector over payloads = plain rows" ~count:20
    (QCheck.make
       QCheck.Gen.(
         quad (int_bound 1_000_000) (pair bool bool)
           (list_size (int_bound 2) (oneofl [ "t.i"; "t.d" ]))
           (list_size (int_bound 2) (oneofl [ "t.i"; "t.d" ]))))
    (fun (seed, (sorted, filtered), hist_cols, distinct_cols) ->
       let st = Random.State.make [| seed |] in
       let schema =
         Schema.make
           [ Schema.col ~qualifier:"t" "i" Value.TInt;
             Schema.col ~qualifier:"t" "d" Value.TDate;
             Schema.col ~qualifier:"t" "f" Value.TInt ]
       in
       let n, number = wide_keys st ~sorted in
       let heap = Heap_file.create schema in
       for i = 0 to n - 1 do
         Heap_file.append heap
           [| Value.Int (number i - 9000); Value.Date (3 * number i);
              Value.Int (Random.State.int st 4) |]
       done;
       let leaf = Leaf.scan (ctx ()) heap in
       let leaf =
         if filtered then
           Leaf.filter (ctx ()) schema (Expr.Cmp (Expr.Ne, Expr.Col "t.f", Expr.Const (Value.Int 0))) leaf
         else leaf
       in
       let spec = Collector.spec ~hist_cols ~distinct_cols () in
       let collect leaf =
         let c = ctx () in
         let stats = Collector.collect c schema spec leaf in
         (stats, bits (Sim_clock.elapsed_ms c.Exec_ctx.clock))
       in
       let stats, charged = collect leaf in
       let plain, plain_charged = collect (Leaf.of_rows (Array.copy (Leaf.rows leaf))) in
       (match Leaf.view leaf 0, Leaf.view leaf 1 with Ints _, Plain -> true | _ -> false)
       && same_stats stats plain
       && charged = plain_charged)

(* An Int payload fed as its int counts as its box: one [Distinct]
   counter fed [Value.hash_payload] through [add_hash] against one fed
   the boxes through [add], often past the exact counter's limit (4096,
   or 64); and a [Column_pass] fed [add_payload] against one fed [add]
   of the boxes: the same range, nulls and distinct count.  The numbers
   are
   0, +-1, +-2^53 +- k and the ints' ends among a spread of others. *)
let prop_payload_feed_matches_boxes =
  let module Distinct = Mqr_stats.Distinct in
  let module Column_pass = Mqr_stats.Column_pass in
  QCheck.Test.make ~name:"payload feed = boxed feed" ~count:40
    (QCheck.make
       QCheck.Gen.(
         quad (int_bound 1_000_000) (int_range 0 7000) (oneofl [ 60; 6000; 1 lsl 40 ])
           (oneofl [ 64; 4096 ])))
    (fun (seed, n, spread, exact_limit) ->
       let st = Random.State.make [| seed |] in
       let p = 1 lsl 53 in
       let special =
         [| 0; 1; -1; p - 1; p; p + 1; p + 2; -p; -p - 1; -p + 1; max_int; min_int;
            max_int - 1; min_int + 1 |]
       in
       let number () =
         if Random.State.int st 8 = 0 then
           special.(Random.State.int st (Array.length special))
         else Random.State.full_int st spread - (spread / 2)
       in
       let feed = List.init n (fun _ -> number ()) in
       let same_count a b =
         bits (Distinct.estimate a) = bits (Distinct.estimate b)
         && Distinct.is_exact a = Distinct.is_exact b
       in
       let counter () = Distinct.create ~exact_limit () in
       let boxed = counter () and ints = counter () in
       List.iter (fun x -> Distinct.add boxed (Value.Int x)) feed;
       List.iter (fun x -> Distinct.add_hash ints (Value.hash_payload x)) feed;
       let d1 = counter () and d2 = counter () in
       let p1 = Column_pass.create ~distinct:d1 ()
       and p2 = Column_pass.create ~distinct:d2 () in
       List.iter (fun x -> Column_pass.add p1 (Value.Int x)) feed;
       List.iter (fun x -> Column_pass.add_payload p2 x) feed;
       let key =
         Option.map (fun (lo, hi) -> (Test_storage.bits_key lo, Test_storage.bits_key hi))
       in
       same_count boxed ints
       && key (Column_pass.range p1) = key (Column_pass.range p2)
       && Column_pass.nulls p1 = Column_pass.nulls p2
       && same_count d1 d2)

let suite =
  [ Alcotest.test_case "seq scan" `Quick test_seq_scan;
    Alcotest.test_case "index scan" `Quick test_index_scan;
    Alcotest.test_case "filter" `Quick test_filter;
    Alcotest.test_case "project" `Quick test_project;
    Alcotest.test_case "limit" `Quick test_limit;
    Alcotest.test_case "hash join = reference" `Quick test_hash_join_matches_reference;
    Alcotest.test_case "hash join 1 pass" `Quick test_hash_join_one_pass_in_memory;
    Alcotest.test_case "hash join spills" `Quick test_hash_join_spills_when_tight;
    Alcotest.test_case "hash join null keys" `Quick test_hash_join_null_keys_dont_match;
    Alcotest.test_case "hash join residual" `Quick test_hash_join_residual;
    Alcotest.test_case "index nl join = reference" `Quick test_index_nl_join_matches_reference;
    Alcotest.test_case "block nl cross" `Quick test_block_nl_join_cross;
    Alcotest.test_case "block nl pred" `Quick test_block_nl_join_pred;
    Alcotest.test_case "merge join = reference" `Quick test_merge_join_matches_reference;
    Alcotest.test_case "merge join duplicates" `Quick test_merge_join_duplicates_both_sides;
    Alcotest.test_case "merge join nulls" `Quick test_merge_join_nulls;
    Alcotest.test_case "merge join residual" `Quick test_merge_join_residual;
    Alcotest.test_case "merge join external" `Quick test_merge_join_external_charges;
    QCheck_alcotest.to_alcotest prop_merge_join_equals_hash_join;
    Alcotest.test_case "sort orders" `Quick test_sort_orders;
    Alcotest.test_case "sort desc+secondary" `Quick test_sort_desc_and_secondary;
    Alcotest.test_case "sort passes" `Quick test_sort_passes;
    Alcotest.test_case "external sort charges" `Quick test_external_sort_charges;
    Alcotest.test_case "aggregate group sums" `Quick test_aggregate_group_sums;
    Alcotest.test_case "aggregate spills" `Quick test_aggregate_spills_when_tight;
    Alcotest.test_case "aggregate fits" `Quick test_aggregate_fits;
    Alcotest.test_case "aggregate global empty" `Quick test_aggregate_global_empty;
    Alcotest.test_case "aggregate avg/min/max" `Quick test_aggregate_avg_min_max;
    Alcotest.test_case "aggregate nulls" `Quick test_aggregate_nulls_skipped;
    Alcotest.test_case "string min/max/count" `Quick test_string_min_max_count;
    QCheck_alcotest.to_alcotest prop_aggregate_matches_reference;
    Alcotest.test_case "presorted merge join cheaper" `Quick test_merge_join_presorted_skips_sort_cost;
    Alcotest.test_case "collector counters" `Quick test_collector_counters;
    Alcotest.test_case "collector histogram" `Quick test_collector_histogram;
    Alcotest.test_case "collector distinct" `Quick test_collector_distinct;
    Alcotest.test_case "collector cost" `Quick test_collector_cost_budgeting;
    Alcotest.test_case "a table's kept summaries = collect over its heap" `Quick
      test_collect_table_matches_collect;
    Alcotest.test_case "collector to column stats" `Quick test_collector_to_column_stats;
    QCheck_alcotest.to_alcotest prop_collector_matches_reference;
    QCheck_alcotest.to_alcotest prop_ranges_match_fold;
    QCheck_alcotest.to_alcotest prop_analyze_matches_fold;
    Alcotest.test_case "collector histogram over NaN" `Quick
      test_collector_histogram_nan;
    Alcotest.test_case "collector = reference, sketch path" `Quick
      test_collector_reference_sketch_path;
    QCheck_alcotest.to_alcotest prop_hash_join_equals_nested_loop;
    QCheck_alcotest.to_alcotest prop_hash_join_order_matches_reference;
    QCheck_alcotest.to_alcotest prop_join_outputs_project;
    QCheck_alcotest.to_alcotest prop_hash_agrees_with_equal;
    Alcotest.test_case "Value.hash allocates nothing" `Quick test_hash_allocation_free;
    QCheck_alcotest.to_alcotest prop_order_bypasses_agree;
    QCheck_alcotest.to_alcotest prop_coded_leaf_matches_rows;
    Alcotest.test_case "merged conjuncts raise as the row path" `Quick
      test_merged_conjuncts_raise_as_rows;
    Alcotest.test_case "parallel aggregate raises as the serial one" `Quick
      test_parallel_aggregate_raises_as_serial;
    Alcotest.test_case "scratch lends once, reuses, stays under its cap" `Quick
      test_scratch_lifetime;
    Alcotest.test_case "a leaf that outlives its step fails" `Quick
      test_leaf_outliving_its_step_fails;
    Alcotest.test_case "coded filter raises as the row path" `Quick
      test_coded_filter_raises_as_rows;
    Alcotest.test_case "coded GROUP BY kernels = the row path" `Quick test_group_kernels;
    QCheck_alcotest.to_alcotest prop_hash_join_key_sources;
    QCheck_alcotest.to_alcotest prop_collector_payloads_match_rows;
    QCheck_alcotest.to_alcotest prop_payload_feed_matches_boxes ]
