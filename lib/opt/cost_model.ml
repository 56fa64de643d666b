open Mqr_storage

let page_bytes = float_of_int Heap_file.page_size_bytes

let pages ~rows ~width = Float.max 1.0 (ceil (rows *. width /. page_bytes))

let seq_scan_ms (m : Sim_clock.model) ~pages ~rows =
  (pages *. m.seq_read_ms) +. (rows *. m.cpu_tuple_ms)

let index_scan_ms (m : Sim_clock.model) ~match_rows ~table_pages =
  let descent = 2.0 *. m.rand_read_ms in
  let fetches = Float.min match_rows table_pages *. m.rand_read_ms in
  descent +. fetches +. (match_rows *. m.cpu_tuple_ms)

let hash_join_ms (m : Sim_clock.model) ~build_rows ~build_pages ~probe_rows
    ~probe_pages ~out_rows ~mem_pages =
  let passes =
    Mqr_exec.Join.hash_join_passes ~mem_pages
      ~build_pages:(int_of_float build_pages)
  in
  let spill =
    float_of_int (passes - 1)
    *. ((build_pages +. probe_pages) *. (m.write_ms +. m.seq_read_ms)
        +. ((build_rows +. probe_rows) *. m.hash_tuple_ms))
  in
  (* The small per-build-page term models hash-table memory setup; it also
     breaks cost ties toward building on the smaller input, as System R
     does. *)
  spill
  +. ((build_rows +. probe_rows) *. m.hash_tuple_ms)
  +. (out_rows *. m.cpu_tuple_ms)
  +. (build_pages *. 0.02)

let index_nl_join_ms (m : Sim_clock.model) ~outer_rows ~out_rows =
  (* One leaf-level probe per outer row (upper levels cached) plus one
     fetch per produced match. *)
  (outer_rows *. (m.rand_read_ms +. m.cpu_tuple_ms))
  +. (out_rows *. (m.rand_read_ms +. m.cpu_tuple_ms))

let block_nl_join_ms (m : Sim_clock.model) ~outer_rows ~outer_pages
    ~inner_rows ~inner_pages ~out_rows ~mem_pages =
  let blocks = Float.max 1.0 (ceil (outer_pages /. float_of_int (max 1 mem_pages))) in
  ((blocks -. 1.0) *. inner_pages *. m.seq_read_ms)
  +. (outer_rows *. inner_rows *. m.cpu_tuple_ms)
  +. (out_rows *. m.cpu_tuple_ms)

let aggregate_ms (m : Sim_clock.model) ~in_rows ~in_pages ~groups ~group_pages
    ~mem_pages =
  let spill =
    if group_pages > float_of_int (max 1 mem_pages) then
      in_pages *. (m.write_ms +. m.seq_read_ms)
    else 0.0
  in
  spill +. (in_rows *. m.hash_tuple_ms) +. (groups *. m.cpu_tuple_ms)

let sort_ms (m : Sim_clock.model) ~rows ~data_pages ~mem_pages =
  let passes =
    Mqr_exec.Sort.sort_passes ~mem_pages ~data_pages:(int_of_float data_pages)
  in
  let log2n = if rows <= 2.0 then 1.0 else ceil (log rows /. log 2.0) in
  (rows *. log2n *. m.sort_tuple_ms)
  +. (float_of_int (passes - 1) *. data_pages *. (m.write_ms +. m.seq_read_ms))

let merge_join_ms (m : Sim_clock.model) ~left_rows ~left_pages ~right_rows
    ~right_pages ~out_rows ~mem_pages ~left_sorted ~right_sorted =
  let half = max 2 (mem_pages / 2) in
  (if left_sorted then 0.0
   else sort_ms m ~rows:left_rows ~data_pages:left_pages ~mem_pages:half)
  +. (if right_sorted then 0.0
      else sort_ms m ~rows:right_rows ~data_pages:right_pages ~mem_pages:half)
  +. ((left_rows +. right_rows +. out_rows) *. m.cpu_tuple_ms)

let aggregate_sorted_ms (m : Sim_clock.model) ~in_rows ~groups =
  (in_rows +. groups) *. m.cpu_tuple_ms

let project_ms (m : Sim_clock.model) ~rows = rows *. m.cpu_tuple_ms
let limit_ms (m : Sim_clock.model) ~rows = rows *. m.cpu_tuple_ms

let materialize_ms (m : Sim_clock.model) ~pages =
  pages *. (m.write_ms +. m.seq_read_ms)

(* Overhead of one runtime filter: building it from the build/left side
   plus testing every probe/right-side row.  Rates are the executor's own
   (Runtime_filter), kept outside the model so estimation error stays a
   cardinality error. *)
let runtime_filter_ms ~build_rows ~probe_rows =
  (build_rows *. Mqr_exec.Runtime_filter.build_tuple_ms)
  +. (probe_rows *. Mqr_exec.Runtime_filter.probe_tuple_ms)

(* ------------------------------------------------------------------ *)
(* Parallel (partitioned) execution.  The executor charges the slowest
   worker plus the exchange and a per-worker startup fee
   (Mqr_exec.Parallel); the estimates below price the same three terms so
   estimated and actual parallel costs diverge only through cardinality
   error, exactly like the serial operators. *)

(* Shipping [pages] through the interconnect during a repartitioning
   exchange (hash or round-robin — both move every page). *)
let exchange_ms ~pages =
  pages *. Mqr_exec.Parallel.net_ms_per_page

(* Forking [dop] worker closures and merging their results. *)
let startup_ms ~dop =
  Mqr_exec.Parallel.startup_ms *. float_of_int (max 0 (dop - 1))

(* Cost of running an operator partitioned [dop] ways: [per_worker] prices
   one worker's share (the partitions are assumed even, so the slowest
   worker costs the same as any other), [exchange_pages] is everything
   that crosses the interconnect first. *)
let parallel_ms ~dop ~exchange_pages ~per_worker =
  per_worker +. exchange_ms ~pages:exchange_pages +. startup_ms ~dop

let fudge = Mqr_exec.Join.hash_join_fudge

let hash_join_mem ~build_pages =
  let need = int_of_float (ceil (fudge *. build_pages)) + 1 in
  let min_m = int_of_float (ceil (sqrt (fudge *. build_pages))) + 1 in
  (min min_m need, need)

let sort_mem ~data_pages =
  let need = int_of_float (ceil data_pages) in
  let min_m = max 2 (int_of_float (ceil (sqrt data_pages))) in
  (min min_m need, max 1 need)

let aggregate_mem ~group_pages =
  let need = int_of_float (ceil (fudge *. group_pages)) + 1 in
  let min_m = max 1 (int_of_float (ceil (sqrt group_pages))) in
  (min min_m need, need)

let merge_join_mem ~left_pages ~right_pages =
  let min_l, max_l = sort_mem ~data_pages:left_pages in
  let min_r, max_r = sort_mem ~data_pages:right_pages in
  (min_l + min_r, max_l + max_r)

let block_nl_join_mem ~outer_pages =
  let need = int_of_float (ceil outer_pages) in
  (1, max 1 need)
