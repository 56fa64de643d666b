open Mqr_storage

let page_bytes = float_of_int Heap_file.page_size_bytes

let pages ~rows ~width = Float.max 1.0 (ceil (rows *. width /. page_bytes))

let filter_rows filter ~rows = match filter with None -> 0.0 | Some _ -> rows

(* Every price returns [infinity] as soon as one of its quantities is
   infinite: the formulas would turn [0 *. infinity] or [int_of_float
   infinity] into garbage.  The quantities are non-negative, so their sum
   is finite exactly when each is. *)
let unbounded sum = not (Float.is_finite sum)

(* The executor charges a partitioned operator its slowest worker plus
   the exchange and a per-worker startup fee (Mqr_exec.Parallel); workers
   get even shares, so the slowest costs [per_worker].  Degree 1 is
   exactly the serial cost. *)
let exchange_ms ~pages = pages *. Mqr_exec.Parallel.net_ms_per_page

let startup_ms ~dop =
  Mqr_exec.Parallel.startup_ms *. float_of_int (Int.max 0 (dop - 1))

let parallel_ms ~dop ~exchange_pages ~per_worker =
  if dop = 1 then per_worker
  else per_worker +. exchange_ms ~pages:exchange_pages +. startup_ms ~dop

(* [n] runtime filters, each built from [build_rows] and testing every
   one of [probe_rows], at the executor's own rates (Runtime_filter). *)
let runtime_filters_ms ~n ~build_rows ~probe_rows =
  let one =
    (build_rows *. Mqr_exec.Runtime_filter.build_tuple_ms)
    +. (probe_rows *. Mqr_exec.Runtime_filter.probe_tuple_ms)
  in
  let rec go i acc = if i = 0 then acc else go (i - 1) (acc +. one) in
  go n 0.0

let sort_serial (m : Sim_clock.model) ~rows ~data_pages ~mem_pages =
  let passes =
    Mqr_exec.Sort.sort_passes ~mem_pages ~data_pages:(int_of_float data_pages)
  in
  let log2n = if rows <= 2.0 then 1.0 else ceil (log rows /. log 2.0) in
  (rows *. log2n *. m.sort_tuple_ms)
  +. (float_of_int (passes - 1) *. data_pages *. (m.write_ms +. m.seq_read_ms))

(* A partitioned worker gets an even share of the rows, the pages and the
   grant (the pass counts clamp the grant to their own minimum). *)

let seq_scan_ms (m : Sim_clock.model) ~dop ~pages ~rows ~filter_rows =
  if unbounded (pages +. rows +. filter_rows) then infinity
  else
    let fd = float_of_int dop in
    let per_worker =
      (pages /. fd *. m.seq_read_ms) +. (rows /. fd *. m.cpu_tuple_ms)
    in
    parallel_ms ~dop ~exchange_pages:0.0 ~per_worker
    +. (filter_rows *. m.cpu_tuple_ms)

let index_scan_ms (m : Sim_clock.model) ~match_rows ~table_pages ~filter_rows =
  if unbounded (match_rows +. table_pages +. filter_rows) then infinity
  else
    let descent = 2.0 *. m.rand_read_ms in
    let fetches = Float.min match_rows table_pages *. m.rand_read_ms in
    descent +. fetches +. (match_rows *. m.cpu_tuple_ms)
    +. (filter_rows *. m.cpu_tuple_ms)

let hash_join_ms (m : Sim_clock.model) ~dop ~build_rows ~build_pages
    ~probe_rows ~probe_pages ~out_rows ~mem_pages ~rf ~rf_probe_rows =
  if unbounded (build_rows +. build_pages +. probe_rows +. probe_pages
                +. out_rows +. rf_probe_rows) then infinity
  else
    let fd = float_of_int dop in
    let br = build_rows /. fd and bp = build_pages /. fd in
    let pr = probe_rows /. fd and pp = probe_pages /. fd in
    let passes =
      Mqr_exec.Join.hash_join_passes ~mem_pages:(mem_pages / dop)
        ~build_pages:(int_of_float bp)
    in
    let spill =
      float_of_int (passes - 1)
      *. (((bp +. pp) *. (m.write_ms +. m.seq_read_ms))
          +. ((br +. pr) *. m.hash_tuple_ms))
    in
    (* The small per-build-page term models hash-table memory setup; it
       also breaks cost ties toward building on the smaller input, as
       System R does. *)
    let per_worker =
      spill +. ((br +. pr) *. m.hash_tuple_ms)
      +. (out_rows /. fd *. m.cpu_tuple_ms)
      +. (bp *. 0.02)
    in
    parallel_ms ~dop ~exchange_pages:(build_pages +. probe_pages) ~per_worker
    +. runtime_filters_ms ~n:rf ~build_rows ~probe_rows:rf_probe_rows

let index_nl_join_ms (m : Sim_clock.model) ~outer_rows ~fetched ~filter_rows =
  if unbounded (outer_rows +. fetched +. filter_rows) then infinity
  else
    (outer_rows *. (m.rand_read_ms +. m.cpu_tuple_ms))
    +. (fetched *. (m.rand_read_ms +. m.cpu_tuple_ms))
    +. (filter_rows *. m.cpu_tuple_ms)

let block_nl_join_ms (m : Sim_clock.model) ~outer_rows ~outer_pages
    ~inner_rows ~inner_pages ~out_rows ~mem_pages =
  if unbounded (outer_rows +. outer_pages +. inner_rows +. inner_pages
                +. out_rows) then infinity
  else
    let blocks =
      Float.max 1.0 (ceil (outer_pages /. float_of_int (Int.max 1 mem_pages)))
    in
    ((blocks -. 1.0) *. inner_pages *. m.seq_read_ms)
    +. (outer_rows *. inner_rows *. m.cpu_tuple_ms)
    +. (out_rows *. m.cpu_tuple_ms)

let merge_join_ms (m : Sim_clock.model) ~left_rows ~left_pages ~right_rows
    ~right_pages ~out_rows ~mem_pages ~left_sorted ~right_sorted ~rf
    ~rf_probe_rows =
  if unbounded (left_rows +. left_pages +. right_rows +. right_pages
                +. out_rows +. rf_probe_rows) then infinity
  else
    let half = Int.max 2 (mem_pages / 2) in
    (if left_sorted then 0.0
     else sort_serial m ~rows:left_rows ~data_pages:left_pages ~mem_pages:half)
    +. (if right_sorted then 0.0
        else
          sort_serial m ~rows:right_rows ~data_pages:right_pages
            ~mem_pages:half)
    +. ((left_rows +. right_rows +. out_rows) *. m.cpu_tuple_ms)
    +. runtime_filters_ms ~n:rf ~build_rows:left_rows ~probe_rows:rf_probe_rows

let aggregate_ms (m : Sim_clock.model) ~dop ~in_rows ~in_pages ~groups
    ~group_pages ~mem_pages =
  if unbounded (in_rows +. in_pages +. groups +. group_pages) then infinity
  else
    let fd = float_of_int dop in
    let spill =
      if group_pages /. fd > float_of_int (Int.max 1 (mem_pages / dop)) then
        in_pages /. fd *. (m.write_ms +. m.seq_read_ms)
      else 0.0
    in
    let per_worker =
      spill +. (in_rows /. fd *. m.hash_tuple_ms)
      +. (groups /. fd *. m.cpu_tuple_ms)
    in
    parallel_ms ~dop ~exchange_pages:in_pages ~per_worker

let aggregate_sorted_ms (m : Sim_clock.model) ~in_rows ~groups =
  (in_rows +. groups) *. m.cpu_tuple_ms

let sort_ms (m : Sim_clock.model) ~dop ~rows ~data_pages ~mem_pages =
  if unbounded (rows +. data_pages) then infinity
  else
    let fd = float_of_int dop in
    let per_worker =
      sort_serial m ~rows:(rows /. fd) ~data_pages:(data_pages /. fd)
        ~mem_pages:(mem_pages / dop)
      +. (if dop = 1 then 0.0 else rows *. m.sort_tuple_ms)
    in
    parallel_ms ~dop ~exchange_pages:data_pages ~per_worker

let cpu_ms (m : Sim_clock.model) ~rows = rows *. m.cpu_tuple_ms

let materialize_ms (m : Sim_clock.model) ~pages = pages *. m.write_ms

let fudge = Mqr_exec.Join.hash_join_fudge

let hash_join_mem ~build_pages =
  let need = int_of_float (ceil (fudge *. build_pages)) + 1 in
  let min_m = int_of_float (ceil (sqrt (fudge *. build_pages))) + 1 in
  (Int.min min_m need, need)

let sort_mem ~data_pages =
  let need = int_of_float (ceil data_pages) in
  let min_m = Int.max 2 (int_of_float (ceil (sqrt data_pages))) in
  (Int.min min_m need, Int.max 1 need)

let aggregate_mem ~group_pages =
  let need = int_of_float (ceil (fudge *. group_pages)) + 1 in
  let min_m = Int.max 1 (int_of_float (ceil (sqrt group_pages))) in
  (Int.min min_m need, need)

let merge_join_mem ~left_pages ~right_pages =
  let min_l, max_l = sort_mem ~data_pages:left_pages in
  let min_r, max_r = sort_mem ~data_pages:right_pages in
  (min_l + min_r, max_l + max_r)

let block_nl_join_mem ~outer_pages =
  let need = int_of_float (ceil outer_pages) in
  (1, Int.max 1 need)
