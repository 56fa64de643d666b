open Mqr_storage

let page_bytes = float_of_int Heap_file.page_size_bytes

(* The prices the optimizer's join enumeration calls, and what they
   call, are [@inline], so their float arguments and results stay unboxed
   in the caller's loop; none of them defines a local function, which
   would stop the inlining. *)

let[@inline] pages ~rows ~width =
  Float.max 1.0 (ceil (rows *. width /. page_bytes))

let[@inline] filter_rows filter ~rows =
  match filter with None -> 0.0 | Some _ -> rows

(* Every price returns [infinity] as soon as one of its quantities is
   infinite: the formulas would turn [0 *. infinity] or [int_of_float
   infinity] into garbage.  The quantities are non-negative, so their sum
   is finite exactly when each is. *)
let[@inline] unbounded sum = not (Float.is_finite sum)

(* The executor charges a partitioned operator its slowest worker plus
   the exchange and a per-worker startup fee (Mqr_exec.Parallel), at the
   same Sim_clock rates; workers get even shares, so the slowest costs
   [per_worker].  Degree 1 is exactly the serial cost. *)
let[@inline] exchange_ms ~pages = pages *. Sim_clock.exchange_ms_per_page

let[@inline] startup_ms ~dop =
  Sim_clock.parallel_startup_ms *. float_of_int (Int.max 0 (dop - 1))

let[@inline] parallel_ms ~dop ~exchange_pages ~per_worker =
  if dop = 1 then per_worker
  else per_worker +. exchange_ms ~pages:exchange_pages +. startup_ms ~dop

(* [n] runtime filters, each built from [build_rows] and testing every
   one of [probe_rows], summed one filter at a time from 0. *)
let[@inline] runtime_filters_ms ~n ~build_rows ~probe_rows =
  let one =
    (build_rows *. Sim_clock.rf_build_tuple_ms)
    +. (probe_rows *. Sim_clock.rf_probe_tuple_ms)
  in
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. one
  done;
  !acc

let[@inline] sort_serial ~rows ~data_pages ~mem_pages =
  let passes =
    Mqr_exec.Sort.sort_passes ~mem_pages ~data_pages:(int_of_float data_pages)
  in
  let log2n = if rows <= 2.0 then 1.0 else ceil (log rows /. log 2.0) in
  (rows *. log2n *. Sim_clock.sort_tuple_ms)
  +. (float_of_int (passes - 1) *. data_pages
      *. (Sim_clock.write_ms +. Sim_clock.seq_read_ms))

(* A partitioned worker gets an even share of the rows, the pages and the
   grant (the pass counts clamp the grant to their own minimum). *)

let seq_scan_ms ~dop ~pages ~rows ~filter_rows =
  if unbounded (pages +. rows +. filter_rows) then infinity
  else
    let fd = float_of_int dop in
    let per_worker =
      (pages /. fd *. Sim_clock.seq_read_ms)
      +. (rows /. fd *. Sim_clock.cpu_tuple_ms)
    in
    parallel_ms ~dop ~exchange_pages:0.0 ~per_worker
    +. (filter_rows *. Sim_clock.cpu_tuple_ms)

let index_scan_ms ~match_rows ~table_pages ~filter_rows =
  if unbounded (match_rows +. table_pages +. filter_rows) then infinity
  else
    let descent = 2.0 *. Sim_clock.rand_read_ms in
    let fetches = Float.min match_rows table_pages *. Sim_clock.rand_read_ms in
    descent +. fetches +. (match_rows *. Sim_clock.cpu_tuple_ms)
    +. (filter_rows *. Sim_clock.cpu_tuple_ms)

let[@inline] hash_join_ms ~dop ~build_rows ~build_pages
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
      *. (((bp +. pp) *. (Sim_clock.write_ms +. Sim_clock.seq_read_ms))
          +. ((br +. pr) *. Sim_clock.hash_tuple_ms))
    in
    (* The small per-build-page term models hash-table memory setup; it
       also breaks cost ties toward building on the smaller input, as
       System R does. *)
    let per_worker =
      spill +. ((br +. pr) *. Sim_clock.hash_tuple_ms)
      +. (out_rows /. fd *. Sim_clock.cpu_tuple_ms)
      +. (bp *. 0.02)
    in
    parallel_ms ~dop ~exchange_pages:(build_pages +. probe_pages) ~per_worker
    +. runtime_filters_ms ~n:rf ~build_rows ~probe_rows:rf_probe_rows

let[@inline] index_nl_join_ms ~outer_rows ~fetched ~filter_rows =
  if unbounded (outer_rows +. fetched +. filter_rows) then infinity
  else
    (outer_rows *. (Sim_clock.rand_read_ms +. Sim_clock.cpu_tuple_ms))
    +. (fetched *. (Sim_clock.rand_read_ms +. Sim_clock.cpu_tuple_ms))
    +. (filter_rows *. Sim_clock.cpu_tuple_ms)

let[@inline] block_nl_join_ms ~outer_rows ~outer_pages
    ~inner_rows ~inner_pages ~out_rows ~mem_pages =
  if unbounded (outer_rows +. outer_pages +. inner_rows +. inner_pages
                +. out_rows) then infinity
  else
    let blocks =
      Float.max 1.0 (ceil (outer_pages /. float_of_int (Int.max 1 mem_pages)))
    in
    ((blocks -. 1.0) *. inner_pages *. Sim_clock.seq_read_ms)
    +. (outer_rows *. inner_rows *. Sim_clock.cpu_tuple_ms)
    +. (out_rows *. Sim_clock.cpu_tuple_ms)

let[@inline] merge_sort_ms ~rows ~data_pages ~mem_pages =
  sort_serial ~rows ~data_pages ~mem_pages:(Int.max 2 (mem_pages / 2))

let[@inline] merge_pass_ms ~left_rows ~right_rows ~out_rows =
  (left_rows +. right_rows +. out_rows) *. Sim_clock.cpu_tuple_ms

let[@inline] merge_join_of_sorts_ms ~left_sort_ms ~right_sort_ms ~left_rows
    ~left_pages ~right_rows ~right_pages ~out_rows ~rf ~rf_probe_rows =
  if unbounded (left_rows +. left_pages +. right_rows +. right_pages
                +. out_rows +. rf_probe_rows) then infinity
  else
    left_sort_ms +. right_sort_ms
    +. merge_pass_ms ~left_rows ~right_rows ~out_rows
    +. runtime_filters_ms ~n:rf ~build_rows:left_rows ~probe_rows:rf_probe_rows

let merge_join_ms ~left_rows ~left_pages ~right_rows
    ~right_pages ~out_rows ~mem_pages ~left_sorted ~right_sorted ~rf
    ~rf_probe_rows =
  merge_join_of_sorts_ms
    ~left_sort_ms:
      (if left_sorted then 0.0
       else merge_sort_ms ~rows:left_rows ~data_pages:left_pages ~mem_pages)
    ~right_sort_ms:
      (if right_sorted then 0.0
       else merge_sort_ms ~rows:right_rows ~data_pages:right_pages ~mem_pages)
    ~left_rows ~left_pages ~right_rows ~right_pages ~out_rows ~rf
    ~rf_probe_rows

let aggregate_ms ~dop ~in_rows ~in_pages ~groups
    ~group_pages ~mem_pages =
  if unbounded (in_rows +. in_pages +. groups +. group_pages) then infinity
  else
    let fd = float_of_int dop in
    let spill =
      if group_pages /. fd > float_of_int (Int.max 1 (mem_pages / dop)) then
        in_pages /. fd *. (Sim_clock.write_ms +. Sim_clock.seq_read_ms)
      else 0.0
    in
    let per_worker =
      spill +. (in_rows /. fd *. Sim_clock.hash_tuple_ms)
      +. (groups /. fd *. Sim_clock.cpu_tuple_ms)
    in
    parallel_ms ~dop ~exchange_pages:in_pages ~per_worker

let sort_ms ~dop ~rows ~data_pages ~mem_pages =
  if unbounded (rows +. data_pages) then infinity
  else
    let fd = float_of_int dop in
    let per_worker =
      sort_serial ~rows:(rows /. fd) ~data_pages:(data_pages /. fd)
        ~mem_pages:(mem_pages / dop)
      +. (if dop = 1 then 0.0 else rows *. Sim_clock.sort_tuple_ms)
    in
    parallel_ms ~dop ~exchange_pages:data_pages ~per_worker

let cpu_ms ~rows = rows *. Sim_clock.cpu_tuple_ms

let materialize_ms ~pages = pages *. Sim_clock.write_ms

let fudge = Mqr_exec.Join.hash_join_fudge

let[@inline] hash_join_mem ~build_pages =
  let need = int_of_float (ceil (fudge *. build_pages)) + 1 in
  let min_m = int_of_float (ceil (sqrt (fudge *. build_pages))) + 1 in
  (Int.min min_m need, need)

let[@inline] sort_mem ~data_pages =
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

let[@inline] block_nl_join_max_mem ~outer_pages =
  Int.max 1 (int_of_float (ceil outer_pages))

let[@inline] block_nl_join_mem ~outer_pages =
  (1, block_nl_join_max_mem ~outer_pages)
