open Mqr_storage

let hash_join_fudge = 1.2

(* Each pass of Grace partitioning divides the build side by up to
   (mem_pages - 1) output partitions (at least 2); one more pass is needed
   until a partition fits.  A loop, not a local recursion: the optimizer
   prices every hash join candidate through here, and a closure over
   [mem] and [fan_out] would be allocated on every call. *)
let hash_join_passes ~mem_pages ~build_pages =
  let mem = Int.max 2 mem_pages in
  let fan_out = Int.max 2 (mem - 1) in
  let passes = ref 1
  and part_pages =
    ref (int_of_float (ceil (hash_join_fudge *. float_of_int build_pages)))
  in
  while !part_pages > mem do
    incr passes;
    part_pages := (!part_pages + fan_out - 1) / fan_out
  done;
  !passes

type result = {
  rows : Tuple.t array;
  schema : Schema.t;
  passes : int;
}

module Out = Rows_ops.Out
module Table = Rows_ops.Table

let rec has_null t idx i =
  i < Array.length idx && (Value.is_null t.(idx.(i)) || has_null t idx (i + 1))

let hash_join ctx ~mem_pages ~build:(build_rows, build_schema)
    ~probe:(probe, probe_schema) ~keys ?extra () =
  let clock = ctx.Exec_ctx.clock in
  let out_schema = Schema.concat probe_schema build_schema in
  let probe_idx =
    Array.of_list (List.map (fun (p, _) -> Schema.index_of probe_schema p) keys)
  in
  let build_idx =
    Array.of_list (List.map (fun (_, b) -> Schema.index_of build_schema b) keys)
  in
  let build_pages =
    Exec_ctx.pages_of_bytes (Rows_ops.bytes_of_rows build_rows)
  in
  let passes = hash_join_passes ~mem_pages ~build_pages in
  let np = Leaf.length probe in
  (* Extra passes write and re-read both inputs once per partitioning
     level, plus the repartitioning CPU; only they read the probe size. *)
  let pages =
    if passes = 1 then 0
    else
      build_pages + Exec_ctx.pages_of_bytes (Leaf.byte_size probe)
  in
  for _ = 2 to passes do
    Sim_clock.charge_write clock pages;
    Sim_clock.charge_seq_read clock pages;
    Sim_clock.charge_hash_tuples clock (Array.length build_rows + np)
  done;
  let residual =
    Option.map (fun e -> Mqr_expr.Expr.compile_pred out_schema e) extra
  in
  (* Output is often far smaller than the probe side: the buffer starts
     small and doubles. *)
  let out = Out.create 0 in
  (* The in-memory join itself (final pass).  [newest.(id)] is the last
     build row of key [id]; [next] chains each build row to the previous
     one of its key, so a probe emits its matches newest first.  The
     table's slots and both chains are the step's scratch. *)
  let nb = Array.length build_rows in
  let table = Table.create ~ctx ~key:build_idx nb in
  let chain () =
    let a = Exec_ctx.ints ctx nb in
    Array.fill a 0 nb (-1);
    a
  in
  let newest = chain () and next = chain () in
  for r = 0 to nb - 1 do
    let t = build_rows.(r) in
    if not (has_null t build_idx 0) then begin
      let h = Rows_ops.row_hash t build_idx in
      let id = Table.find table h t build_idx in
      if id >= 0 then begin
        next.(r) <- newest.(id);
        newest.(id) <- r
      end
      else newest.(Table.add table h t) <- r
    end
  done;
  let base = Leaf.base probe in
  (* the probe row at position [r] joined with each build row of key [id] *)
  let emit r id =
    let pt = base.(r) in
    let b = ref newest.(id) in
    while !b >= 0 do
      let joined = Tuple.concat pt build_rows.(!b) in
      (match residual with
       | Some p when not (p joined) -> ()
       | _ -> Out.add out joined);
      b := next.(!b)
    done
  in
  (* One key with payloads: looked up once per run of equal payloads
     (lineitem arrives in l_orderkey order), hashed by
     [Value.hash_payload], the arm [Value.hash] hashes the cell with.
     The row itself is read to confirm a full-hash match and to build
     output.  Any other probe hashes each row. *)
  let view =
    match probe_idx with [| i |] -> Leaf.view probe i | _ -> Heap_file.Plain
  in
  (match view with
   | Ints p ->
     let last = ref 0 and id = ref (-1) in
     for k = 0 to np - 1 do
       let r = Leaf.position probe k in
       let x = Heap_file.payload p r in
       if k = 0 || x <> !last then begin
         last := x;
         let h = Value.hash_payload x in
         id := Table.find table (Rows_ops.hash_one h) base.(r) probe_idx
       end;
       if !id >= 0 then emit r !id
     done
   | Codes _ | Floats _ | Plain ->
     for k = 0 to np - 1 do
       let r = Leaf.position probe k in
       let pt = base.(r) in
       if not (has_null pt probe_idx 0) then begin
         let id = Table.find table (Rows_ops.row_hash pt probe_idx) pt probe_idx in
         if id >= 0 then emit r id
       end
     done);
  Sim_clock.charge_hash_tuples clock nb;
  Sim_clock.charge_hash_tuples clock np;
  Sim_clock.charge_cpu_tuples clock (Out.length out);
  { rows = Out.contents out; schema = out_schema; passes }

let index_nl_join ctx ~outer:(outer_rows, outer_schema) ~inner_heap
    ~inner_schema ~inner_index ~outer_col ?extra () =
  let out_schema = Schema.concat outer_schema inner_schema in
  let oi = Schema.index_of outer_schema outer_col in
  let residual =
    Option.map (fun e -> Mqr_expr.Expr.compile_pred out_schema e) extra
  in
  let out = Out.create (Array.length outer_rows) in
  Array.iter
    (fun ot ->
       let key = ot.(oi) in
       if not (Value.is_null key) then begin
         let rids =
           Btree.probe inner_index ~pool:ctx.Exec_ctx.pool
             ~clock:ctx.Exec_ctx.clock ~lo:key ~hi:key ()
         in
         List.iter
           (fun rid ->
              let it =
                Heap_file.fetch inner_heap ~pool:ctx.Exec_ctx.pool
                  ~clock:ctx.Exec_ctx.clock rid
              in
              let joined = Tuple.concat ot it in
              match residual with
              | Some p when not (p joined) -> ()
              | _ -> Out.add out joined)
           rids
       end)
    outer_rows;
  Sim_clock.charge_cpu_tuples ctx.Exec_ctx.clock
    (Array.length outer_rows + Out.length out);
  { rows = Out.contents out; schema = out_schema; passes = 1 }

let block_nl_join ctx ~mem_pages ~outer:(outer_rows, outer_schema)
    ~inner:(inner_rows, inner_schema) ?pred () =
  let clock = ctx.Exec_ctx.clock in
  let out_schema = Schema.concat outer_schema inner_schema in
  let residual =
    Option.map (fun e -> Mqr_expr.Expr.compile_pred out_schema e) pred
  in
  let outer_pages = Exec_ctx.pages_of_bytes (Rows_ops.bytes_of_rows outer_rows) in
  let inner_pages = Exec_ctx.pages_of_bytes (Rows_ops.bytes_of_rows inner_rows) in
  (* One inner re-read per outer memory-block beyond the first. *)
  let blocks = max 1 ((outer_pages + mem_pages - 1) / max 1 mem_pages) in
  for _ = 2 to blocks do
    Sim_clock.charge_seq_read clock inner_pages
  done;
  Sim_clock.charge_cpu_tuples clock
    (Array.length outer_rows * max 1 (Array.length inner_rows));
  let out = Out.create (Array.length outer_rows) in
  Array.iter
    (fun ot ->
       Array.iter
         (fun it ->
            let joined = Tuple.concat ot it in
            match residual with
            | Some p when not (p joined) -> ()
            | _ -> Out.add out joined)
         inner_rows)
    outer_rows;
  { rows = Out.contents out; schema = out_schema; passes = blocks }
