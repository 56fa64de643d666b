open Mqr_storage

let check_degree fn degree =
  if degree < 1 then invalid_arg ("Parallel." ^ fn ^ ": degree < 1")

(* Workers run inline, in index order, each against a fresh-behaving
   [Exec_ctx] (clock + buffer-pool slice, {!Exec_ctx.worker}), so every
   simulated charge is a function of the degree alone.  Every operator below handles degree 1 itself, as its
   serial operator, before it gets here. *)
let run_stages ctx ~degree ?slice_pages ?on_worker f =
  check_degree "run" degree;
  let slice =
    match slice_pages with
    | Some p -> max 1 p
    | None -> max 1 (Buffer_pool.capacity ctx.Exec_ctx.pool / degree)
  in
  let timed g =
    let t0 = Unix.gettimeofday () in
    let r = g () in
    (r, (Unix.gettimeofday () -. t0) *. 1000.0)
  in
  let started =
    Array.init degree (fun w ->
        let wctx = Exec_ctx.worker ctx ~pool_pages:slice in
        let second, wall_ms = timed (fun () -> f w wctx) in
        (wctx, second, wall_ms))
  in
  (* the parent absorbs the first worker with the largest elapsed time *)
  let slowest = ref (Sim_clock.create ()) in
  let results =
    Array.mapi
      (fun w (wctx, second, wall0) ->
         let r, wall_ms = timed second in
         let clock = wctx.Exec_ctx.clock in
         let sim_ms = Sim_clock.elapsed_ms clock in
         if sim_ms > Sim_clock.elapsed_ms !slowest then slowest := clock;
         Option.iter (fun g -> g w ~sim_ms ~wall_ms:(wall0 +. wall_ms)) on_worker;
         r)
      started
  in
  Sim_clock.absorb ctx.Exec_ctx.clock !slowest;
  Sim_clock.charge_cpu_ms ctx.Exec_ctx.clock
    (Sim_clock.parallel_startup_ms *. float_of_int (degree - 1));
  Array.to_list results

let run ctx ~degree ?slice_pages ?on_worker f =
  run_stages ctx ~degree ?slice_pages ?on_worker (fun w wctx ->
      let r = f w wctx in
      fun () -> r)

let charge_exchange ctx ~degree rows =
  if degree > 1 then begin
    let pages = Exec_ctx.pages_of_bytes (Rows_ops.bytes_of_rows rows) in
    Sim_clock.charge_cpu_ms ctx.Exec_ctx.clock
      (float_of_int pages *. Sim_clock.exchange_ms_per_page)
  end

(* Deal each row to the worker [worker i tuple] names, keeping row order
   within a worker, and charge the exchange: each row's worker and each
   worker's count first, then every partition sized and filled.  Also
   returns, per worker, the input index of each of its rows. *)
let scatter_from ctx ~degree ~worker rows =
  let n = Array.length rows in
  let dest = Array.make n 0 and sizes = Array.make degree 0 in
  for i = 0 to n - 1 do
    let w = worker i rows.(i) in
    dest.(i) <- w;
    sizes.(w) <- sizes.(w) + 1
  done;
  let parts = Array.map (fun size -> Array.make size [||]) sizes in
  let origin = Array.map (fun size -> Array.make size 0) sizes in
  let filled = Array.make degree 0 in
  for i = 0 to n - 1 do
    let w = dest.(i) in
    parts.(w).(filled.(w)) <- rows.(i);
    origin.(w).(filled.(w)) <- i;
    filled.(w) <- filled.(w) + 1
  done;
  charge_exchange ctx ~degree rows;
  (parts, origin)

let scatter ctx ~degree ~worker rows = fst (scatter_from ctx ~degree ~worker rows)

let hash_worker schema ~column ~degree =
  let c = Schema.index_of schema column in
  fun _ tuple ->
    if Value.is_null tuple.(c) then 0
    else (Value.hash tuple.(c) land max_int) mod degree

let partition_by ctx ~degree schema ~column rows =
  check_degree "partition_by" degree;
  scatter ctx ~degree rows ~worker:(hash_worker schema ~column ~degree)

let partition_round_robin ctx ~degree rows =
  check_degree "partition_round_robin" degree;
  scatter ctx ~degree rows ~worker:(fun i _ -> i mod degree)

(* Striped scan: worker [w] reads rids w*n/d .. (w+1)*n/d — each from its
   own disk, so pages divide across workers and no exchange is charged.
   The stripes are the file's rid ranges in order, so together they are
   the file's own rows: the workers only charge. *)
let scan ctx ~degree ?slice_pages ?on_worker heap =
  if degree = 1 then Leaf.scan ctx heap
  else begin
    ignore
      (run ctx ~degree ?slice_pages ?on_worker (fun stripe wctx ->
           Leaf.charge_stripe wctx heap ~stripe ~degree));
    Leaf.of_heap heap
  end

let hash_join ctx ~degree ?slice_pages ?on_worker ~mem_pages
    ~build:(build_rows, build_schema) ~probe:(probe, probe_schema) ~keys
    ?extra ~out () =
  match keys, degree with
  | [], _ | _, 1 ->
    (Join.hash_join ctx ~mem_pages ~build:(build_rows, build_schema)
       ~probe:(probe, probe_schema) ~keys ?extra ~out ()).Join.rows
  | (probe_col, build_col) :: _, _ ->
    let build_parts =
      partition_by ctx ~degree build_schema ~column:build_col build_rows
    in
    let probe_parts =
      partition_by ctx ~degree probe_schema ~column:probe_col (Leaf.rows probe)
    in
    let per_worker_mem = max 2 (mem_pages / degree) in
    let chunks =
      run ctx ~degree ?slice_pages ?on_worker (fun w wctx ->
          let r =
            Join.hash_join wctx ~mem_pages:per_worker_mem
              ~build:(build_parts.(w), build_schema)
              ~probe:(Leaf.of_rows probe_parts.(w), probe_schema)
              ~keys ?extra ~out ()
          in
          r.Join.rows)
    in
    Array.concat chunks

let aggregate ctx ~degree ?slice_pages ?on_worker ~mem_pages schema
    ~group_by ~aggs leaf =
  match group_by, degree with
  | [], _ | _, 1 ->
    (Aggregate.hash_aggregate ctx ~mem_pages schema ~group_by ~aggs leaf)
      .Aggregate.rows
  | first :: _, _ ->
    (* same first grouping column -> same worker, so every group is
       computed wholly on one worker *)
    let parts, origin =
      scatter_from ctx ~degree (Leaf.rows leaf)
        ~worker:(hash_worker schema ~column:first ~degree)
    in
    let per_worker_mem = max 1 (mem_pages / degree) in
    (* Every worker feeds its rows before any finalizes its groups, as
       the serial operator feeds every row before it finalizes a group;
       a failure is the one tied to the earliest input row, which is the
       serial operator's (each group's rows meet its accumulators in the
       same order on its worker). *)
    let earliest failure w (j, e) =
      let i = origin.(w).(j) in
      match !failure with
      | Some (k, _) when k <= i -> ()
      | _ -> failure := Some (i, e)
    in
    let fed = ref None and finalized = ref None in
    let chunks =
      run_stages ctx ~degree ?slice_pages ?on_worker (fun w wctx ->
          match
            Aggregate.stage wctx ~mem_pages:per_worker_mem schema ~group_by ~aggs
              (Leaf.of_rows parts.(w))
          with
          | exception Aggregate.At (j, e) ->
            earliest fed w (j, e);
            fun () -> [||]
          | finish ->
            fun () ->
              if Option.is_some !fed then [||]
              else
                match finish () with
                | r -> r.Aggregate.rows
                | exception Aggregate.At (j, e) -> earliest finalized w (j, e); [||])
    in
    Option.iter (fun (_, e) -> raise e) !fed;
    Option.iter (fun (_, e) -> raise e) !finalized;
    Array.concat chunks

let sort ctx ~degree ?slice_pages ?on_worker ~mem_pages schema ~keys rows =
  if degree = 1 then
    (Sort.sort ctx ~mem_pages schema ~keys rows).Sort.rows
  else begin
    let parts = partition_round_robin ctx ~degree rows in
    let per_worker_mem = max 2 (mem_pages / degree) in
    let chunks =
      Array.of_list
        (run ctx ~degree ?slice_pages ?on_worker (fun w wctx ->
             (Sort.sort wctx ~mem_pages:per_worker_mem schema ~keys
                parts.(w)).Sort.rows))
    in
    (* k-way merge on the parent, one comparison-ish unit per output row;
       ties resolve to the lowest worker index so the merge is a pure
       function of the chunks *)
    let cmp = Sort.comparator schema ~keys in
    let n = Array.length rows in
    let out = Array.make n [||] in
    let cursor = Array.make degree 0 in
    for o = 0 to n - 1 do
      let best = ref (-1) in
      for w = degree - 1 downto 0 do
        if cursor.(w) < Array.length chunks.(w) then
          if
            !best < 0
            || cmp chunks.(w).(cursor.(w)) chunks.(!best).(cursor.(!best)) <= 0
          then best := w
      done;
      out.(o) <- chunks.(!best).(cursor.(!best));
      cursor.(!best) <- cursor.(!best) + 1
    done;
    Sim_clock.charge_sort_tuples ctx.Exec_ctx.clock n;
    out
  end
