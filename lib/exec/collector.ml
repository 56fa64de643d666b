open Mqr_storage
module Histogram = Mqr_stats.Histogram
module Reservoir = Mqr_stats.Reservoir
module Distinct = Mqr_stats.Distinct
module Column_pass = Mqr_stats.Column_pass
module Column_stats = Mqr_catalog.Column_stats
module Catalog = Mqr_catalog.Catalog

(* Histograms are 32-bucket MaxDiff, built from a one-page reservoir
   sample. *)
let sample_size = Heap_file.page_size_bytes / 8
let hist_buckets = 32

type spec = {
  hist_cols : string list;
  distinct_cols : string list;
}

let spec ?(hist_cols = []) ?(distinct_cols = []) () =
  { hist_cols; distinct_cols }

let spec_columns s = s.hist_cols @ s.distinct_cols

let estimated_cost_ms s ~rows =
  let stats = List.length s.hist_cols + List.length s.distinct_cols in
  rows
  *. (Sim_clock.collect_base_tuple_ms
      +. (float_of_int stats *. Sim_clock.collect_stat_tuple_ms))

(* Column [i]'s pass over the leaf, through its positions: the column's
   statistics see its values in row order, and share no state with
   another column's.  On a coded column only the first row of each code
   feeds min/max and the distinct counters, which already hold every
   later one, with the code's box from the dictionary; a null has code 0
   and is counted on every row, and later rows read only their codes.  A
   column that never held a null is done once every code has been seen:
   later rows add nothing.  A column with payloads, all non-null and of
   one constructor, feeds its ints where the payload changes, which are
   the adds its boxes would make.  Neither reads a row.  Elsewhere a cell
   with the constructor and bits of the last non-null cell fed (an equal
   Int or Date, or the same box) is skipped, which changes nothing
   either: rows that arrive in key order repeat their keys in runs.
   Nulls are still counted one by one. *)
let run_pass leaf i pass =
  let n = Leaf.length leaf in
  match Leaf.view leaf i with
  | Codes c ->
    let seen = Bytes.make (Heap_file.code_count c) '\000' in
    let unseen =
      ref (if Heap_file.null_seen c then max_int else Heap_file.code_count c - 1)
    in
    let k = ref 0 in
    while !k < n && !unseen > 0 do
      let code = Heap_file.code c (Leaf.position leaf !k) in
      if code = 0 then Column_pass.add pass Value.Null
      else if Bytes.get seen code = '\000' then begin
        Bytes.set seen code '\001';
        decr unseen;
        Column_pass.add pass (Heap_file.code_box c code)
      end;
      incr k
    done
  | Ints p ->
    let date = Heap_file.payload_is_date p and last = ref 0 in
    for k = 0 to n - 1 do
      let x = Heap_file.payload p (Leaf.position leaf k) in
      if k = 0 || x <> !last then begin
        last := x;
        Column_pass.add_payload pass ~date x
      end
    done
  | Floats _ | Plain ->
    let base = Leaf.base leaf in
    let prev = ref Value.Null in
    Leaf.iter leaf (fun r ->
        let v = base.(r).(i) in
        match v, !prev with
        | Value.Null, _ -> Column_pass.add pass v
        | Value.Int x, Value.Int y | Value.Date x, Value.Date y
          when x = y -> ()
        | _, p when v == p -> ()
        | _ ->
          prev := v;
          Column_pass.add pass v)

(* Column [i]'s cells at the 0-based ordinals [ords], slot by slot,
   counting only the leaf's non-null cells, in [Leaf.iter] order.
   Without nulls the ordinal is the row; else the rows are walked in
   order up to the last ordinal, a coded column reading only its
   codes. *)
let gather leaf i ~nulls ords =
  let base = Leaf.base leaf in
  if nulls = 0 then Array.map (fun k -> base.(Leaf.position leaf k).(i)) ords
  else begin
    let is_null =
      match Leaf.column leaf i with
      | Some c -> fun r -> Heap_file.code c r = 0
      | None -> fun r -> Value.is_null base.(r).(i)
    in
    let order = Array.init (Array.length ords) Fun.id in
    Array.sort (fun a b -> Int.compare ords.(a) ords.(b)) order;
    let sample = Array.make (Array.length ords) Value.Null in
    let walked = ref 0 and ord = ref (-1) and r = ref 0 in
    Array.iter
      (fun slot ->
         while !ord < ords.(slot) do
           r := Leaf.position leaf !walked;
           incr walked;
           if not (is_null !r) then incr ord
         done;
         sample.(slot) <- base.(!r).(i))
      order;
    sample
  end

let ranges schema ~columns rows =
  let leaf = Leaf.of_rows rows in
  let names = List.map Schema.qualified_name (Schema.columns schema) in
  List.filter_map
    (fun name ->
       Option.bind (List.find_index (String.equal name) names) (fun i ->
           let pass = Column_pass.create () in
           run_pass leaf i pass;
           Option.map
             (fun (lo, hi) ->
                (name, { Column_stats.empty with min_v = Some lo; max_v = Some hi }))
             (Column_pass.range pass)))
    columns

(* Column [i]'s summary over the leaf's rows, with its distinct
   estimate when [distinct] and its histogram when [hist].  It is [have],
   a summary of the same column over the same rows, when that holds
   both, else [have] with what it lacks; only then is the leaf read.
   One pass feeds min/max, the null count and the distinct counter; a
   histogram column's sample is then the one a reservoir fed its
   non-null cells in order would hold. *)
let summarize ?have leaf i ~hist ~distinct =
  let s =
    match (have : Catalog.scan_summary option) with
    | Some s when (not distinct) || s.distinct <> None -> s
    | _ ->
      let counter = if distinct then Some (Distinct.create ()) else None in
      let pass =
        Column_pass.create ?distincts:(Option.map (fun d -> [ d ]) counter) ()
      in
      run_pass (Lazy.force leaf) i pass;
      { range = Column_pass.range pass;
        nulls = Column_pass.nulls pass;
        distinct = Option.map Distinct.estimate counter;
        histogram = Option.bind have (fun s -> s.histogram) }
  in
  if (not hist) || s.histogram <> None then s
  else begin
    let leaf = Lazy.force leaf in
    let seen = Leaf.length leaf - s.nulls in
    let ords = Reservoir.positions ~capacity:sample_size seen in
    let data, dict = Column_stats.encode (gather leaf i ~nulls:s.nulls ords) in
    let h = Histogram.build Histogram.Maxdiff ~buckets:hist_buckets data in
    { s with histogram = Some (Histogram.scale h (float_of_int seen), dict) }
  end

(* A column's catalog statistics from [s], its summary: min/max from its
   range; the histogram and its dictionary only when [hist]; the distinct
   estimate when [distinct], else the histogram's.  A kept summary may
   hold pieces an earlier collector asked for, and these are masked. *)
let column_stats (s : Catalog.scan_summary) ~hist ~distinct =
  let histogram = if hist then s.histogram else None in
  let h = Option.map fst histogram in
  { Column_stats.empty with
    min_v = Option.map fst s.range;
    max_v = Option.map snd s.range;
    distinct = (if distinct then s.distinct else Option.map Histogram.distinct h);
    histogram = h;
    dict = Option.bind histogram snd }

(* The statistics of [n] rows under [s], one per spec column, charged to
   the clock, from [summary i ~hist ~distinct], column [i]'s summary over
   those rows, taken once per column whatever names it. *)
let observe ctx schema s ~n summary =
  let columns =
    List.map (fun c -> (c, Schema.index_of schema c)) (spec_columns s)
  in
  let asks cols i = List.exists (fun (c, j) -> i = j && List.mem c cols) columns in
  let summaries =
    List.map
      (fun i ->
         (i, summary i ~hist:(asks s.hist_cols i) ~distinct:(asks s.distinct_cols i)))
      (List.sort_uniq Int.compare (List.map snd columns))
  in
  Sim_clock.charge_cpu_ms ctx.Exec_ctx.clock
    (estimated_cost_ms s ~rows:(float_of_int n));
  List.map
    (fun (c, i) ->
       ( c,
         column_stats (List.assoc i summaries) ~hist:(List.mem c s.hist_cols)
           ~distinct:(List.mem c s.distinct_cols) ))
    columns

let collect ctx schema s leaf =
  observe ctx schema s ~n:(Leaf.length leaf) (summarize (Lazy.from_val leaf))

let collect_table ctx schema s (tbl : Catalog.table) =
  let leaf = lazy (Leaf.of_heap tbl.heap) in
  observe ctx schema s ~n:(Heap_file.tuple_count tbl.heap)
    (fun i ~hist ~distinct ->
       let have = Catalog.scan_summary tbl i in
       let s = summarize ?have leaf i ~hist ~distinct in
       (match have with
        | Some h when h == s -> ()
        | _ -> Catalog.keep_scan_summary tbl i s);
       s)
