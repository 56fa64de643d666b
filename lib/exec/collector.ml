open Mqr_storage
module Histogram = Mqr_stats.Histogram
module Reservoir = Mqr_stats.Reservoir
module Distinct = Mqr_stats.Distinct
module Column_pass = Mqr_stats.Column_pass
module Column_stats = Mqr_catalog.Column_stats

let base_tuple_ms = 0.0003
let stat_tuple_ms = 0.0012
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

type observed = {
  rows : int;
  col_ranges : (string * (Value.t * Value.t)) list;
  histograms : (string * Histogram.t) list;
  distincts : (string * float) list;
  dicts : (string * (string * float) list) list;
}

let estimated_cost_ms s ~rows =
  let stats = List.length s.hist_cols + List.length s.distinct_cols in
  rows *. (base_tuple_ms +. (float_of_int stats *. stat_tuple_ms))

(* (name, index) of each named column, in name order, by qualified name: a
   duplicated name resolves to its first column, an unknown one is
   dropped. *)
let range_columns schema columns =
  let index =
    List.mapi (fun i c -> (Schema.qualified_name c, i)) (Schema.columns schema)
  in
  List.filter_map
    (fun name -> Option.map (fun i -> (name, i)) (List.assoc_opt name index))
    (List.sort_uniq String.compare columns)

(* One column at a time, through the leaf's positions: each column's
   statistics see its values in row order, and share no state with
   another column's.  On a coded column only the first row of each code
   feeds min/max and the distinct counters, which already hold every
   later one; a null has code 0 and is counted on every row, and later
   rows read only their codes.  An uncoded column skips a cell with the
   constructor and bits of the last non-null cell it fed (an equal Int or
   Date payload, or the same box), which changes nothing either: rows
   that arrive in key order repeat their keys in runs.  Nulls are still
   counted one by one. *)
let run_passes leaf passes =
  let base = Leaf.base leaf in
  List.iter
    (fun (i, pass) ->
       match Leaf.column leaf i with
       | None ->
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
       | Some c ->
         let seen = Bytes.make (Heap_file.code_count c) '\000' in
         Leaf.iter leaf (fun r ->
             let code = Heap_file.code c r in
             if code = 0 then Column_pass.add pass Value.Null
             else if Bytes.get seen code = '\000' then begin
               Bytes.set seen code '\001';
               Column_pass.add pass base.(r).(i)
             end))
    passes

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

(* (min, max) of each (name, index) target, from its column's pass *)
let target_ranges targets passes =
  List.filter_map
    (fun (name, i) ->
       Option.map (fun r -> (name, r)) (Column_pass.range (List.assoc i passes)))
    targets

let ranges schema ~columns rows =
  let targets = range_columns schema columns in
  let passes = List.map (fun (_, i) -> (i, Column_pass.create ())) targets in
  run_passes (Leaf.of_rows rows) passes;
  target_ranges targets passes

let collect ctx schema s leaf =
  let clock = ctx.Exec_ctx.clock in
  let n = Leaf.length leaf in
  (* Requested statistics. *)
  let hist_targets = List.map (fun c -> (c, Schema.index_of schema c)) s.hist_cols in
  let distinct_targets =
    List.map (fun c -> (c, Schema.index_of schema c, Distinct.create ())) s.distinct_cols
  in
  let range_targets = range_columns schema (spec_columns s) in
  (* one pass per column, fed by one read of each row: each value is read
     once and feeds its column's min/max and every distinct counter on
     it, which share no state *)
  let passes =
    List.map
      (fun i ->
         ( i,
           Column_pass.create
             ~distincts:
               (List.filter_map
                  (fun (_, j, d) -> if i = j then Some d else None)
                  distinct_targets)
             () ))
      (List.sort_uniq Int.compare
         (List.map snd hist_targets
          @ List.map (fun (_, i, _) -> i) distinct_targets
          @ List.map snd range_targets))
  in
  run_passes leaf passes;
  Sim_clock.charge_cpu_ms clock (estimated_cost_ms s ~rows:(float_of_int n));
  let dicts = ref [] in
  let histograms =
    List.map
      (fun (c, i) ->
         (* the sample a reservoir fed the column's non-null cells in
            order would hold *)
         let nulls = Column_pass.nulls (List.assoc i passes) in
         let seen = n - nulls in
         let sample =
           gather leaf i ~nulls (Reservoir.positions ~capacity:sample_size seen)
         in
         let data, dict = Column_stats.encode sample in
         Option.iter (fun d -> dicts := (c, d) :: !dicts) dict;
         let h = Histogram.build Histogram.Maxdiff ~buckets:hist_buckets data in
         (c, Histogram.scale h (float_of_int seen)))
      hist_targets
  in
  let distincts =
    List.map (fun (c, _, d) -> (c, Distinct.estimate d)) distinct_targets
  in
  { rows = n;
    col_ranges = target_ranges range_targets passes;
    histograms;
    distincts;
    dicts = !dicts }

let column_stats_of_observed obs ~column =
  let range = List.assoc_opt column obs.col_ranges in
  let histogram = List.assoc_opt column obs.histograms in
  let distinct =
    match List.assoc_opt column obs.distincts with
    | Some d -> Some d
    | None -> Option.map Histogram.distinct histogram
  in
  { Column_stats.min_v = Option.map fst range;
    max_v = Option.map snd range;
    distinct;
    histogram;
    stale = false;
    dict = List.assoc_opt column obs.dicts;
    is_key = false }
