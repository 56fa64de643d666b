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
  let qualified (c : Schema.column) =
    if c.Schema.qualifier = "" then c.Schema.name
    else c.Schema.qualifier ^ "." ^ c.Schema.name
  in
  let index = List.mapi (fun i c -> (qualified c, i)) (Schema.columns schema) in
  List.filter_map
    (fun name -> Option.map (fun i -> (name, i)) (List.assoc_opt name index))
    (List.sort_uniq String.compare columns)

(* One column at a time, through the leaf's positions: each column's
   statistics see its values in row order, and share no state with
   another column's.  On a coded column only the first row of each code
   feeds min/max and the distinct counters, which already hold every
   later one; the reservoirs ([draws i] says whether column [i] has one)
   draw on every row, and a column without one reads only its codes
   after a code's first row. *)
let run_passes ~draws leaf passes =
  let base = Leaf.base leaf in
  List.iter
    (fun (i, pass) ->
       match Leaf.column leaf i with
       | None -> Leaf.iter leaf (fun r -> Column_pass.add pass base.(r).(i))
       | Some c ->
         let seen = Bytes.make (Heap_file.code_count c) '\000' in
         let first r =
           let code = Heap_file.code c r in
           Bytes.get seen code = '\000' && (Bytes.set seen code '\001'; true)
         in
         if draws i then
           Leaf.iter leaf (fun r ->
               if first r then Column_pass.add pass base.(r).(i)
               else Column_pass.add_repeat pass base.(r).(i))
         else
           Leaf.iter leaf (fun r -> if first r then Column_pass.add pass base.(r).(i)))
    passes

(* (min, max) of each (name, index) target, from its column's pass *)
let target_ranges targets passes =
  List.filter_map
    (fun (name, i) ->
       Option.map (fun r -> (name, r)) (Column_pass.range (List.assoc i passes)))
    targets

let ranges schema ~columns rows =
  let targets = range_columns schema columns in
  let passes = List.map (fun (_, i) -> (i, Column_pass.create ())) targets in
  run_passes ~draws:(fun _ -> false) (Leaf.of_rows rows) passes;
  target_ranges targets passes

let collect ctx schema s leaf =
  let clock = ctx.Exec_ctx.clock in
  let n = Leaf.length leaf in
  (* Requested statistics. *)
  let hist_targets =
    List.map (fun c -> (c, Schema.index_of schema c, Reservoir.create ~capacity:sample_size ())) s.hist_cols
  in
  let distinct_targets =
    List.map (fun c -> (c, Schema.index_of schema c, Distinct.create ())) s.distinct_cols
  in
  let range_targets = range_columns schema (spec_columns s) in
  (* one pass per column, fed by one read of each row: each value is read
     once and feeds its column's min/max and every sketch on it; the
     sketches share no state *)
  let passes =
    let index (_, i, _) = i in
    let on i (_, j, x) = if i = j then Some x else None in
    List.map
      (fun i ->
         ( i,
           Column_pass.create
             ~reservoirs:(List.filter_map (on i) hist_targets)
             ~distincts:(List.filter_map (on i) distinct_targets)
             () ))
      (List.sort_uniq Int.compare
         (List.map index hist_targets
          @ List.map index distinct_targets
          @ List.map snd range_targets))
  in
  run_passes leaf passes
    ~draws:(fun i -> List.exists (fun (_, j, _) -> i = j) hist_targets);
  Sim_clock.charge_cpu_ms clock (estimated_cost_ms s ~rows:(float_of_int n));
  let dicts = ref [] in
  let histograms =
    List.map
      (fun (c, _, res) ->
         let data, dict = Column_stats.encode (Reservoir.sample res) in
         Option.iter (fun d -> dicts := (c, d) :: !dicts) dict;
         let h = Histogram.build Histogram.Maxdiff ~buckets:hist_buckets data in
         (c, Histogram.scale h (float_of_int (Reservoir.seen res))))
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
