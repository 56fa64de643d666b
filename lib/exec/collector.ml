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

(* One read of each row feeds every tracked column's pass; each column's
   statistics still see its values in row order.  On a coded column of
   [leaf] only the first row of each code feeds min/max and the distinct
   counters, which already hold every later one; the reservoirs draw on
   every row. *)
let run_passes ?leaf rows passes =
  let index = Array.of_list (List.map fst passes) in
  let pass = Array.of_list (List.map snd passes) in
  let codes =
    match Leaf.describing leaf rows with
    | Some l -> Array.map (Leaf.column l) index
    | None -> Array.map (fun _ -> None) index
  in
  let seen =
    Array.map
      (function
        | Some c -> Bytes.make (Heap_file.code_count c) '\000'
        | None -> Bytes.empty)
      codes
  in
  for r = 0 to Array.length rows - 1 do
    let t = rows.(r) in
    for k = 0 to Array.length pass - 1 do
      match codes.(k) with
      | Some c ->
        let code = Heap_file.code c r in
        if Bytes.get seen.(k) code = '\000' then begin
          Bytes.set seen.(k) code '\001';
          Column_pass.add pass.(k) t.(index.(k))
        end
        else Column_pass.add_repeat pass.(k) t.(index.(k))
      | None -> Column_pass.add pass.(k) t.(index.(k))
    done
  done

(* (min, max) of each (name, index) target, from its column's pass *)
let target_ranges targets passes =
  List.filter_map
    (fun (name, i) ->
       Option.map (fun r -> (name, r)) (Column_pass.range (List.assoc i passes)))
    targets

let ranges schema ~columns rows =
  let targets = range_columns schema columns in
  let passes = List.map (fun (_, i) -> (i, Column_pass.create ())) targets in
  run_passes rows passes;
  target_ranges targets passes

let collect ?leaf ctx schema s rows =
  let clock = ctx.Exec_ctx.clock in
  let n = Array.length rows in
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
  run_passes ?leaf rows passes;
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
