open Mqr_storage
module Histogram = Mqr_stats.Histogram
module Reservoir = Mqr_stats.Reservoir
module Distinct = Mqr_stats.Distinct
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

let ranges schema ~columns rows =
  let qualified (c : Schema.column) =
    if c.Schema.qualifier = "" then c.Schema.name
    else c.Schema.qualifier ^ "." ^ c.Schema.name
  in
  (* by qualified name; a duplicated name resolves to its first column *)
  let index = List.mapi (fun i c -> (qualified c, i)) (Schema.columns schema) in
  let range name i =
    let lo = ref Value.Null and hi = ref Value.Null in
    for r = 0 to Array.length rows - 1 do
      let v = rows.(r).(i) in
      if not (Value.is_null v) then begin
        lo := Value.min_value !lo v;
        hi := Value.max_value !hi v
      end
    done;
    if Value.is_null !lo then None else Some (name, (!lo, !hi))
  in
  List.filter_map
    (fun name -> Option.bind (List.assoc_opt name index) (range name))
    (List.sort_uniq String.compare columns)

let collect ctx schema s rows =
  let clock = ctx.Exec_ctx.clock in
  let n = Array.length rows in
  (* Requested statistics. *)
  let hist_targets =
    List.map (fun c -> (c, Schema.index_of schema c, Reservoir.create ~capacity:sample_size ())) s.hist_cols
  in
  let distinct_targets =
    List.map (fun c -> (c, Schema.index_of schema c, Distinct.create ())) s.distinct_cols
  in
  (* one pass per statistic: each sketch sees its column's non-null values
     in row order, and the sketches share no state *)
  let feed i add =
    Array.iter (fun (t : Tuple.t) -> if not (Value.is_null t.(i)) then add t.(i)) rows
  in
  List.iter (fun (_, i, res) -> feed i (Reservoir.add res)) hist_targets;
  List.iter (fun (_, i, d) -> feed i (Distinct.add d)) distinct_targets;
  Sim_clock.charge_cpu_ms clock (estimated_cost_ms s ~rows:(float_of_int n));
  let dicts = ref [] in
  let histograms =
    List.map
      (fun (c, _, res) ->
         let sample = Reservoir.sample res in
         let seen = Reservoir.seen res in
         let has_string =
           Array.exists (fun v -> match v with Value.String _ -> true | _ -> false)
             sample
         in
         let to_float =
           if has_string then begin
             let module SS = Set.Make (String) in
             let set =
               Array.fold_left
                 (fun acc v ->
                    match v with Value.String s -> SS.add s acc | _ -> acc)
                 SS.empty sample
             in
             let dict = List.mapi (fun i s -> (s, float_of_int i)) (SS.elements set) in
             dicts := (c, dict) :: !dicts;
             fun v ->
               match v with
               | Value.String s -> List.assoc s dict
               | v -> Value.to_float v
           end
           else Value.to_float
         in
         let data = Array.map to_float sample in
         let h = Histogram.build Histogram.Maxdiff ~buckets:hist_buckets data in
         (c, Histogram.scale h (float_of_int seen)))
      hist_targets
  in
  let distincts =
    List.map (fun (c, _, d) -> (c, Distinct.estimate d)) distinct_targets
  in
  { rows = n;
    col_ranges = ranges schema ~columns:(spec_columns s) rows;
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
