open Mqr_storage
module Histogram = Mqr_stats.Histogram
module Column_pass = Mqr_stats.Column_pass
module Float_sort = Mqr_stats.Float_sort

type t = {
  min_v : Value.t option;
  max_v : Value.t option;
  distinct : float option;
  histogram : Histogram.t option;
  stale : bool;
  dict : (string * float) list option;
  is_key : bool;
}

let empty =
  { min_v = None; max_v = None; distinct = None; histogram = None;
    stale = false; dict = None; is_key = false }

let encode values =
  let ordinals = Hashtbl.create 16 in
  Array.iter
    (function Value.String s -> Hashtbl.replace ordinals s 0.0 | _ -> ())
    values;
  let dict =
    if Hashtbl.length ordinals = 0 then None
    else begin
      let strings = Hashtbl.fold (fun s _ acc -> s :: acc) ordinals [] in
      let dict =
        List.mapi (fun i s -> (s, float_of_int i)) (List.sort String.compare strings)
      in
      List.iter (fun (s, o) -> Hashtbl.replace ordinals s o) dict;
      Some dict
    end
  in
  let domain = Array.create_float (Array.length values) in
  for i = 0 to Array.length values - 1 do
    domain.(i) <-
      (match values.(i) with
       | Value.Int x | Value.Date x -> float_of_int x
       | Value.Float f -> f
       | Value.String s -> Hashtbl.find ordinals s
       | v -> Value.to_float v)
  done;
  (domain, dict)

let of_range ~is_key boxes f =
  let range = Column_pass.create () in
  Array.iter (Column_pass.add range) boxes;
  match Column_pass.range range with
  | None -> { empty with is_key }
  | Some (min_v, max_v) ->
    let domain, dict = encode boxes in
    let hist = f domain in
    { min_v = Some min_v;
      max_v = Some max_v;
      distinct = Some (Histogram.distinct hist);
      histogram = Some hist;
      stale = false;
      dict;
      is_key }

let of_values ?(kind = Histogram.Maxdiff) ?(buckets = 32) ?(is_key = false)
    non_null =
  of_range ~is_key non_null (Histogram.build kind ~buckets)

let analyze ?kind ?buckets ?is_key values =
  of_values ?kind ?buckets ?is_key
    (Array.of_list (List.filter (fun v -> not (Value.is_null v)) values))

exception Undecided

(* The frequency table of [counts.(i)] copies of each [domain.(i)], one
   group per value under [Float.compare]: [Undecided] when a group holds
   two bit patterns (NaN payloads, -0.0 and 0.0), since which of them
   [Histogram.build] keeps depends on where the copies lie. *)
let freq_table domain counts =
  let n = Array.length domain in
  let values = Array.copy domain and order = Array.init n Fun.id in
  Float_sort.sort ~descending:false values order;
  let sums = Array.make n 0 and g = ref (-1) in
  for j = 0 to n - 1 do
    let v = values.(j) in
    if !g < 0 || Float.compare v values.(!g) <> 0 then begin
      incr g;
      values.(!g) <- v
    end
    else if not (Int64.equal (Int64.bits_of_float v) (Int64.bits_of_float values.(!g)))
    then raise Undecided;
    sums.(!g) <- sums.(!g) + counts.(order.(j))
  done;
  (Array.sub values 0 (!g + 1), Array.sub sums 0 (!g + 1))

let of_counts ?(kind = Histogram.Maxdiff) ?(buckets = 32) ?(is_key = false)
    boxes counts =
  try
    Some
      (of_range ~is_key boxes (fun domain ->
           let values, counts = freq_table domain counts in
           Histogram.of_counts kind ~buckets values counts))
  with Undecided -> None

let to_domain t v =
  match v with
  | Value.Null -> None
  | Value.String s ->
    (match t.dict with
     | Some d -> List.assoc_opt s d
     | None -> None)
  | v -> Some (Value.to_float v)

let drop_histogram t = { t with histogram = None }
let mark_stale t = { t with stale = true }
