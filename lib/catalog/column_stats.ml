open Mqr_storage
module Histogram = Mqr_stats.Histogram
module Column_pass = Mqr_stats.Column_pass

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

let analyze ?(kind = Histogram.Maxdiff) ?(buckets = 32) ?(is_key = false) values =
  let non_null =
    Array.of_list (List.filter (fun v -> not (Value.is_null v)) values)
  in
  let range = Column_pass.create () in
  Array.iter (Column_pass.add range) non_null;
  match Column_pass.range range with
  | None -> { empty with is_key }
  | Some (min_v, max_v) ->
    let domain, dict = encode non_null in
    let hist = Histogram.build kind ~buckets domain in
    { min_v = Some min_v;
      max_v = Some max_v;
      distinct = Some (Histogram.distinct hist);
      histogram = Some hist;
      stale = false;
      dict;
      is_key }

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
