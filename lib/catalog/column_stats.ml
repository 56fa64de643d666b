open Mqr_storage
module Histogram = Mqr_stats.Histogram

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

let build_dict values =
  let module SS = Set.Make (String) in
  let set =
    List.fold_left
      (fun acc v -> match v with Value.String s -> SS.add s acc | _ -> acc)
      SS.empty values
  in
  List.mapi (fun i s -> (s, float_of_int i)) (SS.elements set)

let analyze ?(kind = Histogram.Maxdiff) ?(buckets = 32) ?(is_key = false) values =
  let non_null = List.filter (fun v -> not (Value.is_null v)) values in
  match non_null with
  | [] -> { empty with is_key }
  | _ ->
    let has_string =
      List.exists (fun v -> match v with Value.String _ -> true | _ -> false)
        non_null
    in
    let dict = if has_string then Some (build_dict non_null) else None in
    let to_domain_raw v =
      match v, dict with
      | Value.String s, Some d -> List.assoc s d
      | Value.String _, None -> assert false
      | v, _ -> Value.to_float v
    in
    let domain = Array.of_list (List.map to_domain_raw non_null) in
    let hist = Histogram.build kind ~buckets domain in
    let min_v =
      List.fold_left (fun acc v -> Value.min_value acc v) Value.Null non_null
    in
    let max_v =
      List.fold_left (fun acc v -> Value.max_value acc v) Value.Null non_null
    in
    { min_v = (if Value.is_null min_v then None else Some min_v);
      max_v = (if Value.is_null max_v then None else Some max_v);
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
