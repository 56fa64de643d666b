open Mqr_storage
module Histogram = Mqr_stats.Histogram
module Column_stats = Mqr_catalog.Column_stats

let default_eq = 0.1
let default_range = 1.0 /. 3.0
let default_udf = 0.1
let default_other = 0.25

type env = {
  stats_of : string -> Column_stats.t option;
}

let clamp s = Float.max 0.0 (Float.min 1.0 s)

(* Range selectivity via min/max linear interpolation when there is no
   histogram but the bounds are known. *)
let interpolate ~min_v ~max_v ~op ~v =
  let lo = Value.to_float min_v and hi = Value.to_float max_v in
  if hi <= lo then default_range
  else begin
    let x = Value.to_float v in
    let frac_below = clamp ((x -. lo) /. (hi -. lo)) in
    match op with
    | Expr.Lt | Expr.Le -> frac_below
    | Expr.Gt | Expr.Ge -> 1.0 -. frac_below
    | Expr.Eq | Expr.Ne -> default_eq
  end

let col_cmp_const env c op v =
  match env.stats_of c with
  | None ->
    (match op with
     | Expr.Eq -> default_eq
     | Expr.Ne -> 1.0 -. default_eq
     | _ -> default_range)
  | Some st ->
    let domain_v = Column_stats.to_domain st v in
    (match op, st.Column_stats.histogram, domain_v with
     | Expr.Eq, Some h, Some x -> Histogram.est_eq h x
     | Expr.Ne, Some h, Some x -> 1.0 -. Histogram.est_eq h x
     | Expr.Lt, Some h, Some x -> Histogram.est_range h ~lo:None ~hi:(Some (x, false))
     | Expr.Le, Some h, Some x -> Histogram.est_range h ~lo:None ~hi:(Some (x, true))
     | Expr.Gt, Some h, Some x -> Histogram.est_range h ~lo:(Some (x, false)) ~hi:None
     | Expr.Ge, Some h, Some x -> Histogram.est_range h ~lo:(Some (x, true)) ~hi:None
     | Expr.Eq, None, _ ->
       (match st.Column_stats.distinct with
        | Some d when d >= 1.0 -> 1.0 /. d
        | _ -> default_eq)
     | Expr.Ne, None, _ ->
       (match st.Column_stats.distinct with
        | Some d when d >= 1.0 -> 1.0 -. (1.0 /. d)
        | _ -> 1.0 -. default_eq)
     | (Expr.Lt | Expr.Le | Expr.Gt | Expr.Ge), None, _ ->
       (match st.Column_stats.min_v, st.Column_stats.max_v with
        | Some min_v, Some max_v -> interpolate ~min_v ~max_v ~op ~v
        | _ -> default_range)
     | _, Some _, None -> default_range)

let col_between env c lo hi =
  match env.stats_of c with
  | None -> default_range
  | Some st ->
    (match st.Column_stats.histogram,
           Column_stats.to_domain st lo,
           Column_stats.to_domain st hi with
     | Some h, Some x_lo, Some x_hi ->
       Histogram.est_range h ~lo:(Some (x_lo, true)) ~hi:(Some (x_hi, true))
     | _ ->
       let s_lo = col_cmp_const env c Expr.Ge lo in
       let s_hi = col_cmp_const env c Expr.Le hi in
       clamp (s_lo +. s_hi -. 1.0))

let distinct_of_column env c =
  match env.stats_of c with
  | None -> None
  | Some st ->
    (match st.Column_stats.distinct with
     | Some d -> Some d
     | None ->
       Option.map Histogram.distinct st.Column_stats.histogram)

let equijoin_selectivity env ~left ~right =
  let stl = env.stats_of left and str = env.stats_of right in
  match stl, str with
  | Some l, Some r ->
    (match l.Column_stats.histogram, r.Column_stats.histogram with
     | Some hl, Some hr -> Histogram.est_join_selectivity hl hr
     | _ ->
       (match distinct_of_column env left, distinct_of_column env right with
        | Some dl, Some dr when dl >= 1.0 && dr >= 1.0 -> 1.0 /. Float.max dl dr
        | _ -> default_eq))
  | _ ->
    (match distinct_of_column env left, distinct_of_column env right with
     | Some dl, Some dr when dl >= 1.0 && dr >= 1.0 -> 1.0 /. Float.max dl dr
     | Some d, None | None, Some d when d >= 1.0 -> 1.0 /. d
     | _ -> default_eq)

let rec selectivity ?equijoin env e =
  match e with
  | Expr.And (a, b) ->
    clamp (selectivity ?equijoin env a *. selectivity ?equijoin env b)
  | Expr.Or (a, b) ->
    let sa = selectivity ?equijoin env a and sb = selectivity ?equijoin env b in
    clamp (sa +. sb -. (sa *. sb))
  | Expr.Not a -> clamp (1.0 -. selectivity ?equijoin env a)
  | Expr.Const (Value.Bool true) -> 1.0
  | Expr.Const (Value.Bool false) -> 0.0
  | e ->
    (match Expr.shape_of e with
     | Expr.S_col_cmp_const (c, op, v) -> clamp (col_cmp_const env c op v)
     | Expr.S_col_between (c, lo, hi) -> clamp (col_between env c lo hi)
     | Expr.S_col_eq_col (a, b) ->
       (match equijoin with
        | Some f -> clamp (f ~left:a ~right:b)
        | None -> clamp (equijoin_selectivity env ~left:a ~right:b))
     | Expr.S_col_cmp_col (_, _, _) -> default_range
     | Expr.S_udf u ->
       Option.value ~default:default_udf u.Expr.declared_selectivity
     | Expr.S_other -> default_other)
