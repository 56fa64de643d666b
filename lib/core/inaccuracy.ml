module Plan = Mqr_opt.Plan
module Stats_env = Mqr_opt.Stats_env
module Column_stats = Mqr_catalog.Column_stats
module Histogram = Mqr_stats.Histogram
module Expr = Mqr_expr.Expr

type level = Low | Medium | High

let bump = function Low -> Medium | Medium -> High | High -> High
let rank = function Low -> 0 | Medium -> 1 | High -> 2
let max_level a b = if rank a >= rank b then a else b
let compare_level a b = Int.compare (rank a) (rank b)

let level_to_string = function
  | Low -> "low"
  | Medium -> "medium"
  | High -> "high"

let base_histogram_level env ~column =
  match Stats_env.stats_of env column with
  | None -> High
  | Some st ->
    let base =
      match st.Column_stats.histogram with
      | None -> High
      | Some h ->
        (match Histogram.kind h with
         | Histogram.Serial | Histogram.Maxdiff -> Low
         | Histogram.Equi_width | Histogram.Equi_depth -> Medium)
    in
    if st.Column_stats.stale then bump base else base

(* Effect of a pushed-down selection on a scan's output-cardinality level:
   UDF -> High; two or more distinct attributes -> one level worse than the
   worst attribute (correlations); single attribute -> that attribute's
   histogram level. *)
(* How wrong a selectivity estimate turned out, as a level: within 2x ->
   Low, within 4x -> Medium, beyond -> High.  Used to grade runtime-filter
   estimates against their observed pass rates. *)
let selectivity_error_level ~est ~obs =
  let est = Float.max 1e-6 est and obs = Float.max 1e-6 obs in
  let ratio = if est > obs then est /. obs else obs /. est in
  if ratio < 2.0 then Low else if ratio < 4.0 then Medium else High

let filter_level env = function
  | None -> Low
  | Some pred ->
    if Expr.has_udf pred then High
    else begin
      let cols = List.sort_uniq String.compare (Expr.columns pred) in
      let worst =
        List.fold_left
          (fun acc c -> max_level acc (base_histogram_level env ~column:c))
          Low cols
      in
      if List.length cols >= 2 then bump worst else worst
    end

let is_key_col env column =
  match Stats_env.stats_of env column with
  | Some st -> st.Column_stats.is_key
  | None -> false

let pp_level fmt l = Fmt.string fmt (level_to_string l)

let rec cardinality_level env (p : Plan.t) =
  match p.Plan.node with
  | Plan.Seq_scan { filter; _ } | Plan.Index_scan { filter; _ } ->
    filter_level env filter
  | Plan.Materialized _ -> Low  (* observed exactly *)
  | Plan.Hash_join { build; probe; keys; extra; _ } ->
    let inputs =
      max_level (cardinality_level env build) (cardinality_level env probe)
    in
    let key_join =
      keys <> []
      && List.for_all
           (fun (a, b) -> is_key_col env a || is_key_col env b)
           keys
    in
    let lvl = if key_join then inputs else bump inputs in
    if extra <> None then bump lvl else lvl
  | Plan.Index_nl_join { outer; outer_col; inner_col; extra; _ } ->
    let inputs = cardinality_level env outer in
    let key_join = is_key_col env outer_col || is_key_col env inner_col in
    let lvl = if key_join then inputs else bump inputs in
    if extra <> None then bump lvl else lvl
  | Plan.Merge_join { left; right; keys; extra; _ } ->
    let inputs =
      max_level (cardinality_level env left) (cardinality_level env right)
    in
    let key_join =
      keys <> []
      && List.for_all (fun (a, b) -> is_key_col env a || is_key_col env b) keys
    in
    let lvl = if key_join then inputs else bump inputs in
    if extra <> None then bump lvl else lvl
  | Plan.Block_nl_join { outer; inner; pred } ->
    let inputs =
      max_level (cardinality_level env outer) (cardinality_level env inner)
    in
    if pred = None then inputs else High
  | Plan.Aggregate { input; group_by; _ } ->
    (* The output cardinality is the number of groups: the level of the
       grouping columns' distinct estimate in the input. *)
    List.fold_left
      (fun acc c -> max_level acc (distinct_level env input ~column:c))
      Low group_by
  | Plan.Filter { input; pred } ->
    max_level (filter_level env (Some pred)) (cardinality_level env input)
  | Plan.Sort { input; _ } | Plan.Project { input; _ }
  | Plan.Limit { input; _ } | Plan.Collect { input; _ } ->
    cardinality_level env input

and distinct_level env (p : Plan.t) ~column =
  match p.Plan.node with
  | Plan.Seq_scan { filter = None; _ } | Plan.Index_scan { filter = None; _ } ->
    (* base table: low only when the catalog knows the count *)
    (match Stats_env.stats_of env column with
     | Some { Column_stats.distinct = Some _; stale = false; _ } -> Low
     | Some { Column_stats.distinct = Some _; stale = true; _ } -> Medium
     | _ -> High)
  | _ -> High

let rec owning_child env (p : Plan.t) ~column =
  match
    List.find_opt
      (fun (c : Plan.t) ->
         match Mqr_storage.Schema.index_of c.Plan.schema column with
         | (_ : int) -> true
         | exception Not_found -> false
         | exception Mqr_storage.Schema.Ambiguous _ -> false)
      (Plan.children p)
  with
  | Some c -> owning_child env c ~column
  | None -> p

let histogram_level env (p : Plan.t) ~column =
  let origin = owning_child env p ~column in
  let col_level = base_histogram_level env ~column in
  (* the distribution at [p] reflects both the base histogram quality and
     everything that happened to the rows on the way *)
  max_level col_level (cardinality_level env origin)
  |> fun lvl -> max_level lvl (cardinality_level env p)
