open Mqr_storage
module Catalog = Mqr_catalog.Catalog
module Column_stats = Mqr_catalog.Column_stats
module Histogram = Mqr_stats.Histogram
module Expr = Mqr_expr.Expr
module Plan = Mqr_opt.Plan
module Cost_model = Mqr_opt.Cost_model
module Collector = Mqr_exec.Collector

(* ------------------------------------------------------------------ *)
(* Intervals.                                                          *)

type interval = { lo : float; hi : float }

let inf = Float.infinity
let point x = { lo = x; hi = x }

(* "Anything from nothing to the whole input". *)
let top n = { lo = 0.0; hi = n }

(* Past an unresolvable table nothing at all is provable. *)
let unknown = { lo = 0.0; hi = inf }

let pp_interval ppf { lo; hi } =
  if hi = inf then Format.fprintf ppf "[%.0f, +inf)" lo
  else Format.fprintf ppf "[%.0f, %.0f]" lo hi

let contains { lo; hi } x = x >= lo -. 0.5 && x <= hi +. 0.5

(* Product with the 0 * inf = 0 convention (an empty input stays empty no
   matter how unbounded the other side is). *)
let mul a b = if a = 0.0 || b = 0.0 then 0.0 else a *. b

(* Rows passing the conjunction of two conditions, each known to pass
   within [a] / [b] rows of the same [n]-row input (inclusion-exclusion
   on the lower bound). *)
let inter_conj n a b =
  { lo = Float.max 0.0 (a.lo +. b.lo -. n); hi = Float.min a.hi b.hi }

(* Upper bound on rows a predicate accepts out of a population of at most
   [hi] rows whose joint per-value frequency over a pinned column set is
   bounded by [joint]: every equality conjunct pinning a column to a
   constant holds the survivors to the joint frequency of all pinned
   columns (the specific constant can only match fewer rows than the
   most frequent value), and a disjunction passes at most the sum of its
   branches.  Conjuncts of any other shape are ignored — they only
   filter further. *)
let pred_count_hi ~hi ~joint pred =
  let rec eq_cols e =
    match e with
    | Expr.And (a, b) -> eq_cols a @ eq_cols b
    | _ ->
      (match Expr.shape_of e with
       | Expr.S_col_cmp_const (c, Expr.Eq, _) -> [ c ]
       | _ -> [])
  in
  let rec count e =
    match e with
    | Expr.Or (a, b) -> Float.min hi (count a +. count b)
    | _ -> (match eq_cols e with [] -> hi | cols -> Float.min hi (joint cols))
  in
  count pred

(* ------------------------------------------------------------------ *)
(* Environment: ground truth per table.                                *)

type col_info = {
  stats : Column_stats.t;
  fresh : bool;
      (* the recorded min/max window, dictionary and histogram layout
         describe (a superset of) the column's current values *)
  counts : bool;
      (* bucket/distinct counts describe the current contents exactly *)
  unique : bool;  (* proven: fresh distinct count = true row count *)
  dense : bool;   (* unique integer key covering every value in [min, max] *)
  no_nulls : bool;
}

type table_info = {
  t_rows : float;   (* true heap tuple count, never the believed one *)
  t_pages : float;
  col : string -> col_info option;  (* by bare column name *)
  has_index : string -> bool;
}

type env = { table : string -> table_info option }

let env catalog =
  let table name =
    match Catalog.find catalog name with
    | None -> None
    | Some tbl ->
      let t_rows = float_of_int (Heap_file.tuple_count tbl.Catalog.heap) in
      let t_pages = float_of_int (Heap_file.page_count tbl.Catalog.heap) in
      let unchanged = tbl.Catalog.updates_since_analyze = 0 in
      (* a temp table's bucket/distinct counts may come from a
         sample-based collector: only its min/max windows are exact *)
      let trusted = not tbl.Catalog.temp in
      let col cname =
        match Catalog.column_stats tbl cname with
        | None -> None
        | Some st ->
          let fresh = unchanged && not st.Column_stats.stale in
          let counts =
            fresh && trusted
            && (match st.Column_stats.histogram with
                | Some h -> Histogram.total_rows h <= t_rows +. 0.5
                | None -> true)
          in
          let no_nulls =
            counts
            && (match st.Column_stats.histogram with
                | Some h -> Float.abs (Histogram.total_rows h -. t_rows) <= 0.5
                | None -> false)
          in
          (* The per-column is_key flag is NOT trusted: composite declared
             keys set it on every member column, which is individually
             non-unique.  Uniqueness must be proven from the counts. *)
          let unique =
            counts
            && (match st.Column_stats.distinct with
                | Some d -> d >= t_rows -. 0.5
                | None -> false)
          in
          let dense =
            unique && no_nulls
            && (match (st.Column_stats.min_v, st.Column_stats.max_v) with
                | Some (Value.Int a), Some (Value.Int b)
                | Some (Value.Date a), Some (Value.Date b) ->
                  Float.abs (float_of_int (b - a + 1) -. t_rows) <= 0.5
                | _ -> false)
          in
          Some { stats = st; fresh; counts; unique; dense; no_nulls }
      in
      let has_index cname =
        Option.is_some (Catalog.find_index tbl ~column:cname)
      in
      Some { t_rows; t_pages; col; has_index }
  in
  { table }

(* ------------------------------------------------------------------ *)
(* Value / domain helpers.                                             *)

let bare col =
  match String.rindex_opt col '.' with
  | Some i -> String.sub col (i + 1) (String.length col - i - 1)
  | None -> col

let vcmp a b =
  match Value.compare a b with
  | c -> Some c
  | exception Invalid_argument _ -> None

(* Insertion position of a string absent from a sorted dictionary: the
   half-ordinal below its rank.  Exact, since every occurring value sits
   on an integer ordinal. *)
let dict_pos dict s =
  match List.assoc_opt s dict with
  | Some x -> x
  | None ->
    let r =
      List.fold_left
        (fun acc (k, (_ : float)) -> if String.compare k s < 0 then acc + 1 else acc)
        0 dict
    in
    float_of_int r -. 0.5

(* Map a constant onto a column's histogram domain without falling into
   the cross-type trap (an Int constant against a dictionary-backed string
   column must not be read as an ordinal). *)
let domain_pos (st : Column_stats.t) v =
  match (v, st.Column_stats.dict) with
  | Value.Null, _ -> `Unknown
  | Value.String s, Some d ->
    (match List.assoc_opt s d with
     | Some x -> `Pos x
     | None -> `Miss (dict_pos d s))
  | Value.String _, None -> `Unknown
  | _, Some _ -> `Unknown
  | v, None ->
    (match Value.to_float v with
     | x -> `Pos x
     | exception Invalid_argument _ -> `Unknown)

(* ------------------------------------------------------------------ *)
(* Predicate bounds over one table's scan.                             *)

(* Rows of an [n]-row scan of [ti] that can satisfy [col = v]. *)
let eq_interval ti n col v =
  match ti.col col with
  | None -> top n
  | Some info ->
    if not info.fresh then top n
    else
      let st = info.stats in
      let lt_min =
        match st.Column_stats.min_v with
        | Some mn -> (match vcmp v mn with Some c -> c < 0 | None -> false)
        | None -> false
      in
      let gt_max =
        match st.Column_stats.max_v with
        | Some mx -> (match vcmp v mx with Some c -> c > 0 | None -> false)
        | None -> false
      in
      if lt_min || gt_max then point 0.0
      else if not info.counts then top n
      else
        let cap u = if info.unique then Float.min 1.0 u else u in
        (match domain_pos st v with
         | `Miss _ -> point 0.0  (* exact dictionary: the value never occurs *)
         | `Unknown -> { lo = 0.0; hi = cap n }
         | `Pos x ->
           (match st.Column_stats.histogram with
            | None -> { lo = 0.0; hi = cap n }
            | Some h ->
              (match
                 List.find_opt
                   (fun (b : Histogram.bucket) -> b.Histogram.lo <= x && x <= b.Histogram.hi)
                   (Histogram.buckets h)
               with
               | None -> point 0.0  (* exact buckets cover every value *)
               | Some b ->
                 if b.Histogram.lo = b.Histogram.hi then point b.Histogram.rows
                 else
                   { lo = 0.0;
                     hi =
                       cap
                         (Float.max 0.0
                            (b.Histogram.rows -. b.Histogram.distinct +. 1.0)) })))

(* Rows that can satisfy [blo <= col <= bhi] (either bound optional, each
   (value, inclusive?)). *)
let range_interval ti n col ~blo ~bhi =
  match ti.col col with
  | None -> top n
  | Some info ->
    if not info.fresh then top n
    else
      let st = info.stats in
      let empty_by_window =
        (match (bhi, st.Column_stats.min_v) with
         | Some (v, incl), Some mn ->
           (match vcmp v mn with
            | Some c -> c < 0 || (c = 0 && not incl)
            | None -> false)
         | _ -> false)
        || (match (blo, st.Column_stats.max_v) with
            | Some (v, incl), Some mx ->
              (match vcmp v mx with
               | Some c -> c > 0 || (c = 0 && not incl)
               | None -> false)
            | _ -> false)
      in
      if empty_by_window then point 0.0
      else if not info.counts then top n
      else
        match st.Column_stats.histogram with
        | None -> top n
        | Some h ->
          (* Map each bound onto the domain; an unmappable bound is treated
             as absent (widening the range: fine for the upper bound) and
             forfeits the lower bound. *)
          let map = function
            | None -> (None, true)
            | Some (v, incl) ->
              (match domain_pos st v with
               | `Pos x -> (Some (x, incl), true)
               | `Miss x -> (Some (x, true), true)
               | `Unknown -> (None, false))
          in
          let dlo, lo_ok = map blo in
          let dhi, hi_ok = map bhi in
          let bucket_intersects (b : Histogram.bucket) =
            (match dlo with
             | None -> true
             | Some (x, incl) ->
               b.Histogram.hi > x || (b.Histogram.hi = x && incl))
            && (match dhi with
                | None -> true
                | Some (x, incl) ->
                  b.Histogram.lo < x || (b.Histogram.lo = x && incl))
          in
          let bucket_contained (b : Histogram.bucket) =
            (match dlo with
             | None -> true
             | Some (x, incl) ->
               b.Histogram.lo > x || (b.Histogram.lo = x && incl))
            && (match dhi with
                | None -> true
                | Some (x, incl) ->
                  b.Histogram.hi < x || (b.Histogram.hi = x && incl))
          in
          let hi_rows =
            List.fold_left
              (fun acc b -> if bucket_intersects b then acc +. b.Histogram.rows else acc)
              0.0 (Histogram.buckets h)
          in
          let lo_rows =
            if lo_ok && hi_ok then
              List.fold_left
                (fun acc b -> if bucket_contained b then acc +. b.Histogram.rows else acc)
                0.0 (Histogram.buckets h)
            else 0.0
          in
          let hi_rows = Float.min n hi_rows in
          { lo = Float.min lo_rows hi_rows; hi = hi_rows }

(* Rows that can satisfy [col <> v]. *)
let ne_interval ti n col v =
  match ti.col col with
  | None -> top n
  | Some info ->
    (match (info.counts, info.stats.Column_stats.histogram) with
     | true, Some h ->
       let nn = Histogram.total_rows h in  (* exact non-null count *)
       let e = eq_interval ti n col v in
       { lo = Float.max 0.0 (nn -. e.hi); hi = Float.min n (Float.max 0.0 (nn -. e.lo)) }
     | _ -> top n)

let conjunct_interval ti n c =
  match Expr.shape_of c with
  | Expr.S_col_cmp_const (col, op, v) ->
    if Value.is_null v then point 0.0  (* null comparisons pass nothing *)
    else
      let col = bare col in
      (match op with
       | Expr.Eq -> eq_interval ti n col v
       | Expr.Ne -> ne_interval ti n col v
       | Expr.Lt -> range_interval ti n col ~blo:None ~bhi:(Some (v, false))
       | Expr.Le -> range_interval ti n col ~blo:None ~bhi:(Some (v, true))
       | Expr.Gt -> range_interval ti n col ~blo:(Some (v, false)) ~bhi:None
       | Expr.Ge -> range_interval ti n col ~blo:(Some (v, true)) ~bhi:None)
  | Expr.S_col_between (col, vlo, vhi) ->
    if Value.is_null vlo || Value.is_null vhi then point 0.0
    else
      range_interval ti n (bare col) ~blo:(Some (vlo, true)) ~bhi:(Some (vhi, true))
  | Expr.S_col_eq_col _ | Expr.S_col_cmp_col _ | Expr.S_udf _ | Expr.S_other ->
    top n

(* Conjunction over an [n]-row input: the upper bound is the tightest
   conjunct, the lower bound subtracts every conjunct's worst-case miss
   count (inclusion-exclusion). *)
let conjunction ti n cs =
  let ivs = List.map (conjunct_interval ti n) cs in
  let hi = List.fold_left (fun acc i -> Float.min acc i.hi) n ivs in
  let deficit = List.fold_left (fun acc i -> acc +. (n -. i.lo)) 0.0 ivs in
  { lo = Float.max 0.0 (Float.min (n -. deficit) hi); hi = Float.max 0.0 hi }

let pred_interval ti n = function
  | None -> point n
  | Some pred -> conjunction ti n (Expr.conjuncts pred)

(* ------------------------------------------------------------------ *)
(* Plan analysis.                                                      *)

type node_bounds = { b_rows : interval; b_pages : interval }
type t = { tbl : (int, node_bounds) Hashtbl.t }

let rows t id = Option.map (fun nb -> nb.b_rows) (Hashtbl.find_opt t.tbl id)
let pages t id = Option.map (fun nb -> nb.b_pages) (Hashtbl.find_opt t.tbl id)

let width_of (p : Plan.t) =
  let w = p.Plan.est.Plan.width in
  if Float.is_finite w && w > 0.0 then w else 1.0

let pages_iv r w =
  { lo = Cost_model.pages ~rows:r.lo ~width:w;
    hi = (if Float.is_finite r.hi then Cost_model.pages ~rows:r.hi ~width:w else inf) }

let resolves schema col =
  match Schema.index_of schema col with
  | (_ : int) -> true
  | exception Not_found -> false
  | exception Schema.Ambiguous _ -> true

(* [min, max] of src provably inside [min, max] of cover. *)
let within (si : Column_stats.t) (ci : Column_stats.t) =
  match (si.Column_stats.min_v, si.Column_stats.max_v,
         ci.Column_stats.min_v, ci.Column_stats.max_v)
  with
  | Some smn, Some smx, Some cmn, Some cmx ->
    (match (vcmp smn cmn, vcmp smx cmx) with
     | Some a, Some b -> a >= 0 && b <= 0
     | _ -> false)
  | _ -> false

let analyze env (plan : Plan.t) =
  let tbl = Hashtbl.create 64 in
  let stored (p : Plan.t) = Hashtbl.find tbl p.Plan.id in
  (* Runtime-filter annotations anywhere in the plan widen the lower bound
     of every prunable leaf to 0: leaves record post-filter counts. *)
  let rf_cols =
    Plan.fold
      (fun acc (p : Plan.t) ->
        match p.Plan.node with
        | Plan.Hash_join { rf; _ } | Plan.Merge_join { rf; _ } ->
          List.fold_left (fun a (r : Plan.rf) -> r.Plan.rf_probe_col :: a) acc rf
        | _ -> acc)
      [] plan
  in
  let rf_pruned (p : Plan.t) =
    rf_cols <> [] && List.exists (fun c -> resolves p.Plan.schema c) rf_cols
  in
  (* Does this subtree deliver every row of a base table (row-preserving
     wrappers only), safe from runtime-filter pruning? *)
  let rec full_base_scan (p : Plan.t) =
    match p.Plan.node with
    | Plan.Seq_scan { table; alias = _; filter = None } ->
      if rf_pruned p then None else env.table table
    | Plan.Collect { input; _ } | Plan.Sort { input; _ } | Plan.Project { input; _ } ->
      full_base_scan input
    | _ -> None
  in
  (* Statistics of the leaf column feeding [col] (qualified names resolve
     at exactly one leaf; bail out when ambiguous across leaves). *)
  let src_col_info (p : Plan.t) col =
    let hits = ref [] in
    let rec walk (q : Plan.t) =
      match q.Plan.node with
      | Plan.Seq_scan { table; _ } | Plan.Index_scan { table; _ } ->
        if resolves q.Plan.schema col then hits := table :: !hits
      | Plan.Materialized { name; _ } ->
        if resolves q.Plan.schema col then hits := name :: !hits
      | _ -> List.iter walk (Plan.children q)
    in
    walk p;
    match !hits with
    | [ table ] -> Option.bind (env.table table) (fun ti -> ti.col (bare col))
    | _ -> None
  in
  let rec go (p : Plan.t) : interval =
    let r = compute p in
    let r =
      match p.Plan.node with
      | (Plan.Seq_scan _ | Plan.Index_scan _ | Plan.Materialized _ | Plan.Collect _)
        when rf_pruned p ->
        { r with lo = 0.0 }
      | _ -> r
    in
    Hashtbl.replace tbl p.Plan.id { b_rows = r; b_pages = pages_iv r (width_of p) };
    r
  and compute (p : Plan.t) : interval =
    match p.Plan.node with
    | Plan.Seq_scan { table; alias = _; filter } ->
      (match env.table table with
       | None -> unknown
       | Some ti -> pred_interval ti ti.t_rows filter)
    | Plan.Index_scan { table; alias = _; index_col; lo; hi; filter } ->
      (match env.table table with
       | None -> unknown
       | Some ti ->
         (* The residual filter includes the bounds in optimizer-built
            plans; intersecting with the bound window separately also
            covers hand-built plans carrying bounds alone. *)
         let bound_iv = range_interval ti ti.t_rows (bare index_col) ~blo:lo ~bhi:hi in
         let filter_iv = pred_interval ti ti.t_rows filter in
         inter_conj ti.t_rows bound_iv filter_iv)
    | Plan.Materialized { name; _ } ->
      (match env.table name with
       | None -> unknown
       | Some ti -> point ti.t_rows)
    | Plan.Hash_join { build; probe; keys; extra; rf = _ } ->
      let b = go build in
      let pr = go probe in
      (* hash keys are (probe column, build column); normalize to
         (left = build, right = probe) pairs *)
      join_interval ~left:build ~left_iv:b ~right:probe ~right_iv:pr
        ~keys:(List.map (fun (pc, bc) -> (bc, pc)) keys)
        ~extra
    | Plan.Merge_join
        { left; right; keys; extra; left_sorted = _; right_sorted = _; rf = _ } ->
      let l = go left in
      let r = go right in
      join_interval ~left ~left_iv:l ~right ~right_iv:r ~keys ~extra
    | Plan.Index_nl_join
        { outer; table; alias = _; outer_col; inner_col; inner_filter; extra } ->
      let o = go outer in
      (match env.table table with
       | None -> unknown
       | Some ti ->
         let inner_iv = pred_interval ti ti.t_rows inner_filter in
         let hi =
           Float.min
             (mul o.hi inner_iv.hi)
             (Float.min
                (mul o.hi (col_mult ti (bare inner_col)))
                (mul inner_iv.hi (joint_mult outer [ outer_col ])))
         in
         let exact =
           Option.is_none inner_filter && Option.is_none extra
           && (match ti.col (bare inner_col) with
               | Some ci when ci.dense ->
                 (match src_col_info outer outer_col with
                  | Some si when si.no_nulls && si.fresh -> within si.stats ci.stats
                  | _ -> false)
               | _ -> false)
         in
         if exact then { lo = Float.min o.lo hi; hi = Float.min o.hi hi }
         else { lo = 0.0; hi })
    | Plan.Block_nl_join { outer; inner; pred } ->
      let o = go outer in
      let i = go inner in
      let hi = mul o.hi i.hi in
      (match pred with
       | None -> { lo = mul o.lo i.lo; hi }  (* cross product is exact *)
       | Some p ->
         (* a column on both sides would be ambiguous — drop it (looser) *)
         let joint cols =
           let on_o c = resolves outer.Plan.schema c
           and on_i c = resolves inner.Plan.schema c in
           mul
             (joint_mult outer
                (List.filter (fun c -> on_o c && not (on_i c)) cols))
             (joint_mult inner
                (List.filter (fun c -> on_i c && not (on_o c)) cols))
         in
         { lo = 0.0; hi = pred_count_hi ~hi ~joint p })
    | Plan.Aggregate { input; group_by = []; aggs = _; pre_sorted = _ } ->
      let (_ : interval) = go input in
      point 1.0  (* scalar aggregates emit one row even on empty input *)
    | Plan.Aggregate { input; group_by; aggs = _; pre_sorted = _ } ->
      let i = go input in
      let dprod =
        List.fold_left (fun acc g -> mul acc (distinct_ub input g)) 1.0 group_by
      in
      { lo = (if i.lo >= 1.0 then 1.0 else 0.0); hi = Float.min i.hi dprod }
    | Plan.Filter { input; pred = _ } ->
      let i = go input in
      { lo = 0.0; hi = i.hi }
    | Plan.Sort { input; _ } | Plan.Project { input; _ } | Plan.Collect { input; _ } ->
      go input
    | Plan.Limit { input; n } ->
      let i = go input in
      let fn = float_of_int n in
      { lo = Float.min i.lo fn; hi = Float.min i.hi fn }
  (* Join bounds over normalized (left col, right col) key pairs: the
     upper bound caps the cross product by each side's provable per-value
     frequency; a single-key equi-join against a side that delivers a
     whole base table whose key is unique and dense, with the other side's
     values provably inside that window and never null, is exact — every
     such row matches exactly one cover row (the foreign-key case). *)
  and join_interval ~left ~left_iv ~right ~right_iv ~keys ~extra =
    let cross = mul left_iv.hi right_iv.hi in
    let hi =
      (* pin ALL key columns of a side at once: the joint per-value
         frequency is what one row of the other side can match *)
      let lks = List.map fst keys and rks = List.map snd keys in
      Float.min cross
        (Float.min
           (mul right_iv.hi (joint_mult left lks))
           (mul left_iv.hi (joint_mult right rks)))
    in
    let hi =
      (* an extra (non-equi) join predicate can only filter; its equality
         conjuncts pin columns of the equi-join output *)
      match extra with
      | None -> hi
      | Some p ->
        let on_l c = resolves left.Plan.schema c
        and on_r c = resolves right.Plan.schema c in
        let joint cols =
          pinned ~left ~right ~keys
            (List.filter (fun c -> on_l c && not (on_r c)) cols)
            (List.filter (fun c -> on_r c && not (on_l c)) cols)
        in
        pred_count_hi ~hi ~joint p
    in
    let covers ~cover:(cnode, ccol) ~src:(snode, scol) =
      match full_base_scan cnode with
      | None -> false
      | Some ti ->
        (match ti.col (bare ccol) with
         | Some ci when ci.dense ->
           (match src_col_info snode scol with
            | Some si when si.no_nulls && si.fresh -> within si.stats ci.stats
            | _ -> false)
         | _ -> false)
    in
    let exact =
      match (extra, keys) with
      | None, [ (lc, rc) ] ->
        if covers ~cover:(left, lc) ~src:(right, rc) then Some right_iv
        else if covers ~cover:(right, rc) ~src:(left, lc) then Some left_iv
        else None
      | _ -> None
    in
    match exact with
    | Some s -> { lo = Float.min s.lo hi; hi = Float.min s.hi hi }
    | None -> { lo = 0.0; hi }
  (* Provable joint per-value frequency: an upper bound on how many rows
     of [p] can simultaneously agree on ONE fixed assignment of values to
     every column in [cols].  The join rule propagates pins across keys —
     once a side is held to an assignment, each of its rows fixes the
     other side's key columns too, so the other side contributes its
     joint frequency with those keys pinned as well.  This is what makes
     the bound sharp on star shapes: independently pinned dimensions
     multiply out to ~1 instead of compounding whole-side fan-outs.
     Ignoring a column that resolves nowhere only loosens the bound, so
     unresolvable pins are safe; [cols = []] degrades to the node's row
     upper bound. *)
  and joint_mult (p : Plan.t) cols =
    let hi = (stored p).b_rows.hi in
    let cols = List.filter (resolves p.Plan.schema) cols in
    let tbl_joint topt cs =
      match topt with
      | None -> inf
      | Some ti ->
        if cs = [] then ti.t_rows
        else
          List.fold_left
            (fun acc c -> Float.min acc (col_mult ti (bare c)))
            inf cs
    in
    let m =
      if cols = [] then hi
      else
        match p.Plan.node with
        | Plan.Seq_scan { table; _ } | Plan.Index_scan { table; _ } ->
          tbl_joint (env.table table) cols
        | Plan.Materialized { name; _ } -> tbl_joint (env.table name) cols
        | Plan.Collect { input; _ } | Plan.Sort { input; _ }
        | Plan.Project { input; _ } | Plan.Limit { input; _ }
        | Plan.Filter { input; _ } ->
          joint_mult input cols
        | Plan.Hash_join { build; probe; keys; _ } ->
          (* keys are (probe column, build column) pairs *)
          pinned ~left:build ~right:probe
            ~keys:(List.map (fun (pc, bc) -> (bc, pc)) keys)
            (List.filter (resolves build.Plan.schema) cols)
            (List.filter (resolves probe.Plan.schema) cols)
        | Plan.Merge_join { left; right; keys; _ } ->
          pinned ~left ~right ~keys
            (List.filter (resolves left.Plan.schema) cols)
            (List.filter (resolves right.Plan.schema) cols)
        | Plan.Index_nl_join { outer; table; alias = _; outer_col; inner_col; _ }
          ->
          let so = List.filter (resolves outer.Plan.schema) cols in
          let si =
            List.filter (fun c -> not (resolves outer.Plan.schema c)) cols
          in
          let ti = env.table table in
          Float.min
            (mul (joint_mult outer so) (tbl_joint ti (inner_col :: si)))
            (mul (tbl_joint ti si) (joint_mult outer (outer_col :: so)))
        | Plan.Block_nl_join { outer; inner; _ } ->
          let so = List.filter (resolves outer.Plan.schema) cols in
          let si = List.filter (resolves inner.Plan.schema) cols in
          mul (joint_mult outer so) (joint_mult inner si)
        | Plan.Aggregate { input; group_by; _ } ->
          let sg = List.filter (fun c -> List.mem c group_by) cols in
          if sg = [] then hi
          else
            List.fold_left
              (fun acc g ->
                 if List.mem g sg then acc else mul acc (distinct_ub input g))
              1.0 group_by
    in
    Float.min m hi
  (* [joint_mult] of a join of [left] and [right] on [keys] ((left
     column, right column) pairs), with columns [sl] of [left] and [sr]
     of [right] pinned. *)
  and pinned ~left ~right ~keys sl sr =
    Float.min
      (mul (joint_mult left sl) (joint_mult right (List.map snd keys @ sr)))
      (mul (joint_mult right sr) (joint_mult left (List.map fst keys @ sl)))
  (* Provable per-value frequency of [c] in one table. *)
  and col_mult ti c =
    match ti.col c with
    | None -> inf
    | Some info ->
      if info.unique then 1.0
      else if not info.counts then inf
      else (
        match info.stats.Column_stats.histogram with
        | Some h ->
          List.fold_left
            (fun acc (b : Histogram.bucket) ->
              Float.max acc
                (Float.max 0.0 (b.Histogram.rows -. b.Histogram.distinct +. 1.0)))
            0.0 (Histogram.buckets h)
        | None ->
          (match info.stats.Column_stats.distinct with
           | Some d when d >= 1.0 -> Float.max 1.0 (ti.t_rows -. d +. 1.0)
           | _ -> inf))
  (* Upper bound on the number of distinct values of [col] in the output
     of [p]. *)
  and distinct_ub (p : Plan.t) col =
    let hi = (stored p).b_rows.hi in
    let tbl_distinct topt =
      match topt with
      | None -> inf
      | Some ti ->
        (match ti.col (bare col) with
         | Some info when info.counts ->
           (match info.stats.Column_stats.distinct with Some d -> d | None -> inf)
         | _ -> inf)
    in
    let d =
      match p.Plan.node with
      | Plan.Seq_scan { table; _ } | Plan.Index_scan { table; _ } ->
        tbl_distinct (env.table table)
      | Plan.Materialized { name; _ } -> tbl_distinct (env.table name)
      | Plan.Collect { input; _ } | Plan.Sort { input; _ } | Plan.Project { input; _ }
      | Plan.Limit { input; _ } | Plan.Filter { input; _ } ->
        distinct_ub input col
      | Plan.Hash_join { build = left; probe = right; _ }
      | Plan.Merge_join { left; right; _ } ->
        let on_left = resolves left.Plan.schema col in
        let on_right = resolves right.Plan.schema col in
        if on_left && not on_right then distinct_ub left col
        else if on_right && not on_left then distinct_ub right col
        else inf
      | Plan.Index_nl_join { outer; table; _ } ->
        if resolves outer.Plan.schema col then distinct_ub outer col
        else tbl_distinct (env.table table)
      | Plan.Block_nl_join { outer; inner; _ } ->
        if resolves outer.Plan.schema col then distinct_ub outer col
        else distinct_ub inner col
      | Plan.Aggregate { input; group_by; _ } ->
        if List.mem col group_by then distinct_ub input col else inf
    in
    Float.min d hi
  in
  let (_ : interval) = go plan in
  { tbl }

(* ------------------------------------------------------------------ *)
(* Cost intervals.                                                     *)

(* A memory grant large enough that no formula spills. *)
let ample_mem = 1_000_000_000

let cost_interval env ?(max_dop = 1) (plan : Plan.t) =
  let b = analyze env plan in
  let r (p : Plan.t) = Option.value (rows b p.Plan.id) ~default:unknown in
  let pg (p : Plan.t) =
    Option.value (pages b p.Plan.id) ~default:{ lo = 1.0; hi = inf }
  in
  (* [p]'s own serial price with every quantity at one end of its
     interval: the low end at low rows and pages under an ample grant and
     without runtime-filter overhead (adaptive retirement can cut a probe
     short), the high end at high rows and pages under a one-page grant. *)
  let op_ms ~lo (p : Plan.t) =
    let e iv = if lo then iv.lo else iv.hi in
    let mem_pages = if lo then ample_mem else 1 in
    let rf l = if lo then 0 else List.length l in
    let rows = e (r p) in
    match p.Plan.node with
    | Plan.Seq_scan { table; filter; _ } ->
      (match env.table table with
       | Some ti ->
         (* the scan always reads the whole heap and filters every row:
            exact *)
         Cost_model.seq_scan_ms ~dop:1 ~pages:ti.t_pages ~rows:ti.t_rows
           ~filter_rows:(Cost_model.filter_rows filter ~rows:ti.t_rows)
       | None -> e unknown)
    | Plan.Index_scan { table; alias = _; index_col; lo = blo; hi = bhi; filter }
      ->
      (match env.table table with
       | Some ti ->
         (* fetches and the residual are driven by the bound matches, not
            the residual output *)
         let m = e (range_interval ti ti.t_rows (bare index_col) ~blo ~bhi) in
         Cost_model.index_scan_ms ~match_rows:m ~table_pages:ti.t_pages
           ~filter_rows:(Cost_model.filter_rows filter ~rows:m)
       | None -> e unknown)
    | Plan.Hash_join { build; probe; rf = rfs; _ } ->
      Cost_model.hash_join_ms ~dop:1 ~build_rows:(e (r build))
        ~build_pages:(e (pg build)) ~probe_rows:(e (r probe))
        ~probe_pages:(e (pg probe)) ~out_rows:rows ~mem_pages ~rf:(rf rfs)
        ~rf_probe_rows:(e (r probe))
    | Plan.Merge_join { left; right; left_sorted; right_sorted; rf = rfs; _ } ->
      Cost_model.merge_join_ms ~left_rows:(e (r left))
        ~left_pages:(e (pg left)) ~right_rows:(e (r right))
        ~right_pages:(e (pg right)) ~out_rows:rows ~mem_pages ~left_sorted
        ~right_sorted ~rf:(rf rfs) ~rf_probe_rows:(e (r right))
    | Plan.Index_nl_join { outer; inner_filter; _ } ->
      Cost_model.index_nl_join_ms ~outer_rows:(e (r outer)) ~fetched:rows
        ~filter_rows:(Cost_model.filter_rows inner_filter ~rows)
    | Plan.Block_nl_join { outer; inner; _ } ->
      Cost_model.block_nl_join_ms ~outer_rows:(e (r outer))
        ~outer_pages:(e (pg outer)) ~inner_rows:(e (r inner))
        ~inner_pages:(e (pg inner)) ~out_rows:rows ~mem_pages
    | Plan.Aggregate { input; pre_sorted = true; _ } ->
      Cost_model.aggregate_sorted_ms ~in_rows:(e (r input)) ~groups:rows
    | Plan.Aggregate { input; pre_sorted = false; _ } ->
      Cost_model.aggregate_ms ~dop:1 ~in_rows:(e (r input))
        ~in_pages:(e (pg input)) ~groups:rows ~group_pages:(e (pg p))
        ~mem_pages
    | Plan.Sort { input; _ } ->
      Cost_model.sort_ms ~dop:1 ~rows:(e (r input))
        ~data_pages:(e (pg input)) ~mem_pages
    | Plan.Filter { input; _ } -> Cost_model.cpu_ms ~rows:(e (r input))
    | Plan.Project _ | Plan.Limit _ -> Cost_model.cpu_ms ~rows
    | Plan.Collect { spec; _ } -> Collector.estimated_cost_ms spec ~rows
    | Plan.Materialized _ -> 0.0
  in
  let own (p : Plan.t) =
    let serial = { lo = op_ms ~lo:true p; hi = op_ms ~lo:false p } in
    (* Parallel slack: re-optimization may re-choose any degree up to
       [max_dop], so the best case splits the work evenly and the worst
       case adds startup and exchange overhead on top of the serial cost. *)
    let dmax = max max_dop p.Plan.dop in
    if dmax <= 1 then serial
    else
      let xpages =
        List.fold_left (fun acc c -> acc +. (pg c).hi) (pg p).hi (Plan.children p)
      in
      { lo = serial.lo /. float_of_int dmax;
        hi =
          serial.hi +. Cost_model.startup_ms ~dop:dmax
          +. Cost_model.exchange_ms ~pages:xpages }
  in
  let rec total (p : Plan.t) =
    let kids = List.map total (Plan.children p) in
    List.fold_left
      (fun acc k -> { lo = acc.lo +. k.lo; hi = acc.hi +. k.hi })
      (own p) kids
  in
  total plan

(* ------------------------------------------------------------------ *)
(* Provably-dominated access paths.                                    *)

let dominated_scan env (p : Plan.t) =
  (* the sequential alternative reads the whole heap and filters every
     row (on the index bounds, when it replaces an index scan) *)
  let seq ti =
    Cost_model.seq_scan_ms ~dop:1 ~pages:ti.t_pages ~rows:ti.t_rows
      ~filter_rows:ti.t_rows
  in
  match p.Plan.node with
  | Plan.Seq_scan { table; alias = _; filter = Some pred } when p.Plan.dop = 1 ->
    (match env.table table with
     | None -> None
     | Some ti ->
       let seq = seq ti in
       let conjs = Expr.conjuncts pred in
       (* the other conjuncts become the index scan's residual filter, one
          evaluation per match *)
       let residual = List.length conjs > 1 in
       let best =
         List.fold_left
           (fun best c ->
             match Expr.shape_of c with
             | Expr.S_col_cmp_const (col, _, _) | Expr.S_col_between (col, _, _) ->
               let bc = bare col in
               if not (ti.has_index bc) then best
               else
                 let m = (conjunct_interval ti ti.t_rows c).hi in
                 let idx =
                   Cost_model.index_scan_ms ~match_rows:m
                     ~table_pages:ti.t_pages
                     ~filter_rows:(if residual then m else 0.0)
                 in
                 if idx < seq then
                   (match best with
                    | Some (_, b) when b <= idx -> best
                    | _ -> Some (bc, idx))
                 else best
             | _ -> best)
           None conjs
       in
       Option.map
         (fun (c, idx) ->
           Printf.sprintf
             "an index scan on %s costs at most %.1f ms against %.1f ms for the \
              sequential scan"
             c idx seq)
         best)
  | Plan.Index_scan { table; alias = _; index_col; lo; hi; filter }
    when p.Plan.dop = 1 ->
    (match env.table table with
     | None -> None
     | Some ti ->
       let m = (range_interval ti ti.t_rows (bare index_col) ~blo:lo ~bhi:hi).lo in
       let idx_lo =
         Cost_model.index_scan_ms ~match_rows:m ~table_pages:ti.t_pages
           ~filter_rows:(Cost_model.filter_rows filter ~rows:m)
       in
       let seq = seq ti in
       if idx_lo > seq then
         Some
           (Printf.sprintf
              "at least %.0f provable matches cost this index scan at least %.1f ms \
               against %.1f ms for a sequential scan"
              m idx_lo seq)
       else None)
  | _ -> None
