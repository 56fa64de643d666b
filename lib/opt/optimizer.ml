open Mqr_storage
module Expr = Mqr_expr.Expr
module Selectivity = Mqr_expr.Selectivity
module Query = Mqr_sql.Query
module Aggregate = Mqr_exec.Aggregate
module Collector = Mqr_exec.Collector

type options = {
  enable_index_join : bool;
  enable_merge_join : bool;
  enable_bushy : bool;
  enable_runtime_filters : bool;
  planning_mem_pages : int;
  max_dop : int;
}

let default_options =
  { enable_index_join = true;
    enable_merge_join = true;
    enable_bushy = true;
    enable_runtime_filters = false;
    planning_mem_pages = 128;
    max_dop = 1 }

type result = {
  plan : Plan.t;
  plans_enumerated : int;
}

exception Planning_error of string

(* ------------------------------------------------------------------ *)
(* Shared context for one optimization run.                            *)

module Str_tbl = Hashtbl.Make (struct
    type t = string
    let equal = String.equal
    let hash = Hashtbl.hash
  end)

module Int_tbl = Hashtbl.Make (struct
    type t = int
    let equal = Int.equal
    let hash = Hashtbl.hash
  end)

(* The memo tables live exactly as long as one [optimize] or [recost]
   call: between calls the dispatcher layers observed statistics onto the
   [Stats_env], and a selectivity cached across that would be stale. *)
type ctx = {
  env : Stats_env.t;
  sel_env : Selectivity.env;
  planning_mem : int;
  max_dop : int;
  mutable next_id : int;
  mutable enumerated : int;
  col_ids : int Str_tbl.t;       (* interned column names *)
  join_sels : float Int_tbl.t;   (* equi-join selectivity per ordered pair *)
}

let make_ctx ?(planning_mem = default_options.planning_mem_pages)
    ?(max_dop = 1) ~env () =
  { env;
    sel_env = Stats_env.selectivity_env env;
    planning_mem;
    max_dop = Int.max 1 max_dop;
    next_id = 0;
    enumerated = 0;
    col_ids = Str_tbl.create 32;
    join_sels = Int_tbl.create 32 }

(* Memory assumed when costing: the grant when one exists, otherwise the
   planning assumption capped by the operator's own maximum. *)
let effective_mem ctx ~mem ~max_mem =
  if mem > 0 then mem else Int.min max_mem (Int.max 2 ctx.planning_mem)

let fresh_id ctx =
  let id = ctx.next_id in
  ctx.next_id <- id + 1;
  id

let col_id ctx c =
  match Str_tbl.find ctx.col_ids c with
  | i -> i
  | exception Not_found ->
    let i = Str_tbl.length ctx.col_ids in
    Str_tbl.add ctx.col_ids c i;
    i

(* The histogram estimate walks every bucket pair, and the DP asks for the
   same pair in thousands of splits.  The pair is ordered: the bucket sums
   run in a different order for (b, a), so the float may differ. *)
let equijoin_sel ctx ~left ~right =
  let key = (col_id ctx left lsl 31) lor col_id ctx right in
  match Int_tbl.find ctx.join_sels key with
  | s -> s
  | exception Not_found ->
    let s = Selectivity.equijoin_selectivity ctx.sel_env ~left ~right in
    Int_tbl.add ctx.join_sels key s;
    s

let sel ctx e =
  Selectivity.selectivity ~equijoin:(equijoin_sel ctx) ctx.sel_env e

let sel_opt ctx = function None -> 1.0 | Some e -> sel ctx e

let width_of schema = float_of_int (Schema.avg_tuple_width schema)

(* ------------------------------------------------------------------ *)
(* Node constructors: estimation + costing in one place so [recost]    *)
(* and the DP share the exact same formulas.  Each join constructor    *)
(* comes in two halves: [price_*] computes what the DP compares, with  *)
(* no schema, node or id, and [build_*] turns a price into a plan      *)
(* node.  [mk_*] is "build (price ...)".                               *)

(* An operator's estimates and memory demands, before (or without) a
   node to carry them. *)
type priced = {
  rows : float;
  op_ms : float;
  total_ms : float;  (* [op_ms] plus the children's totals, in order *)
  dop : int;
  min_mem : int;
  max_mem : int;
  mem : int;
}

let price ?(dop = 1) ~rows ~op_ms ~children ~min_mem ~max_mem ~mem () =
  let total_ms =
    List.fold_left (fun acc (c : Plan.t) -> acc +. c.Plan.est.Plan.total_ms)
      op_ms children
  in
  { rows; op_ms; total_ms; dop; min_mem; max_mem; mem }

let node_of ~id node schema (p : priced) =
  { Plan.id;
    node;
    schema;
    est =
      { Plan.rows = Float.max 0.05 p.rows;
        width = width_of schema;
        op_ms = p.op_ms;
        total_ms = p.total_ms };
    min_mem = p.min_mem;
    max_mem = p.max_mem;
    mem = p.mem;
    dop = p.dop }

let mk_node ctx ?dop node schema ~rows ~op_ms ~children ~min_mem ~max_mem
    ~mem =
  node_of ~id:(fresh_id ctx) node schema
    (price ?dop ~rows ~op_ms ~children ~min_mem ~max_mem ~mem ())

(* ------------------------------------------------------------------ *)
(* Degree-of-parallelism choice.  Candidate degrees are powers of two up
   to [max_dop] (the degrees the bench sweeps); [op_ms d] is the node's
   price at degree [d].  Degree 1 is exactly the serial cost — no
   exchange, no startup — so with [max_dop = 1] every plan, cost and trace
   is byte-identical to a build without parallelism.  Ties keep the
   smaller degree. *)

let choose_dop ctx op_ms =
  let rec go d (best_d, best_ms) =
    if d > ctx.max_dop then (best_d, best_ms)
    else begin
      let ms = op_ms d in
      go (d * 2) (if ms < best_ms then (d, ms) else (best_d, best_ms))
    end
  in
  go 2 (1, op_ms 1)

let scan_out_rows ctx ~alias ~filter =
  let r = Stats_env.rel ctx.env ~alias in
  match filter, Stats_env.local_selectivity ctx.env ~alias with
  | Some _, Some sel -> r.Stats_env.rows *. sel
  | _ -> r.Stats_env.rows *. sel_opt ctx filter

let mk_seq_scan ctx ~table ~alias ~filter ~schema =
  let r = Stats_env.rel ctx.env ~alias in
  let rows = scan_out_rows ctx ~alias ~filter in
  let filter_rows = Cost_model.filter_rows filter ~rows:r.Stats_env.rows in
  let dop, op_ms =
    choose_dop ctx (fun dop ->
        Cost_model.seq_scan_ms ~dop ~pages:r.Stats_env.pages
          ~rows:r.Stats_env.rows ~filter_rows)
  in
  mk_node ctx ~dop (Plan.Seq_scan { table; alias; filter }) schema ~rows ~op_ms
    ~children:[] ~min_mem:0 ~max_mem:0 ~mem:0

let mk_index_scan ctx ~table ~alias ~index_col ~lo ~hi ~filter ~schema
    ~index_sel =
  let r = Stats_env.rel ctx.env ~alias in
  let rows = scan_out_rows ctx ~alias ~filter in
  let match_rows = Float.max 1.0 (r.Stats_env.rows *. index_sel) in
  let op_ms =
    Cost_model.index_scan_ms ~match_rows
      ~table_pages:r.Stats_env.pages
      ~filter_rows:(Cost_model.filter_rows filter ~rows:match_rows)
  in
  mk_node ctx (Plan.Index_scan { table; alias; index_col; lo; hi; filter })
    schema ~rows ~op_ms ~children:[] ~min_mem:0 ~max_mem:0 ~mem:0

let key_sel ctx keys =
  List.fold_left
    (fun acc (p, b) -> acc *. equijoin_sel ctx ~left:p ~right:b)
    1.0 keys

let join_sel ctx ~keys ~extra = key_sel ctx keys *. sel_opt ctx extra

(* ------------------------------------------------------------------ *)
(* Runtime-filter annotation (sideways information passing).           *)

(* Estimated pass fraction of a filter built from [build_col] applied to
   [probe_col]: by containment, the build side covers at most the smaller
   of distinct(build_col) and build_rows of the probe column's distinct
   values.  Unknown distincts yield 1.0: the filter still runs (its
   observed selectivity is the point) but earns no cost credit.  A
   build-side estimate of under one row is a statistics failure rather
   than a one-distinct-value build; it also earns no credit — crediting
   1/distinct(probe) would hand the deepest discount to exactly the joins
   whose estimates are garbage, letting the optimizer flip a mis-estimated
   subtree onto the build side on the strength of a filter it cannot
   predict (the plan verifier flags the degenerate estimate as
   RF-DEGEN). *)
let rf_est_sel ctx ~build_rows ~build_col ~probe_col =
  if build_rows < 1.0 then 1.0
  else
  match
    ( Selectivity.distinct_of_column ctx.sel_env build_col,
      Selectivity.distinct_of_column ctx.sel_env probe_col )
  with
  | Some db, Some dp when dp >= 1.0 ->
    Float.min 1.0 (Float.min db build_rows /. dp)
  | _ -> 1.0

(* Leaves of the probe subtree whose schema owns the filtered column —
   the sites where the dispatcher will apply the filter. *)
let rf_sites probe ~col =
  let owns (n : Plan.t) =
    match Schema.index_of n.Plan.schema col with
    | (_ : int) -> true
    | exception Not_found -> false
    | exception Schema.Ambiguous _ -> false
  in
  List.rev
    (Plan.fold
       (fun acc (n : Plan.t) ->
          match n.Plan.node with
          | (Plan.Seq_scan { alias; _ } | Plan.Index_scan { alias; _ })
            when owns n -> alias :: acc
          | Plan.Materialized { name; _ } when owns n -> name :: acc
          | _ -> acc)
       [] probe)

let rf_annotations ctx ~with_rf ~build ~probe ~keys =
  if not with_rf then []
  else
    List.filter_map
      (fun (probe_col, build_col) ->
         match rf_sites probe ~col:probe_col with
         | [] -> None
         | sites ->
           Some
             { Plan.rf_build_col = build_col;
               rf_probe_col = probe_col;
               rf_sel =
                 rf_est_sel ctx ~build_rows:build.Plan.est.Plan.rows
                   ~build_col ~probe_col;
               rf_sites = sites })
      keys

let rf_combined_sel rf =
  List.fold_left (fun acc f -> acc *. f.Plan.rf_sel) 1.0 rf

(* Selectivity credited when *costing* the join: only half the predicted
   reduction.  The estimate rides on catalog distinct counts — often stale
   exactly when filters matter — and an over-credited filter would let the
   optimizer chase join orders whose benefit never materializes.  The full
   reduction is still realized at run time; this only damps plan choice. *)
let rf_credit_sel rf = 0.5 +. (0.5 *. rf_combined_sel rf)

(* The join constructors take the join selectivity ([join_sel] of their
   keys and residual) precomputed: the DP evaluates it once per split, not
   once per candidate pair. *)
let price_hash_join ctx ~build ~probe ~keys ~jsel ~mem ~rf =
  let b = build.Plan.est and p = probe.Plan.est in
  let rows = b.Plan.rows *. p.Plan.rows *. jsel in
  (* the join's own work shrinks to the filtered probe cardinality; the
     output estimate does not change (the filter only removes tuples that
     could never join) *)
  let probe_rows_eff = p.Plan.rows *. rf_credit_sel rf in
  let build_pages = Cost_model.pages ~rows:b.Plan.rows ~width:b.Plan.width in
  let probe_pages =
    Cost_model.pages ~rows:probe_rows_eff ~width:p.Plan.width
  in
  let min_mem, max_mem = Cost_model.hash_join_mem ~build_pages in
  let mem = effective_mem ctx ~mem ~max_mem in
  let op_ms dop =
    Cost_model.hash_join_ms ~dop ~build_rows:b.Plan.rows
      ~build_pages ~probe_rows:probe_rows_eff ~probe_pages ~out_rows:rows
      ~mem_pages:mem ~rf:(List.length rf) ~rf_probe_rows:p.Plan.rows
  in
  (* a cross product has no key to partition on *)
  let dop, op_ms = if keys = [] then (1, op_ms 1) else choose_dop ctx op_ms in
  price ~dop ~rows ~op_ms ~children:[ build; probe ] ~min_mem ~max_mem ~mem ()

let build_hash_join ~id ~build ~probe ~keys ~extra ~rf p =
  node_of ~id (Plan.Hash_join { build; probe; keys; extra; rf })
    (Schema.concat probe.Plan.schema build.Plan.schema) p

let mk_hash_join ctx ~build ~probe ~keys ~extra ~jsel ~mem ~with_rf =
  let rf = rf_annotations ctx ~with_rf ~build ~probe ~keys in
  build_hash_join ~id:(fresh_id ctx) ~build ~probe ~keys ~extra ~rf
    (price_hash_join ctx ~build ~probe ~keys ~jsel ~mem ~rf)

(* [jsel] is the key pair's equi-join selectivity, [inner_sel] and
   [extra_sel] those of the inner filter and the residual: all three are
   fixed per split and key, whatever the outer plan. *)
let price_index_nl_join ~outer ~(inner : Stats_env.rel_info) ~jsel
    ~inner_filter ~inner_sel ~extra_sel =
  let o = outer.Plan.est in
  let fetched = o.Plan.rows *. inner.Stats_env.rows *. jsel in
  let rows = fetched *. inner_sel *. extra_sel in
  let op_ms =
    Cost_model.index_nl_join_ms ~outer_rows:o.Plan.rows
      ~fetched:(Float.max 1.0 fetched)
      ~filter_rows:(Cost_model.filter_rows inner_filter ~rows:fetched)
  in
  price ~rows ~op_ms ~children:[ outer ] ~min_mem:0 ~max_mem:0 ~mem:0 ()

let build_index_nl_join ~id ~outer ~table ~alias ~outer_col ~inner_col
    ~inner_filter ~extra ~inner_schema p =
  node_of ~id
    (Plan.Index_nl_join
       { outer; table; alias; outer_col; inner_col; inner_filter; extra })
    (Schema.concat outer.Plan.schema inner_schema) p

let mk_index_nl_join ctx ~outer ~table ~alias ~outer_col ~inner_col
    ~inner_filter ~extra =
  let inner = Stats_env.rel ctx.env ~alias in
  let jsel = equijoin_sel ctx ~left:outer_col ~right:inner_col in
  let inner_sel = sel_opt ctx inner_filter in
  let extra_sel = sel_opt ctx extra in
  build_index_nl_join ~id:(fresh_id ctx) ~outer ~table ~alias ~outer_col
    ~inner_col ~inner_filter ~extra ~inner_schema:inner.Stats_env.rel_schema
    (price_index_nl_join ~outer ~inner ~jsel ~inner_filter ~inner_sel
       ~extra_sel)

let price_block_nl_join ctx ~outer ~inner ~pred_sel ~mem =
  let o = outer.Plan.est and i = inner.Plan.est in
  let rows = o.Plan.rows *. i.Plan.rows *. pred_sel in
  let outer_pages = Cost_model.pages ~rows:o.Plan.rows ~width:o.Plan.width in
  let inner_pages = Cost_model.pages ~rows:i.Plan.rows ~width:i.Plan.width in
  let min_mem, max_mem = Cost_model.block_nl_join_mem ~outer_pages in
  let mem = effective_mem ctx ~mem ~max_mem in
  let op_ms =
    Cost_model.block_nl_join_ms ~outer_rows:o.Plan.rows ~outer_pages
      ~inner_rows:i.Plan.rows ~inner_pages ~out_rows:rows ~mem_pages:mem
  in
  price ~rows ~op_ms ~children:[ outer; inner ] ~min_mem ~max_mem ~mem ()

let build_block_nl_join ~id ~outer ~inner ~pred p =
  node_of ~id (Plan.Block_nl_join { outer; inner; pred })
    (Schema.concat outer.Plan.schema inner.Plan.schema) p

let mk_block_nl_join ctx ~outer ~inner ~pred ~pred_sel ~mem =
  build_block_nl_join ~id:(fresh_id ctx) ~outer ~inner ~pred
    (price_block_nl_join ctx ~outer ~inner ~pred_sel ~mem)

(* A side counts as pre-sorted only when the join has a single key pair and
   the side delivers that key in ascending order; an input ordered by the
   leading column alone is NOT sorted for a multi-key merge. *)
let merge_sorted ~left ~right ~keys =
  let side_sorted plan key = List.mem key (Plan.orders_of plan) in
  match keys with
  | [ (l, r) ] -> (side_sorted left l, side_sorted right r)
  | _ -> (false, false)

(* The left side plays the hash join's build role: its key set filters
   the right side before the right-side sort, so its runtime filters are
   annotated over the keys flipped to (right, left). *)
let merge_rf_keys keys = List.map (fun (l, r) -> (r, l)) keys

let price_merge_join ctx ~left ~right ~jsel ~left_sorted ~right_sorted ~mem
    ~rf =
  let le = left.Plan.est and re = right.Plan.est in
  let rows = le.Plan.rows *. re.Plan.rows *. jsel in
  let right_rows_eff = re.Plan.rows *. rf_credit_sel rf in
  let left_pages = Cost_model.pages ~rows:le.Plan.rows ~width:le.Plan.width in
  let right_pages =
    Cost_model.pages ~rows:right_rows_eff ~width:re.Plan.width
  in
  let min_mem, max_mem = Cost_model.merge_join_mem ~left_pages ~right_pages in
  let mem = effective_mem ctx ~mem ~max_mem in
  let op_ms =
    Cost_model.merge_join_ms ~left_rows:le.Plan.rows ~left_pages
      ~right_rows:right_rows_eff ~right_pages ~out_rows:rows ~mem_pages:mem
      ~left_sorted ~right_sorted ~rf:(List.length rf)
      ~rf_probe_rows:re.Plan.rows
  in
  price ~rows ~op_ms ~children:[ left; right ] ~min_mem ~max_mem ~mem ()

let build_merge_join ~id ~left ~right ~keys ~extra ~left_sorted ~right_sorted
    ~rf p =
  node_of ~id
    (Plan.Merge_join { left; right; keys; extra; left_sorted; right_sorted; rf })
    (Schema.concat left.Plan.schema right.Plan.schema) p

let mk_merge_join ctx ~left ~right ~keys ~extra ~jsel ~left_sorted
    ~right_sorted ~mem ~with_rf =
  let rf =
    rf_annotations ctx ~with_rf ~build:left ~probe:right
      ~keys:(merge_rf_keys keys)
  in
  build_merge_join ~id:(fresh_id ctx) ~left ~right ~keys ~extra ~left_sorted
    ~right_sorted ~rf
    (price_merge_join ctx ~left ~right ~jsel ~left_sorted ~right_sorted ~mem
       ~rf)

let group_count ctx ~input_rows ~group_by =
  match group_by with
  | [] -> 1.0
  | cols ->
    let product =
      List.fold_left
        (fun acc c ->
           match Selectivity.distinct_of_column ctx.sel_env c with
           | Some d -> acc *. Float.max 1.0 d
           | None -> acc *. 100.0)
        1.0 cols
    in
    Float.max 1.0 (Float.min input_rows product)

let mk_aggregate ctx ~input ~group_by ~aggs ~mem =
  let schema =
    Aggregate.output_schema input.Plan.schema ~group_by ~aggs
  in
  let in_est = input.Plan.est in
  let rows = group_count ctx ~input_rows:in_est.Plan.rows ~group_by in
  (* streaming aggregation when the single grouping column arrives in
     order: equal keys adjacent, one pass, no working memory *)
  let pre_sorted =
    match group_by with
    | [ g ] -> List.mem g (Plan.orders_of input)
    | _ -> false
  in
  let group_pages = Cost_model.pages ~rows ~width:(width_of schema) in
  let in_pages =
    Cost_model.pages ~rows:in_est.Plan.rows ~width:in_est.Plan.width
  in
  let min_mem, max_mem =
    if pre_sorted then (0, 0) else Cost_model.aggregate_mem ~group_pages
  in
  let mem = if pre_sorted then 0 else effective_mem ctx ~mem ~max_mem in
  let op_ms dop =
    Cost_model.aggregate_ms ~dop ~in_rows:in_est.Plan.rows
      ~in_pages ~groups:rows ~group_pages ~mem_pages:mem
  in
  (* streaming and ungrouped aggregation stay serial *)
  let dop, op_ms =
    if pre_sorted then
      (1, Cost_model.aggregate_sorted_ms ~in_rows:in_est.Plan.rows
            ~groups:rows)
    else if group_by = [] then (1, op_ms 1)
    else choose_dop ctx op_ms
  in
  mk_node ctx ~dop (Plan.Aggregate { input; group_by; aggs; pre_sorted })
    schema ~rows ~op_ms ~children:[ input ] ~min_mem ~max_mem ~mem

let mk_sort ctx ~input ~keys ~mem =
  let in_est = input.Plan.est in
  let data_pages =
    Cost_model.pages ~rows:in_est.Plan.rows ~width:in_est.Plan.width
  in
  let min_mem, max_mem = Cost_model.sort_mem ~data_pages in
  let mem = effective_mem ctx ~mem ~max_mem in
  let dop, op_ms =
    choose_dop ctx (fun dop ->
        Cost_model.sort_ms ~dop ~rows:in_est.Plan.rows ~data_pages
          ~mem_pages:mem)
  in
  mk_node ctx ~dop (Plan.Sort { input; keys }) input.Plan.schema
    ~rows:in_est.Plan.rows ~op_ms ~children:[ input ] ~min_mem ~max_mem ~mem

let mk_filter ctx ~input ~pred =
  let in_est = input.Plan.est in
  let rows = in_est.Plan.rows *. sel ctx pred in
  let op_ms = Cost_model.cpu_ms ~rows:in_est.Plan.rows in
  mk_node ctx (Plan.Filter { input; pred }) input.Plan.schema ~rows ~op_ms
    ~children:[ input ] ~min_mem:0 ~max_mem:0 ~mem:0

let mk_project ctx ~input ~cols =
  let idxs = List.map (Schema.index_of input.Plan.schema) cols in
  let schema = Schema.project input.Plan.schema idxs in
  let rows = input.Plan.est.Plan.rows in
  let op_ms = Cost_model.cpu_ms ~rows in
  mk_node ctx (Plan.Project { input; cols }) schema ~rows ~op_ms
    ~children:[ input ] ~min_mem:0 ~max_mem:0 ~mem:0

let mk_limit ctx ~input ~n =
  let rows = Float.min (float_of_int n) input.Plan.est.Plan.rows in
  let op_ms = Cost_model.cpu_ms ~rows in
  mk_node ctx (Plan.Limit { input; n }) input.Plan.schema ~rows ~op_ms
    ~children:[ input ] ~min_mem:0 ~max_mem:0 ~mem:0

let mk_collect ctx ~input ~spec ~cid =
  let rows = input.Plan.est.Plan.rows in
  let op_ms = Collector.estimated_cost_ms spec ~rows in
  mk_node ctx (Plan.Collect { input; spec; cid }) input.Plan.schema ~rows
    ~op_ms ~children:[ input ] ~min_mem:0 ~max_mem:0 ~mem:0

(* ------------------------------------------------------------------ *)
(* Conjunct analysis.                                                  *)

type conj_info = {
  expr : Expr.t;
  owners : string list;  (* aliases of relations owning referenced columns *)
}

let alias_owning env col =
  match
    List.find_opt (fun r -> Stats_env.owns r col) (Stats_env.relations env)
  with
  | Some r -> r.Stats_env.alias
  | None -> raise (Planning_error ("unknown column " ^ col))

let conj_info env e =
  let owners =
    List.sort_uniq String.compare
      (List.map (alias_owning env) (Expr.columns e))
  in
  { expr = e; owners }

(* ------------------------------------------------------------------ *)
(* Access paths.                                                       *)

(* Index-usable bounds for [col] within local conjuncts: combined eq/range
   constants. *)
let index_bounds conjs col =
  let lo = ref None and hi = ref None in
  let tighten_lo v incl =
    match !lo with
    | None -> lo := Some (v, incl)
    | Some (v0, _) when Value.compare v v0 > 0 -> lo := Some (v, incl)
    | Some _ -> ()
  in
  let tighten_hi v incl =
    match !hi with
    | None -> hi := Some (v, incl)
    | Some (v0, _) when Value.compare v v0 < 0 -> hi := Some (v, incl)
    | Some _ -> ()
  in
  let used = ref [] in
  List.iter
    (fun conj ->
       match Expr.shape_of conj with
       | Expr.S_col_cmp_const (c, op, v) when c = col ->
         (match op with
          | Expr.Eq -> tighten_lo v true; tighten_hi v true; used := conj :: !used
          | Expr.Lt -> tighten_hi v false; used := conj :: !used
          | Expr.Le -> tighten_hi v true; used := conj :: !used
          | Expr.Gt -> tighten_lo v false; used := conj :: !used
          | Expr.Ge -> tighten_lo v true; used := conj :: !used
          | Expr.Ne -> ())
       | Expr.S_col_between (c, l, h) when c = col ->
         tighten_lo l true;
         tighten_hi h true;
         used := conj :: !used
       | _ -> ())
    conjs;
  (!lo, !hi, !used)

(* All access paths for a relation: sequential scan, index range scans for
   every index with a usable bound, and full index scans on columns whose
   order is interesting further up (they cost more I/O but deliver sorted
   output for merge joins, streaming aggregation or ORDER BY). *)
let access_paths ctx ~(rel : Stats_env.rel_info) ~local ~interesting =
  let filter = match local with [] -> None | l -> Some (Expr.conjoin l) in
  let seq =
    mk_seq_scan ctx ~table:rel.Stats_env.table ~alias:rel.Stats_env.alias
      ~filter ~schema:rel.Stats_env.rel_schema
  in
  ctx.enumerated <- ctx.enumerated + 1;
  let ranged =
    List.filter_map
      (fun col ->
         let lo, hi, used = index_bounds local col in
         if lo = None && hi = None then None
         else begin
           ctx.enumerated <- ctx.enumerated + 1;
           let index_sel = sel ctx (Expr.conjoin used) in
           Some
             (mk_index_scan ctx ~table:rel.Stats_env.table
                ~alias:rel.Stats_env.alias ~index_col:col ~lo ~hi ~filter
                ~schema:rel.Stats_env.rel_schema ~index_sel)
         end)
      rel.Stats_env.indexed_cols
  in
  let ordered =
    List.filter_map
      (fun col ->
         let already =
           List.exists
             (fun (p : Plan.t) -> List.mem col (Plan.orders_of p))
             ranged
         in
         if already || not (List.mem col interesting) then None
         else begin
           ctx.enumerated <- ctx.enumerated + 1;
           Some
             (mk_index_scan ctx ~table:rel.Stats_env.table
                ~alias:rel.Stats_env.alias ~index_col:col ~lo:None ~hi:None
                ~filter ~schema:rel.Stats_env.rel_schema ~index_sel:1.0)
         end)
      rel.Stats_env.indexed_cols
  in
  seq :: (ranged @ ordered)

(* ------------------------------------------------------------------ *)
(* Join enumeration (DP over alias subsets).                           *)

(* [rels] pairs each relation alias with its candidate access paths.  The
   DP keeps, per subset of relations, a small Pareto set: the cheapest plan
   overall plus the cheapest plan delivering each interesting order
   (System R's interesting orders).

   Enumeration is cost-first.  A join's total is its own cost plus its
   children's totals, and no operator costs less than nothing, so the
   children's totals bound a candidate from below before anything about
   it is computed.  Each candidate is (1) skipped when that bound already
   loses to its Pareto set, (2) otherwise priced, and skipped when its
   exact total loses, and (3) built as a plan node only when it enters the
   set.  Whether a total loses is read off the set's cost floors (its
   least total overall and per interesting order), never off its list.
   The floors also skip whole groups of candidates before any of them is
   looked at: an outer entry whose total plus the inner side's floor
   loses (every hash, merge or block candidate it would pair with), and a
   split whose two sides' floors lose together while every outer entry's
   indexed nested-loops bound loses too, before the split's predicate,
   selectivity and index joins are prepared.  Aliases are bits,
   interesting orders are small ints, each entry carries the orders its
   plan delivers.  What depends on one join conjunct only (each
   orientation's selectivity and interesting-order slots) or on one
   relation only (the inner side of an indexed nested-loops join) is
   computed once per call, and whatever else does not depend on the
   particular left/right pair (key orientation, join selectivity) once
   per split.  Candidates are counted and numbered (a skipped one still
   takes its id) in exactly the order the plain build-every-pair
   formulation would, so plans, ids and [plans_enumerated] do not depend
   on these shortcuts. *)

(* A DP entry: a plan and the interesting orders it delivers, as indices
   into the query's interesting-order list. *)
type cand = { plan : Plan.t; orders : int list }

let total (p : Plan.t) = p.Plan.est.Plan.total_ms

let rec has_order o = function
  | [] -> false
  | x :: rest -> Int.equal x o || has_order o rest

(* Is the floor of every order in the list strictly below [ms]?  [floor]
   holds a bucket's per-order floors from [base] on. *)
let rec undercut_orders (floor : float array) base (ms : float) = function
  | [] -> true
  | o :: rest -> floor.(base + o) < ms && undercut_orders floor base ms rest

(* Lower the floor of each order in the list to [p]'s total. *)
let rec lower_floors (floor : float array) base p = function
  | [] -> ()
  | o :: rest ->
    if total p < floor.(base + o) then floor.(base + o) <- total p;
    lower_floors floor base p rest

(* An equi-join conjunct in one orientation, probe/outer column first,
   with what a split reads of it. *)
type oriented = {
  key : string * string;
  key_sel : float;      (* [equijoin_sel] of the ordered pair *)
  left_slot : int;      (* interesting-order slot of each column, or -1 *)
  right_slot : int;
  key_orders : int list;  (* the orders a merge on this key delivers *)
}

let optimize_joins ctx options ~rels ~join_conjs ~complex_conjs ~interesting =
  let n = List.length rels in
  if n > 16 then raise (Planning_error "too many relations (max 16)");
  let alias_bits = Str_tbl.create 16 in
  List.iteri
    (fun i (alias, _) ->
       if not (Str_tbl.mem alias_bits alias) then
         Str_tbl.add alias_bits alias (1 lsl i))
    rels;
  let bit_of alias = Str_tbl.find alias_bits alias in
  let mask_of owners =
    List.fold_left (fun acc a -> acc lor bit_of a) 0 owners
  in
  let full = (1 lsl n) - 1 in
  let slots = Str_tbl.create 16 in
  List.iteri (fun i c -> Str_tbl.replace slots c i) interesting;
  let slot c = Option.value ~default:(-1) (Str_tbl.find_opt slots c) in
  let slots_of cols =
    List.filter_map (fun c -> match slot c with -1 -> None | o -> Some o) cols
  in
  (* Pareto retention: cheapest overall + cheapest provider per order, in
     one pass.  Ties go to the earlier entry; providers are added in
     interesting-order sequence, each in front, the overall cheapest last.
     That output order is not the input order, so under exact cost ties a
     second pass over the result can pick a different tied entry:
     [retained] is not idempotent.  Offering a candidate that loses is
     therefore not a no-op — [retained (c :: old)] keeps what
     [retained old] keeps, in the same order, which need not be [old] —
     and a skipped candidate replays that pass (see [admits]). *)
  let n_orders = List.length interesting in
  let provider = Array.make n_orders None in
  let cheaper (a : cand) (b : cand) = total a.plan < total b.plan in
  let retained = function
    | [] -> []
    | first :: _ as entries ->
      Array.fill provider 0 n_orders None;
      let best = ref first in
      List.iter
        (fun c ->
           if cheaper c !best then best := c;
           List.iter
             (fun o ->
                match provider.(o) with
                | Some p when not (cheaper c p) -> ()
                | _ -> provider.(o) <- Some c)
             c.orders)
        entries;
      Array.fold_left
        (fun keep p ->
           match p with
           | Some c when not (List.memq c keep) -> c :: keep
           | _ -> keep)
        [ !best ] provider
  in
  let buckets = Array.make (full + 1) [] in
  (* [stable.(m)]: bucket [m] has not changed since a replay of [retained]
     gave back the same entries in the same order, so another replay would
     be a no-op *)
  let stable = Array.make (full + 1) false in
  (* The cost floors of bucket [m], recomputed whenever its list changes:
     [floor_all.(m)] is its least total, [floor.(m * n_orders + o)] the
     least total among its entries delivering order [o] (infinity when
     there is none).  Both skip NaN totals, as [total < ms] never holds
     for them, so a candidate of total [ms] loses to the bucket exactly
     when [floor_all.(m) < ms] and [floor.(m * n_orders + o) < ms] for
     each of its orders.  [lower.(m)] is the least total as a bound below
     every entry: NaN when some total is NaN, and then nothing is skipped
     by it.  [retained] keeps the cheapest entry overall and the cheapest
     provider of each order, so a replay never moves a floor of a bucket
     without NaN totals. *)
  let floor_all = Array.make (full + 1) infinity in
  let lower = Array.make (full + 1) infinity in
  let floor = Array.make ((full + 1) * n_orders) infinity in
  (* Bucket [mask] becomes [entries], with their floors. *)
  let set mask entries =
    buckets.(mask) <- entries;
    let base = mask * n_orders in
    Array.fill floor base n_orders infinity;
    floor_all.(mask) <- infinity;
    lower.(mask) <- infinity;
    List.iter
      (fun c ->
         let t = total c.plan in
         if t < floor_all.(mask) then floor_all.(mask) <- t;
         if t < lower.(mask) || Float.is_nan t then lower.(mask) <- t;
         lower_floors floor base c.plan c.orders)
      entries
  in
  let enter mask orders plan =
    set mask (retained ({ plan; orders } :: buckets.(mask)));
    stable.(mask) <- false
  in
  (* A rejected candidate leaves the bucket as retaining it would have:
     one more pass of [retained]. *)
  let replay mask =
    if not stable.(mask) then begin
      let old = buckets.(mask) in
      let again = retained old in
      if List.equal ( == ) again old then stable.(mask) <- true
      else set mask again
    end
  in
  (* Would a candidate of total cost [ms] delivering [orders] survive in
     bucket [mask]?  It is dropped exactly when some entry is strictly
     cheaper and, for each of its orders, some entry delivering that order
     is strictly cheaper too.  A candidate that would be dropped is not
     built, but the bucket still becomes what retaining it would have made
     it. *)
  let admits mask ms orders =
    if
      floor_all.(mask) < ms
      && undercut_orders floor (mask * n_orders) ms orders
    then begin
      replay mask;
      false
    end
    else true
  in
  (* Does bucket [mask] reject every candidate of total [ms] or more that
     delivers at most [orders], however many are offered in a row?  Only
     if it has no NaN total: then rejections never move its floors. *)
  let beaten mask ms orders =
    lower.(mask) < ms && undercut_orders floor (mask * n_orders) ms orders
  in
  (* Every candidate the DP considers is counted and numbered, whether it
     is built, priced or skipped by the bound. *)
  let claim () =
    ctx.enumerated <- ctx.enumerated + 1;
    fresh_id ctx
  in
  (* [k] candidates in a row that bucket [mask] is [beaten] by: counted,
     numbered and replayed as [k] rejections, with nothing looked at. *)
  let pass mask k =
    ctx.enumerated <- ctx.enumerated + k;
    ctx.next_id <- ctx.next_id + k;
    let replays = ref k in
    while !replays > 0 && not stable.(mask) do
      replay mask;
      decr replays
    done
  in
  let with_rf = options.enable_runtime_filters in
  (* The four join candidates.  Each bounds itself by its children's
     totals (added in [price]'s fold order), then by its priced total. *)
  let hash_join mask ~build ~probe ~keys ~extra ~jsel =
    let id = claim () in
    if admits mask (total build +. total probe) [] then begin
      let rf = rf_annotations ctx ~with_rf ~build ~probe ~keys in
      let p = price_hash_join ctx ~build ~probe ~keys ~jsel ~mem:0 ~rf in
      if admits mask p.total_ms [] then
        enter mask [] (build_hash_join ~id ~build ~probe ~keys ~extra ~rf p)
    end
  in
  let merge_join mask ~left ~right ~keys ~rf_keys ~extra ~jsel ~left_sorted
      ~right_sorted ~orders =
    let id = claim () in
    if admits mask (total left +. total right) orders then begin
      let rf =
        rf_annotations ctx ~with_rf ~build:left ~probe:right ~keys:rf_keys
      in
      let p =
        price_merge_join ctx ~left ~right ~jsel ~left_sorted ~right_sorted
          ~mem:0 ~rf
      in
      if admits mask p.total_ms orders then
        enter mask orders
          (build_merge_join ~id ~left ~right ~keys ~extra ~left_sorted
             ~right_sorted ~rf p)
    end
  in
  let block_nl_join mask ~outer ~inner ~pred ~pred_sel =
    let id = claim () in
    if admits mask (total outer +. total inner) [] then begin
      let p = price_block_nl_join ctx ~outer ~inner ~pred_sel ~mem:0 in
      if admits mask p.total_ms [] then
        enter mask [] (build_block_nl_join ~id ~outer ~inner ~pred p)
    end
  in
  let index_nl_join mask ~(left : cand) ~table ~alias ~inner ~outer_col
      ~inner_col ~inner_filter ~extra ~jsel ~inner_sel ~extra_sel =
    let id = claim () in
    let outer = left.plan and orders = left.orders in
    if admits mask (total outer) orders then begin
      let p =
        price_index_nl_join ~outer ~inner ~jsel ~inner_filter ~inner_sel
          ~extra_sel
      in
      if admits mask p.total_ms orders then
        enter mask orders
          (build_index_nl_join ~id ~outer ~table ~alias ~outer_col ~inner_col
             ~inner_filter ~extra ~inner_schema:inner.Stats_env.rel_schema p)
    end
  in
  (* Conjuncts annotated with their owner masks; an equi-join conjunct
     also carries the alias bit of its first column and both of its
     orientations. *)
  let orient l r =
    { key = (l, r);
      key_sel = equijoin_sel ctx ~left:l ~right:r;
      left_slot = slot l;
      right_slot = slot r;
      key_orders = slots_of [ l; r ] }
  in
  let joins =
    List.map
      (fun ci ->
         let eq =
           match Expr.shape_of ci.expr with
           | Expr.S_col_eq_col (a, b) ->
             Some (bit_of (alias_owning ctx.env a), orient a b, orient b a)
           | _ -> None
         in
         ((ci, eq), mask_of ci.owners))
      join_conjs
  in
  let complexes = List.map (fun ci -> (ci, mask_of ci.owners)) complex_conjs in
  (* Conjuncts that become applicable exactly when [mask] is assembled by
     joining [s1] and [s2]: owners span both sides. *)
  let spanning all s1 s2 =
    List.filter_map
      (fun (x, m) ->
         if m land s1 <> 0 && m land s2 <> 0 && m land lnot (s1 lor s2) = 0
         then Some x
         else None)
      all
  in
  (* Singletons: every access path is built and offered. *)
  List.iteri
    (fun i (_, paths) ->
       List.iter
         (fun plan -> enter (1 lsl i) (slots_of (Plan.orders_of plan)) plan)
         paths)
    rels;
  (* Scan parameters of a singleton's relation (any of its access paths). *)
  let scan_info_of s2 =
    match buckets.(s2) with
    | { plan = { Plan.node = Plan.Seq_scan { table; alias; filter }; _ }; _ }
      :: _
    | { plan = { Plan.node = Plan.Index_scan { table; alias; filter; _ }; _ };
        _ }
      :: _ ->
      Some (table, alias, filter)
    | _ -> None
  in
  (* The inner side of an indexed nested-loops join, per singleton (by bit
     index): its scan parameters, statistics and filter selectivity. *)
  let inner_info =
    Array.init n (fun i ->
        if not options.enable_index_join then None
        else
          Option.map
            (fun (table, alias, inner_filter) ->
               let inner = Stats_env.rel ctx.env ~alias in
               (table, alias, inner_filter, inner, sel_opt ctx inner_filter))
            (scan_info_of (1 lsl i)))
  in
  let rec bit_index m = if m = 1 then 0 else 1 + bit_index (m lsr 1) in
  (* Subsets in increasing popcount order: iterating masks ascending works
     because any strict submask is numerically smaller. *)
  for mask = 1 to full do
    if mask land (mask - 1) <> 0 then begin
      (* all ordered splits (s1 = probe/outer side, s2 = build/inner) *)
      let s1 = ref (mask land (mask - 1)) in
      while !s1 > 0 do
        let s1v = !s1 in
        let s2 = mask lxor s1v in
        let lefts = buckets.(s1v) and rights = buckets.(s2) in
        let conns = spanning joins s1v s2 in
        let bushy_ok =
          options.enable_bushy || s2 land (s2 - 1) = 0 (* right singleton *)
        in
        if
          bushy_ok
          && not (List.is_empty lefts || List.is_empty rights
                  || List.is_empty conns)
        then begin
          (* equality keys, probe side first *)
          let oriented =
            List.filter_map
              (fun (_, eq) ->
                 match eq with
                 | Some (a_bit, ab, ba) ->
                   Some (if a_bit land s1v <> 0 then ab else ba)
                 | None -> None)
              conns
          in
          let has_keys = not (List.is_empty oriented) in
          let merges = has_keys && options.enable_merge_join in
          (* what each left/right pair offers: a hash and a merge join on
             the keys (the merge delivering its first key pair's orders),
             or one block nested-loops join without them *)
          let pair_orders =
            match oriented with k :: _ when merges -> k.key_orders | _ -> []
          in
          let per_pair = if merges then 2 else 1 in
          (* indexed nested loops: the inner side must be a single base
             relation with an index on its key column *)
          let inner_side =
            if has_keys && s2 land (s2 - 1) = 0 then inner_info.(bit_index s2)
            else None
          in
          let indexed =
            match inner_side with
            | None -> []
            | Some (_, _, _, inner, _) ->
              List.filter
                (fun { key = _, inner_col; _ } ->
                   List.exists (String.equal inner_col)
                     inner.Stats_env.indexed_cols)
                oriented
          in
          (* The whole split loses unprepared when each pair's children,
             which sum to at least the two sides' floors, lose, and so
             does each indexed nested-loops join's outer entry. *)
          if
            beaten mask (lower.(s1v) +. lower.(s2)) pair_orders
            && (List.is_empty indexed
                || List.for_all
                  (fun (left : cand) ->
                     beaten mask (total left.plan) left.orders)
                  lefts)
          then
            pass mask
              (List.length lefts
               * ((List.length rights * per_pair) + List.length indexed))
          else begin
            let keys = List.map (fun k -> k.key) oriented in
            let residual =
              List.filter_map
                (fun (ci, eq) ->
                   if Option.is_none eq then Some ci.expr else None)
                conns
            in
            let cplx = spanning complexes s1v s2 in
            let extra_list = residual @ List.map (fun ci -> ci.expr) cplx in
            let extra =
              match extra_list with [] -> None | l -> Some (Expr.conjoin l)
            in
            let extra_sel = sel_opt ctx extra in
            let jsel =
              List.fold_left (fun acc k -> acc *. k.key_sel) 1.0 oriented
              *. extra_sel
            in
            (* a merge input is pre-sorted only on a single-pair key *)
            let left_key, right_key =
              match oriented with
              | [ k ] -> (k.left_slot, k.right_slot)
              | _ -> (-1, -1)
            in
            let rf_keys = merge_rf_keys keys in
            (* All of an indexed nested-loops join but the outer plan is
               fixed per split and key: one candidate maker per indexed
               key, applied to every left entry. *)
            let index_joins =
              match inner_side with
              | None -> []
              | Some (table, alias, inner_filter, inner, inner_sel) ->
                List.map
                  (fun { key = (outer_col, inner_col); key_sel = jsel; _ } ->
                     let other_keys =
                       List.filter
                         (fun (o, i) ->
                            not (String.equal o outer_col
                                 && String.equal i inner_col))
                         keys
                     in
                     let extra_all =
                       List.map
                         (fun (o, i) -> Expr.(Cmp (Eq, Col o, Col i)))
                         other_keys
                       @ extra_list
                     in
                     let extra =
                       match extra_all with
                       | [] -> None
                       | l -> Some (Expr.conjoin l)
                     in
                     let extra_sel = sel_opt ctx extra in
                     fun left ->
                       index_nl_join mask ~left ~table ~alias ~inner
                         ~outer_col ~inner_col ~inner_filter ~extra ~jsel
                         ~inner_sel ~extra_sel)
                  indexed
            in
            (* an outer entry's pairs sum to at least its total plus the
               inner side's floor, in either build order *)
            List.iter
              (fun left ->
                 if beaten mask (total left.plan +. lower.(s2)) pair_orders
                 then pass mask (List.length rights * per_pair)
                 else
                   List.iter
                     (fun right ->
                        if has_keys then begin
                          hash_join mask ~build:right.plan ~probe:left.plan
                            ~keys ~extra ~jsel;
                          if merges then
                            merge_join mask ~left:left.plan ~right:right.plan
                              ~keys ~rf_keys ~extra ~jsel
                              ~left_sorted:(has_order left_key left.orders)
                              ~right_sorted:(has_order right_key right.orders)
                              ~orders:pair_orders
                        end
                        else
                          (* connected only through non-equi predicates *)
                          block_nl_join mask ~outer:left.plan
                            ~inner:right.plan ~pred:extra ~pred_sel:extra_sel)
                     rights;
                 List.iter (fun index_join -> index_join left) index_joins)
              lefts
          end
        end;
        s1 := (s1v - 1) land mask
      done;
      (* Cross-product fallback when nothing connected this subset. *)
      if List.is_empty buckets.(mask) then begin
        let s1 = ref (mask land (mask - 1)) in
        while !s1 > 0 do
          let s2 = mask lxor !s1 in
          (match buckets.(!s1), buckets.(s2) with
           | left :: _, right :: _ ->
             let cplx = spanning complexes !s1 s2 in
             let pred =
               match cplx with
               | [] -> None
               | l -> Some (Expr.conjoin (List.map (fun ci -> ci.expr) l))
             in
             block_nl_join mask ~outer:left.plan ~inner:right.plan ~pred
               ~pred_sel:(sel_opt ctx pred)
           | _ -> ());
          s1 := (!s1 - 1) land mask
        done
      end
    end
  done;
  match buckets.(full) with
  | [] -> raise (Planning_error "join enumeration produced no plan")
  | entries -> List.map (fun c -> c.plan) entries

(* ------------------------------------------------------------------ *)
(* Full query planning.                                                *)

let agg_fn_of = function
  | Mqr_sql.Ast.Count -> Aggregate.Count
  | Mqr_sql.Ast.Sum -> Aggregate.Sum
  | Mqr_sql.Ast.Avg -> Aggregate.Avg
  | Mqr_sql.Ast.Min -> Aggregate.Min
  | Mqr_sql.Ast.Max -> Aggregate.Max

let agg_specs (q : Query.t) =
  List.map
    (fun (a : Query.agg) ->
       { Aggregate.fn = agg_fn_of a.Query.fn;
         distinct_arg = a.Query.distinct_arg;
         arg = a.Query.arg;
         out_name = a.Query.out_name })
    q.Query.aggs

let plan_query ctx options (q : Query.t) =
  let infos = List.map (conj_info ctx.env) q.Query.conjuncts in
  let local, rest =
    List.partition (fun ci -> List.length ci.owners <= 1) infos
  in
  let join_conjs, complex_conjs =
    List.partition
      (fun ci ->
         List.length ci.owners = 2
         &&
         match Expr.shape_of ci.expr with
         | Expr.S_col_eq_col _ | Expr.S_col_cmp_col _ -> true
         | _ -> false)
      rest
  in
  (* Interesting orders: join-key columns (merge joins), grouping columns
     (streaming aggregation), and a single ascending ORDER BY column (sort
     elision). *)
  let interesting =
    let join_cols =
      List.concat_map
        (fun ci ->
           match Expr.shape_of ci.expr with
           | Expr.S_col_eq_col (a, b) -> [ a; b ]
           | _ -> [])
        join_conjs
    in
    let order_cols =
      match q.Query.order_by with [ (c, true) ] -> [ c ] | _ -> []
    in
    List.sort_uniq String.compare (join_cols @ q.Query.group_by @ order_cols)
  in
  (* Base access paths with local predicates pushed down. *)
  let rels =
    List.map
      (fun (r : Query.relation) ->
         let rel = Stats_env.rel ctx.env ~alias:r.Query.alias in
         let my_local =
           List.filter_map
             (fun ci ->
                match ci.owners with
                | [ a ] when a = r.Query.alias -> Some ci.expr
                | _ -> None)
             local
         in
         (r.Query.alias, access_paths ctx ~rel ~local:my_local ~interesting))
      q.Query.relations
  in
  let candidates =
    match rels with
    | [ (_, paths) ] -> paths
    | _ -> optimize_joins ctx options ~rels ~join_conjs ~complex_conjs ~interesting
  in
  (* Complete each join candidate with aggregation / projection / ordering
     and keep the cheapest finished plan; a candidate that already delivers
     the needed order skips its sort, one grouped on the grouping column
     aggregates in a streaming pass. *)
  let complete joined =
    let with_agg =
      if q.Query.aggs = [] && q.Query.group_by = [] then joined
      else
        mk_aggregate ctx ~input:joined ~group_by:q.Query.group_by
          ~aggs:(agg_specs q) ~mem:0
    in
    let with_having =
      match q.Query.having with
      | None -> with_agg
      | Some pred -> mk_filter ctx ~input:with_agg ~pred
    in
    (* Sort before projecting: ORDER BY may reference columns that are not
       in the SELECT list, and projection preserves row order. *)
    let with_sort =
      match q.Query.order_by with
      | [] -> with_having
      | [ (c, true) ] when List.mem c (Plan.orders_of with_having) ->
        with_having (* order already delivered: sort elided *)
      | keys -> mk_sort ctx ~input:with_having ~keys ~mem:0
    in
    let with_project =
      if q.Query.aggs = [] && q.Query.group_by = [] then
        mk_project ctx ~input:with_sort ~cols:q.Query.select_cols
      else with_sort
    in
    match q.Query.limit with
    | None -> with_project
    | Some n -> mk_limit ctx ~input:with_project ~n
  in
  match List.map complete candidates with
  | [] -> raise (Planning_error "no plan produced")
  | first :: rest ->
    List.fold_left
      (fun (a : Plan.t) (b : Plan.t) ->
         if b.Plan.est.Plan.total_ms < a.Plan.est.Plan.total_ms then b else a)
      first rest

let optimize ?(options = default_options) ?clock ?model:_ ~env q =
  let ctx =
    make_ctx ~planning_mem:options.planning_mem_pages ~max_dop:options.max_dop
      ~env ()
  in
  let plan = plan_query ctx options q in
  (match clock with
   | Some c -> Sim_clock.charge_optimizer c ~plans:ctx.enumerated
   | None -> ());
  { plan; plans_enumerated = ctx.enumerated }

(* ------------------------------------------------------------------ *)
(* Re-costing an existing structure under improved statistics.         *)

let recost ?(planning_mem = default_options.planning_mem_pages) ?(max_dop = 1)
    ~env plan =
  let ctx = make_ctx ~planning_mem ~max_dop ~env () in
  let rec go (p : Plan.t) =
    let keep_mem = p.Plan.mem in
    let rebuilt =
      match p.Plan.node with
      | Plan.Seq_scan { table; alias; filter } ->
        mk_seq_scan ctx ~table ~alias ~filter ~schema:p.Plan.schema
      | Plan.Index_scan { table; alias; index_col; lo; hi; filter } ->
        let used_sel =
          (* selectivity of the bound constraints alone *)
          let conj_of_bound =
            let col = Expr.Col index_col in
            let lo_e =
              Option.map
                (fun (v, incl) ->
                   Expr.Cmp ((if incl then Expr.Ge else Expr.Gt), col, Expr.Const v))
                lo
            in
            let hi_e =
              Option.map
                (fun (v, incl) ->
                   Expr.Cmp ((if incl then Expr.Le else Expr.Lt), col, Expr.Const v))
                hi
            in
            Expr.conjoin (List.filter_map Fun.id [ lo_e; hi_e ])
          in
          sel ctx conj_of_bound
        in
        mk_index_scan ctx ~table ~alias ~index_col ~lo ~hi ~filter
          ~schema:p.Plan.schema ~index_sel:used_sel
      | Plan.Hash_join { build; probe; keys; extra; rf } ->
        mk_hash_join ctx ~build:(go build) ~probe:(go probe) ~keys ~extra
          ~jsel:(join_sel ctx ~keys ~extra) ~mem:keep_mem ~with_rf:(rf <> [])
      | Plan.Index_nl_join
          { outer; table; alias; outer_col; inner_col; inner_filter; extra } ->
        mk_index_nl_join ctx ~outer:(go outer) ~table ~alias ~outer_col
          ~inner_col ~inner_filter ~extra
      | Plan.Block_nl_join { outer; inner; pred } ->
        mk_block_nl_join ctx ~outer:(go outer) ~inner:(go inner) ~pred
          ~pred_sel:(sel_opt ctx pred) ~mem:keep_mem
      | Plan.Merge_join { left; right; keys; extra; rf; _ } ->
        let left = go left and right = go right in
        let left_sorted, right_sorted = merge_sorted ~left ~right ~keys in
        mk_merge_join ctx ~left ~right ~keys ~extra
          ~jsel:(join_sel ctx ~keys ~extra) ~left_sorted ~right_sorted
          ~mem:keep_mem ~with_rf:(rf <> [])
      | Plan.Aggregate { input; group_by; aggs; _ } ->
        mk_aggregate ctx ~input:(go input) ~group_by ~aggs ~mem:keep_mem
      | Plan.Sort { input; keys } ->
        mk_sort ctx ~input:(go input) ~keys ~mem:keep_mem
      | Plan.Project { input; cols } -> mk_project ctx ~input:(go input) ~cols
      | Plan.Filter { input; pred } -> mk_filter ctx ~input:(go input) ~pred
      | Plan.Limit { input; n } -> mk_limit ctx ~input:(go input) ~n
      | Plan.Collect { input; spec; cid } ->
        mk_collect ctx ~input:(go input) ~spec ~cid
      | Plan.Materialized _ -> p
    in
    { rebuilt with Plan.id = p.Plan.id }
  in
  go plan

(* ------------------------------------------------------------------ *)
(* Calibration of T_opt,estimated (worst case: star join).             *)

let binom n k =
  let k = Int.min k (n - k) in
  if k < 0 then 0.0
  else begin
    let r = ref 1.0 in
    for i = 1 to k do
      r := !r *. float_of_int (n - k + i) /. float_of_int i
    done;
    !r
  end

let estimated_opt_ms ~relations =
  let n = Int.max 1 relations in
  (* Connected subsets of a star of n relations contain the hub; a subset
     of size k admits 2(k-1) ordered connected splits, each costed with up
     to two physical alternatives, plus access-path enumeration. *)
  let count = ref (2.0 *. float_of_int n) in
  for k = 2 to n do
    count := !count +. (binom (n - 1) (k - 1) *. 4.0 *. float_of_int (k - 1))
  done;
  !count *. Sim_clock.opt_per_plan_ms
