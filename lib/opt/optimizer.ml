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

module Str_tbl = Hashtbl.Make (String)
module Int_tbl = Hashtbl.Make (Int)

(* An equi-join selectivity and the statistics of its two columns it was
   estimated from: [Stats_env.stats_of] of each, compared physically.
   Column statistics and their histograms are immutable, and an override
   installs a new record, so an entry whose records are still the ones
   the environment returns is exactly what estimating afresh would give. *)
type join_sel = {
  left_stats : Mqr_catalog.Column_stats.t option;
  right_stats : Mqr_catalog.Column_stats.t option;
  join_sel : float;
}

type memo = {
  col_ids : int Str_tbl.t;       (* interned column names *)
  join_sels : join_sel Int_tbl.t;  (* per ordered pair of column ids *)
}

let memo () = { col_ids = Str_tbl.create 32; join_sels = Int_tbl.create 32 }

(* One [optimize] or [recost] call.  Its memo is its own unless the
   caller passes one to keep across calls: between calls the dispatcher
   layers observed statistics onto the [Stats_env], and the memo's
   entries check theirs. *)
type ctx = {
  env : Stats_env.t;
  sel_env : Selectivity.env;
  grant : int;  (* the planning memory, at least 2 pages *)
  max_dop : int;
  kept : kept;  (* the columns a join outputs *)
  mutable next_id : int;
  mutable enumerated : int;
  memo : memo;
}

(* A set of columns by qualifier, then bare name: a column is looked up
   without building its qualified name. *)
and kept = unit Str_tbl.t Str_tbl.t

let add_kept (k : kept) ~qualifier ~name =
  let names =
    match Str_tbl.find k qualifier with
    | t -> t
    | exception Not_found ->
      let t = Str_tbl.create 16 in
      Str_tbl.add k qualifier t;
      t
  in
  Str_tbl.replace names name ()

(* [r] is a column reference, ["q.c"] or a bare ["c"]. *)
let add_ref k r =
  let qualifier, name = Schema.split_ref r in
  add_kept k ~qualifier ~name

let keeps ctx (c : Schema.column) =
  match Str_tbl.find ctx.kept c.Schema.qualifier with
  | names -> Str_tbl.mem names c.Schema.name
  | exception Not_found -> false

let make_ctx ?(planning_mem = default_options.planning_mem_pages)
    ?(max_dop = 1) ?memo:(m = memo ()) ~kept ~env () =
  { env;
    sel_env = Stats_env.selectivity_env env;
    grant = Int.max 2 planning_mem;
    max_dop = Int.max 1 max_dop;
    kept;
    next_id = 0;
    enumerated = 0;
    memo = m }

(* Memory assumed when costing: the grant when one exists, otherwise the
   planning assumption capped by the operator's own maximum. *)
let effective_mem ctx ~mem ~max_mem =
  if mem > 0 then mem else Int.min max_mem ctx.grant

let fresh_id ctx =
  let id = ctx.next_id in
  ctx.next_id <- id + 1;
  id

let col_id ctx c =
  let ids = ctx.memo.col_ids in
  match Str_tbl.find ids c with
  | i -> i
  | exception Not_found ->
    let i = Str_tbl.length ids in
    Str_tbl.add ids c i;
    i

let same_stats a b =
  match a, b with
  | None, None -> true
  | Some x, Some y -> x == y
  | _ -> false

(* The histogram estimate walks every bucket pair, and the DP asks for the
   same pair in thousands of splits, the dispatcher at every re-cost.  The
   pair is ordered: the bucket sums run in a different order for (b, a),
   so the float may differ.  The estimate reads nothing but the two
   columns' statistics. *)
let equijoin_sel ctx ~left ~right =
  let key = (col_id ctx left lsl 31) lor col_id ctx right in
  let left_stats = Stats_env.stats_of ctx.env left
  and right_stats = Stats_env.stats_of ctx.env right in
  match Int_tbl.find_opt ctx.memo.join_sels key with
  | Some e
    when same_stats e.left_stats left_stats
         && same_stats e.right_stats right_stats ->
    e.join_sel
  | _ ->
    let join_sel = Selectivity.equijoin_selectivity ctx.sel_env ~left ~right in
    Int_tbl.replace ctx.memo.join_sels key
      { left_stats; right_stats; join_sel };
    join_sel

let sel ctx e =
  Selectivity.selectivity ~equijoin:(equijoin_sel ctx) ctx.sel_env e

let sel_opt ctx = function None -> 1.0 | Some e -> sel ctx e

let width_of schema = float_of_int (Schema.avg_tuple_width schema)

(* The columns of [p] a join above it outputs: those the query block
   reads.  A scan delivers its base rows whole, by position, so this is
   where columns are dropped; a join kept only such columns when it was
   built, the DP's and [recost]'s alike, so it keeps them all. *)
let kept_schema ctx (p : Plan.t) =
  if Plan.is_join p then p.Plan.schema
  else Schema.filter (keeps ctx) p.Plan.schema

(* A join's output schema: its inputs' kept columns, in order. *)
let join_schema ctx a b = Schema.concat (kept_schema ctx a) (kept_schema ctx b)

(* The width [schema] contributes to a join above it: its kept columns'
   widths plus the tuple header. *)
let kept_width ctx schema =
  let w = ref Tuple.header_bytes in
  for i = 0 to Schema.arity schema - 1 do
    let c = Schema.column schema i in
    if keeps ctx c then w := !w + c.Schema.avg_width
  done;
  !w

(* The width of a join of two inputs, from their kept widths: one header. *)
let joined_width a b = a + b - Tuple.header_bytes

(* ------------------------------------------------------------------ *)
(* Node constructors: estimation and costing in one place, so [recost]  *)
(* and the DP build every node by the same code.  Each takes the node's *)
(* id: the DP draws a fresh one, [recost] passes the node's own.  A     *)
(* non-join node is one [mk_*] call.  A join has two functions (below): *)
(* [*_op_ms] prices its own work from its inputs' entries, allocating   *)
(* nothing, and [*_entry] turns the priced join into an entry whose     *)
(* plan node is built on demand; [recost] forces that node at once.     *)

(* Every plan node: its rows floored at 0.05, its schema's width, and a
   total of [op_ms] plus the children's totals, in order. *)
let mk_node ~id ?(dop = 1) node schema ~rows ~op_ms ~children ~min_mem
    ~max_mem ~mem =
  { Plan.id;
    node;
    schema;
    est =
      { Plan.rows = Float.max 0.05 rows;
        width = width_of schema;
        op_ms;
        total_ms =
          List.fold_left
            (fun acc (c : Plan.t) -> acc +. c.Plan.est.Plan.total_ms)
            op_ms children };
    min_mem;
    max_mem;
    mem;
    dop }

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

let mk_seq_scan ctx ~id ~table ~alias ~filter ~schema =
  let r = Stats_env.rel ctx.env ~alias in
  let rows = scan_out_rows ctx ~alias ~filter in
  let filter_rows = Cost_model.filter_rows filter ~rows:r.Stats_env.rows in
  let dop, op_ms =
    choose_dop ctx (fun dop ->
        Cost_model.seq_scan_ms ~dop ~pages:r.Stats_env.pages
          ~rows:r.Stats_env.rows ~filter_rows)
  in
  mk_node ~id ~dop (Plan.Seq_scan { table; alias; filter }) schema ~rows
    ~op_ms ~children:[] ~min_mem:0 ~max_mem:0 ~mem:0

let mk_index_scan ctx ~id ~table ~alias ~index_col ~lo ~hi ~filter ~schema
    ~index_sel =
  let r = Stats_env.rel ctx.env ~alias in
  let rows = scan_out_rows ctx ~alias ~filter in
  let match_rows = Float.max 1.0 (r.Stats_env.rows *. index_sel) in
  let op_ms =
    Cost_model.index_scan_ms ~match_rows
      ~table_pages:r.Stats_env.pages
      ~filter_rows:(Cost_model.filter_rows filter ~rows:match_rows)
  in
  mk_node ~id (Plan.Index_scan { table; alias; index_col; lo; hi; filter })
    schema ~rows ~op_ms ~children:[] ~min_mem:0 ~max_mem:0 ~mem:0

let join_sel ctx ~keys ~extra =
  List.fold_left
    (fun acc (p, b) -> acc *. equijoin_sel ctx ~left:p ~right:b)
    1.0 keys
  *. sel_opt ctx extra

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

(* ------------------------------------------------------------------ *)
(* Joins.  A join is priced from quantities of its inputs, computed     *)
(* once per input ([cand]): the join enumeration makes one when a plan  *)
(* enters its Pareto set, [recost] one per rebuilt child.  Each join    *)
(* method has two functions.  [*_op_ms] prices the join's own work, the *)
(* figure the DP bounds a candidate by; the hash, merge and indexed     *)
(* nested-loops prices are [@inline] down to the Cost_model shapes, so  *)
(* pricing a candidate in the DP's loop boxes no float and builds no    *)
(* closure at [max_dop = 1].  [*_entry] takes the node id, the inputs'  *)
(* entries, the memory and the priced [op_ms], and returns the join's   *)
(* own entry, its plan node built only when a plan above needs it.      *)
(* Both the DP and [recost] build every join through these.  A join     *)
(* outputs only its inputs' kept columns ([join_schema]), so its width, *)
(* and with it the pages and memory demands of every operator above it, *)
(* is the sum of its inputs' kept widths, whatever their own widths:    *)
(* a scan is priced at its full width, a join over it at the kept one.  *)

(* What pricing reads of a plan: its estimates, its pages, and the sort a
   merge join gives it at the planning grant (which is the grant of
   every merge whose inputs could use at least that much). *)
type quant = {
  q_rows : float;
  q_width : float;
  q_pages : float;    (* [Cost_model.pages] of [q_rows] and [q_width] *)
  q_total : float;
  q_sort_ms : float;  (* [Cost_model.merge_sort_ms] at [grant] *)
}

(* A plan with its quantities, the width its kept columns contribute to a
   join above it ([kept_width]; a join's whole schema is kept) and the
   memory demands of building a hash table on it
   ([Cost_model.hash_join_mem]) and of sorting it ([Cost_model.sort_mem]).
   The join enumeration builds an entrant's plan node only when a plan
   that contains it is asked for: most entrants are displaced from their
   set before any join above them is built. *)
type cand = {
  plan : Plan.t Lazy.t;
  q : quant;
  kept_width : int;
  hash_min : int;
  hash_max : int;
  sort_min : int;
  sort_max : int;
}

(* [rows], [width] and [total] are the plan's estimates.  [width] is
   the schema's width for a node the optimizer builds ([mk_node]), but
   not for a [Materialized] leaf, whose estimate is the observed bytes per
   row. *)
let cand_of_est ctx plan ~kept_width ~rows ~width ~total =
  let pages = Cost_model.pages ~rows ~width in
  let hash_min, hash_max = Cost_model.hash_join_mem ~build_pages:pages in
  let sort_min, sort_max = Cost_model.sort_mem ~data_pages:pages in
  { plan;
    q =
      { q_rows = rows;
        q_width = width;
        q_pages = pages;
        q_total = total;
        q_sort_ms =
          Cost_model.merge_sort_ms ~rows ~data_pages:pages
            ~mem_pages:ctx.grant };
    kept_width;
    hash_min;
    hash_max;
    sort_min;
    sort_max }

let cand_of ctx (plan : Plan.t) =
  let e = plan.Plan.est in
  let kept_width =
    if Plan.is_join plan then Schema.avg_tuple_width plan.Plan.schema
    else kept_width ctx plan.Plan.schema
  in
  cand_of_est ctx (Lazy.from_val plan) ~kept_width ~rows:e.Plan.rows
    ~width:e.Plan.width ~total:e.Plan.total_ms

(* The entry of a join whose output estimate is [rows] and whose schema
   is [schema_width] wide: its quantities are those of the node [plan]
   builds ([mk_node] floors the rows and takes the schema's width). *)
let join_entry ctx ~schema_width ~rows ~total plan =
  cand_of_est ctx plan ~kept_width:schema_width ~rows:(Float.max 0.05 rows)
    ~width:(float_of_int schema_width) ~total

(* The rows a hash join's probe (a merge join's right side) feeds the join
   once the runtime filters [rf] have dropped what they are credited with,
   and their pages: without filters, the side's own. *)
let[@inline] filtered_rows (q : quant) rf =
  match rf with [] -> q.q_rows | _ -> q.q_rows *. rf_credit_sel rf

let[@inline] filtered_pages (q : quant) rf ~rows =
  match rf with [] -> q.q_pages | _ -> Cost_model.pages ~rows ~width:q.q_width

(* The callers compute a join's output estimate [out_rows] from the join
   selectivity ([join_sel] of its keys and residual), which the DP
   evaluates once per split, not once per candidate pair; [mem] is the
   join's memory, the grant already applied. *)

let[@inline] hash_join_at ~dop ~(build : cand) ~(probe : cand) ~rf ~out_rows
    ~mem =
  let probe_rows = filtered_rows probe.q rf in
  (* the join's own work shrinks to the filtered probe cardinality; the
     output estimate does not change (the filter only removes tuples that
     could never join) *)
  Cost_model.hash_join_ms ~dop ~build_rows:build.q.q_rows
    ~build_pages:build.q.q_pages ~probe_rows
    ~probe_pages:(filtered_pages probe.q rf ~rows:probe_rows)
    ~out_rows ~mem_pages:mem ~rf:(List.length rf)
    ~rf_probe_rows:probe.q.q_rows

(* A cross product has no key to partition on. *)
let[@inline] hash_join_serial ctx ~keys =
  ctx.max_dop = 1 || List.is_empty keys

let hash_join_par ctx ~build ~probe ~rf ~out_rows ~mem =
  choose_dop ctx (fun dop ->
      hash_join_at ~dop ~build ~probe ~rf ~out_rows ~mem)

let[@inline] hash_join_op_ms ctx ~build ~probe ~keys ~rf ~out_rows ~mem =
  if hash_join_serial ctx ~keys then
    hash_join_at ~dop:1 ~build ~probe ~rf ~out_rows ~mem
  else snd (hash_join_par ctx ~build ~probe ~rf ~out_rows ~mem)

let hash_join_entry ctx ~id ~(build : cand) ~(probe : cand) ~keys ~extra ~rf
    ~out_rows ~mem ~op_ms =
  join_entry ctx ~rows:out_rows
    ~total:(op_ms +. build.q.q_total +. probe.q.q_total)
    ~schema_width:(joined_width probe.kept_width build.kept_width)
    (lazy
      (let dop =
         if hash_join_serial ctx ~keys then 1
         else fst (hash_join_par ctx ~build ~probe ~rf ~out_rows ~mem)
       in
       let b = Lazy.force build.plan and p = Lazy.force probe.plan in
       mk_node ~id ~dop
         (Plan.Hash_join { build = b; probe = p; keys; extra; rf })
         (join_schema ctx p b) ~rows:out_rows ~op_ms
         ~children:[ b; p ] ~min_mem:build.hash_min ~max_mem:build.hash_max
         ~mem))

(* The inner side of an indexed nested-loops join: a base relation, its
   local filter, that filter's selectivity and the relation's kept width. *)
type inner = {
  rel : Stats_env.rel_info;
  filter : Expr.t option;
  filter_sel : float;
  inner_width : int;
}

let inner_of ctx rel filter =
  { rel;
    filter;
    filter_sel = sel_opt ctx filter;
    inner_width = kept_width ctx rel.Stats_env.rel_schema }

(* The key an indexed nested-loops join probes, with its equi-join
   selectivity, and the residual (every other key pair and non-equi
   conjunct of the split) with its selectivity: all fixed per split and
   key, whatever the outer plan. *)
type index_key = {
  outer_col : string;
  inner_col : string;
  jsel : float;
  extra : Expr.t option;
  extra_sel : float;
}

let[@inline] index_nl_fetched ~(outer : cand) inner k =
  outer.q.q_rows *. inner.rel.Stats_env.rows *. k.jsel

let[@inline] index_nl_join_op_ms ~outer inner k =
  let fetched = index_nl_fetched ~outer inner k in
  Cost_model.index_nl_join_ms ~outer_rows:outer.q.q_rows
    ~fetched:(Float.max 1.0 fetched)
    ~filter_rows:(Cost_model.filter_rows inner.filter ~rows:fetched)

let index_nl_join_entry ctx ~id ~(outer : cand) inner k ~op_ms =
  let rows =
    index_nl_fetched ~outer inner k *. inner.filter_sel *. k.extra_sel
  in
  let inner_schema = inner.rel.Stats_env.rel_schema in
  join_entry ctx ~rows ~total:(op_ms +. outer.q.q_total)
    ~schema_width:(joined_width outer.kept_width inner.inner_width)
    (lazy
      (let o = Lazy.force outer.plan in
       mk_node ~id
         (Plan.Index_nl_join { outer = o; table = inner.rel.Stats_env.table;
             alias = inner.rel.Stats_env.alias; outer_col = k.outer_col;
             inner_col = k.inner_col; inner_filter = inner.filter;
             extra = k.extra })
         (Schema.concat (kept_schema ctx o)
            (Schema.filter (keeps ctx) inner_schema))
         ~rows ~op_ms
         ~children:[ o ] ~min_mem:0 ~max_mem:0 ~mem:0))

let[@inline] block_nl_join_op_ms ~(outer : cand) ~(inner : cand) ~out_rows
    ~mem =
  Cost_model.block_nl_join_ms ~outer_rows:outer.q.q_rows
    ~outer_pages:outer.q.q_pages ~inner_rows:inner.q.q_rows
    ~inner_pages:inner.q.q_pages ~out_rows ~mem_pages:mem

let block_nl_join_entry ctx ~id ~(outer : cand) ~(inner : cand) ~pred
    ~out_rows ~mem ~op_ms =
  join_entry ctx ~rows:out_rows
    ~total:(op_ms +. outer.q.q_total +. inner.q.q_total)
    ~schema_width:(joined_width outer.kept_width inner.kept_width)
    (lazy
      (let min_mem, max_mem =
         Cost_model.block_nl_join_mem ~outer_pages:outer.q.q_pages
       in
       let o = Lazy.force outer.plan and i = Lazy.force inner.plan in
       mk_node ~id (Plan.Block_nl_join { outer = o; inner = i; pred })
         (join_schema ctx o i) ~rows:out_rows ~op_ms
         ~children:[ o; i ] ~min_mem ~max_mem ~mem))

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

(* One merge input's sort: none when it arrives sorted, the input's own
   at the planning grant when the join runs at that grant over the
   input's own rows, priced afresh otherwise. *)
let[@inline] merge_side_ms ctx (c : cand) ~sorted ~own ~rows ~pages ~mem =
  if sorted then 0.0
  else if own && mem = ctx.grant then c.q.q_sort_ms
  else Cost_model.merge_sort_ms ~rows ~data_pages:pages ~mem_pages:mem

(* The most memory a merge join can use: both sorts' demands
   ([Cost_model.merge_join_mem]), the right side's over its filtered
   [right_pages]. *)
let[@inline] merge_join_max_mem ~left ~right ~rf ~right_pages =
  match rf with
  | [] -> left.sort_max + right.sort_max
  | _ -> left.sort_max + snd (Cost_model.sort_mem ~data_pages:right_pages)

let[@inline] merge_join_op_ms ctx ~left ~right ~rf ~out_rows ~mem ~left_sorted
    ~right_sorted =
  let right_rows = filtered_rows right.q rf in
  let right_pages = filtered_pages right.q rf ~rows:right_rows in
  Cost_model.merge_join_of_sorts_ms
    ~left_sort_ms:
      (merge_side_ms ctx left ~sorted:left_sorted ~own:true
         ~rows:left.q.q_rows ~pages:left.q.q_pages ~mem)
    ~right_sort_ms:
      (merge_side_ms ctx right ~sorted:right_sorted ~own:(List.is_empty rf)
         ~rows:right_rows ~pages:right_pages ~mem)
    ~left_rows:left.q.q_rows ~left_pages:left.q.q_pages ~right_rows
    ~right_pages ~out_rows ~rf:(List.length rf) ~rf_probe_rows:right.q.q_rows

let merge_join_entry ctx ~id ~(left : cand) ~(right : cand) ~keys ~extra
    ~left_sorted ~right_sorted ~rf ~out_rows ~mem ~op_ms =
  join_entry ctx ~rows:out_rows
    ~total:(op_ms +. left.q.q_total +. right.q.q_total)
    ~schema_width:(joined_width left.kept_width right.kept_width)
    (lazy
      (let right_min, right_max =
         match rf with
         | [] -> (right.sort_min, right.sort_max)
         | _ ->
           Cost_model.sort_mem
             ~data_pages:
               (filtered_pages right.q rf ~rows:(filtered_rows right.q rf))
       in
       let l = Lazy.force left.plan and r = Lazy.force right.plan in
       mk_node ~id
         (Plan.Merge_join { left = l; right = r; keys; extra; left_sorted;
             right_sorted; rf })
         (join_schema ctx l r) ~rows:out_rows ~op_ms
         ~children:[ l; r ] ~min_mem:(left.sort_min + right_min)
         ~max_mem:(left.sort_max + right_max) ~mem))

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

let mk_aggregate ctx ~id ~input ~group_by ~aggs ~mem =
  let schema =
    Aggregate.output_schema input.Plan.schema ~group_by ~aggs
  in
  let in_est = input.Plan.est in
  let rows = group_count ctx ~input_rows:in_est.Plan.rows ~group_by in
  let group_pages = Cost_model.pages ~rows ~width:(width_of schema) in
  let in_pages =
    Cost_model.pages ~rows:in_est.Plan.rows ~width:in_est.Plan.width
  in
  let min_mem, max_mem = Cost_model.aggregate_mem ~group_pages in
  let mem = effective_mem ctx ~mem ~max_mem in
  let op_ms dop =
    Cost_model.aggregate_ms ~dop ~in_rows:in_est.Plan.rows
      ~in_pages ~groups:rows ~group_pages ~mem_pages:mem
  in
  (* ungrouped aggregation stays serial *)
  let dop, op_ms =
    if group_by = [] then (1, op_ms 1) else choose_dop ctx op_ms
  in
  mk_node ~id ~dop (Plan.Aggregate { input; group_by; aggs })
    schema ~rows ~op_ms ~children:[ input ] ~min_mem ~max_mem ~mem

let mk_sort ctx ~id ~input ~keys ~mem =
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
  mk_node ~id ~dop (Plan.Sort { input; keys }) input.Plan.schema
    ~rows:in_est.Plan.rows ~op_ms ~children:[ input ] ~min_mem ~max_mem ~mem

let mk_filter ctx ~id ~input ~pred =
  let in_est = input.Plan.est in
  let rows = in_est.Plan.rows *. sel ctx pred in
  let op_ms = Cost_model.cpu_ms ~rows:in_est.Plan.rows in
  mk_node ~id (Plan.Filter { input; pred }) input.Plan.schema ~rows ~op_ms
    ~children:[ input ] ~min_mem:0 ~max_mem:0 ~mem:0

let mk_project ~id ~input ~cols =
  let idxs = List.map (Schema.index_of input.Plan.schema) cols in
  let schema = Schema.project input.Plan.schema idxs in
  let rows = input.Plan.est.Plan.rows in
  let op_ms = Cost_model.cpu_ms ~rows in
  mk_node ~id (Plan.Project { input; cols }) schema ~rows ~op_ms
    ~children:[ input ] ~min_mem:0 ~max_mem:0 ~mem:0

let mk_limit ~id ~input ~n =
  let rows = Float.min (float_of_int n) input.Plan.est.Plan.rows in
  let op_ms = Cost_model.cpu_ms ~rows in
  mk_node ~id (Plan.Limit { input; n }) input.Plan.schema ~rows ~op_ms
    ~children:[ input ] ~min_mem:0 ~max_mem:0 ~mem:0

let mk_collect ~id ~input ~spec ~cid =
  let rows = input.Plan.est.Plan.rows in
  let op_ms = Collector.estimated_cost_ms spec ~rows in
  mk_node ~id (Plan.Collect { input; spec; cid }) input.Plan.schema ~rows
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
   output for merge joins). *)
let access_paths ctx ~(rel : Stats_env.rel_info) ~local ~filter ~interesting =
  let seq =
    mk_seq_scan ctx ~id:(fresh_id ctx) ~table:rel.Stats_env.table
      ~alias:rel.Stats_env.alias ~filter ~schema:rel.Stats_env.rel_schema
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
             (mk_index_scan ctx ~id:(fresh_id ctx) ~table:rel.Stats_env.table
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
             (mk_index_scan ctx ~id:(fresh_id ctx) ~table:rel.Stats_env.table
                ~alias:rel.Stats_env.alias ~index_col:col ~lo:None ~hi:None
                ~filter ~schema:rel.Stats_env.rel_schema ~index_sel:1.0)
         end)
      rel.Stats_env.indexed_cols
  in
  seq :: (ranged @ ordered)

(* ------------------------------------------------------------------ *)
(* Join enumeration (DP over alias subsets).                           *)

(* [rels] pairs each relation alias with its candidate access paths.  The
   DP keeps, per subset of relations, a small Pareto set ({!Pareto}): the
   cheapest plan overall plus the cheapest plan delivering each
   interesting order (System R's interesting orders), each entry with the
   quantities its joins are priced from.

   Enumeration is cost-first.  A join's total is its own cost plus its
   children's totals, and no operator costs less than nothing, so the
   children's totals bound a candidate from below before anything about
   it is computed.  Each candidate is (1) skipped when that bound already
   loses to its Pareto set, (2) otherwise priced, and skipped when its
   exact total loses, and (3) kept as an entry when it enters the set,
   its plan node built only when a plan containing it is asked for.  A merge join is bounded once more between (1) and (2): by its
   merge pass, the one term of its price its sorts and filters only add
   to, so the sorts are priced only for a merge that could still enter.
   Whether a total loses is read off the set's cost floors (its least
   total overall and per interesting order).  The floors also skip whole
   groups of candidates before any of them is looked at: an outer entry
   whose total plus the inner side's floor loses (every hash, merge or
   block candidate it would pair with), and a split whose two sides'
   floors lose together while every outer entry's indexed nested-loops
   bound loses too, before the split's predicate, selectivity and index
   joins are prepared; that test reads the split's conjuncts off their
   owner masks, with no list built.  Aliases are bits, interesting
   orders are small ints, each entry carries the orders its plan
   delivers.  What depends on one join conjunct only (each orientation's
   selectivity, interesting-order slots and whether its inner column is
   indexed) or on one relation only (the inner side of an indexed
   nested-loops join) is computed once per call, and whatever else does
   not depend on the particular left/right pair (key orientation, join
   selectivity) once per split.  Candidates are counted and numbered (a
   skipped one still takes its id) in exactly the order the plain
   build-every-pair formulation would, so plans, ids and
   [plans_enumerated] do not depend on these shortcuts. *)

let rec has_order o = function
  | [] -> false
  | x :: rest -> Int.equal x o || has_order o rest

(* An equi-join conjunct in one orientation, probe/outer column first,
   with what a split reads of it. *)
type oriented = {
  key : string * string;
  key_sel : float;      (* [equijoin_sel] of the ordered pair *)
  left_slot : int;      (* interesting-order slot of each column, or -1 *)
  right_slot : int;
  key_orders : int list;  (* the orders a merge on this key delivers *)
  inner_indexed : bool;
  (* the inner column has an index its relation's indexed nested-loops
     joins can probe *)
}

(* A join conjunct with its owner mask; an equi-join conjunct also
   carries the alias bit of its first column and both orientations. *)
type join_conj = {
  ci : conj_info;
  owner_mask : int;
  eq : (int * oriented * oriented) option;
}

(* Do owners [m] span the split of [s1 lor s2]: some on each side, none
   outside? *)
let[@inline] spans m s1 s2 =
  m land s1 <> 0 && m land s2 <> 0 && m land lnot (s1 lor s2) = 0

(* An equality's orientation with its probe/outer column in [s1]. *)
let[@inline] oriented_in s1 (a_bit, ab, ba) = if a_bit land s1 <> 0 then ab else ba

let optimize_joins ctx options ~rels ~join_conjs ~complex_conjs ~interesting =
  let n = List.length rels in
  if n > 16 then raise (Planning_error "too many relations (max 16)");
  let alias_bits = Str_tbl.create 16 in
  List.iteri
    (fun i ((rel : Stats_env.rel_info), _, _) ->
       let alias = rel.Stats_env.alias in
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
  let buckets =
    (* any entry fills the unused slots: every relation has a scan *)
    let _, _, paths = List.hd rels in
    Pareto.create ~buckets:(full + 1) ~n_orders:(List.length interesting)
      ~dummy:(cand_of ctx (List.hd paths))
  in
  let enter mask orders c =
    Pareto.enter buckets mask c ~total:c.q.q_total ~orders
  in
  (* Every candidate the DP considers is counted and numbered, whether it
     is built, priced or skipped by the bound. *)
  let claim () =
    ctx.enumerated <- ctx.enumerated + 1;
    fresh_id ctx
  in
  (* [k] candidates in a row that their bucket does not admit: counted
     and numbered, with nothing looked at. *)
  let pass k =
    ctx.enumerated <- ctx.enumerated + k;
    ctx.next_id <- ctx.next_id + k
  in
  let with_rf = options.enable_runtime_filters in
  (* Runtime filters read the plans of both sides. *)
  let rf_of ~(build : cand) ~(probe : cand) ~keys =
    if with_rf then
      rf_annotations ctx ~with_rf ~build:(Lazy.force build.plan)
        ~probe:(Lazy.force probe.plan) ~keys
    else []
  in
  (* The four join candidates.  Each bounds itself by its children's
     totals (added in [mk_node]'s fold order), then by its priced total,
     and only then builds its entry. *)
  let hash_join mask ~(build : cand) ~(probe : cand) ~keys ~extra ~jsel =
    let id = claim () in
    if Pareto.admits buckets mask (build.q.q_total +. probe.q.q_total) []
    then begin
      let rf = rf_of ~build ~probe ~keys in
      let out_rows = build.q.q_rows *. probe.q.q_rows *. jsel in
      let mem = Int.min build.hash_max ctx.grant in
      let op_ms = hash_join_op_ms ctx ~build ~probe ~keys ~rf ~out_rows ~mem in
      if
        Pareto.admits buckets mask
          (op_ms +. build.q.q_total +. probe.q.q_total)
          []
      then
        enter mask []
          (hash_join_entry ctx ~id ~build ~probe ~keys ~extra ~rf ~out_rows
             ~mem ~op_ms)
    end
  in
  let merge_join mask ~(left : cand) ~(right : cand) ~keys ~rf_keys ~extra
      ~jsel ~left_sorted ~right_sorted ~orders =
    let id = claim () in
    let children = left.q.q_total +. right.q.q_total in
    if Pareto.admits buckets mask children orders then begin
      let rf = rf_of ~build:left ~probe:right ~keys:rf_keys in
      let out_rows = left.q.q_rows *. right.q.q_rows *. jsel in
      let right_rows = filtered_rows right.q rf in
      if
        Pareto.admits buckets mask
          (Cost_model.merge_pass_ms ~left_rows:left.q.q_rows ~right_rows
             ~out_rows
           +. left.q.q_total +. right.q.q_total)
          orders
      then begin
        let right_pages = filtered_pages right.q rf ~rows:right_rows in
        let mem =
          Int.min (merge_join_max_mem ~left ~right ~rf ~right_pages) ctx.grant
        in
        let op_ms =
          merge_join_op_ms ctx ~left ~right ~rf ~out_rows ~mem ~left_sorted
            ~right_sorted
        in
        if
          Pareto.admits buckets mask
            (op_ms +. left.q.q_total +. right.q.q_total)
            orders
        then
          enter mask orders
            (merge_join_entry ctx ~id ~left ~right ~keys ~extra ~left_sorted
               ~right_sorted ~rf ~out_rows ~mem ~op_ms)
      end
    end
  in
  let block_nl_join mask ~(outer : cand) ~(inner : cand) ~pred ~pred_sel =
    let id = claim () in
    if Pareto.admits buckets mask (outer.q.q_total +. inner.q.q_total) []
    then begin
      let out_rows = outer.q.q_rows *. inner.q.q_rows *. pred_sel in
      let mem =
        Int.min
          (Cost_model.block_nl_join_max_mem ~outer_pages:outer.q.q_pages)
          ctx.grant
      in
      let op_ms = block_nl_join_op_ms ~outer ~inner ~out_rows ~mem in
      if
        Pareto.admits buckets mask
          (op_ms +. outer.q.q_total +. inner.q.q_total)
          []
      then
        enter mask []
          (block_nl_join_entry ctx ~id ~outer ~inner ~pred ~out_rows ~mem
             ~op_ms)
    end
  in
  let index_nl_join mask ~(outer : cand) ~orders inner k =
    let id = claim () in
    if Pareto.admits buckets mask outer.q.q_total orders then begin
      let op_ms = index_nl_join_op_ms ~outer inner k in
      if Pareto.admits buckets mask (op_ms +. outer.q.q_total) orders then
        enter mask orders (index_nl_join_entry ctx ~id ~outer inner k ~op_ms)
    end
  in
  (* Singletons: every access path is built and offered. *)
  List.iteri
    (fun i (_, _, paths) ->
       List.iter
         (fun plan ->
            enter (1 lsl i) (slots_of (Plan.orders_of plan)) (cand_of ctx plan))
         paths)
    rels;
  (* The inner side of an indexed nested-loops join, per relation (by bit
     index). *)
  let inner_info =
    Array.of_list
      (List.map
         (fun (rel, filter, _) ->
            if options.enable_index_join then Some (inner_of ctx rel filter)
            else None)
         rels)
  in
  let rec bit_index m = if m = 1 then 0 else 1 + bit_index (m lsr 1) in
  (* An orientation's inner column is owned by the split's other side:
     when that side is one relation, it is the inner of the index join. *)
  let orient l r =
    let inner_indexed =
      match inner_info.(bit_index (bit_of (alias_owning ctx.env r))) with
      | Some inner ->
        List.exists (String.equal r) inner.rel.Stats_env.indexed_cols
      | None -> false
    in
    { key = (l, r);
      key_sel = equijoin_sel ctx ~left:l ~right:r;
      left_slot = slot l;
      right_slot = slot r;
      key_orders = slots_of [ l; r ];
      inner_indexed }
  in
  let joins =
    Array.of_list
      (List.map
         (fun ci ->
            let eq =
              match Expr.shape_of ci.expr with
              | Expr.S_col_eq_col (a, b) ->
                Some (bit_of (alias_owning ctx.env a), orient a b, orient b a)
              | _ -> None
            in
            { ci; owner_mask = mask_of ci.owners; eq })
         join_conjs)
  in
  let complexes =
    Array.of_list (List.map (fun ci -> (ci, mask_of ci.owners)) complex_conjs)
  in
  let n_joins = Array.length joins in
  (* The conjuncts that become applicable exactly when [mask] is assembled
     by joining [s1] and [s2]: owners span both sides. *)
  let spanning_exprs all s1 s2 =
    Array.fold_right
      (fun (ci, m) acc -> if spans m s1 s2 then ci.expr :: acc else acc)
      all []
  in
  (* Subsets in increasing popcount order: iterating masks ascending works
     because any strict submask is numerically smaller. *)
  for mask = 1 to full do
    if mask land (mask - 1) <> 0 then begin
      (* all ordered splits (s1 = probe/outer side, s2 = build/inner) *)
      let s1 = ref (mask land (mask - 1)) in
      while !s1 > 0 do
        let s1v = !s1 in
        let s2 = mask lxor s1v in
        let n_lefts = Pareto.length buckets s1v
        and n_rights = Pareto.length buckets s2 in
        let bushy_ok =
          options.enable_bushy || s2 land (s2 - 1) = 0 (* right singleton *)
        in
        (* the first spanning conjunct, the first spanning equality in
           this orientation, and the equalities whose inner column an
           index join can probe *)
        let connected = ref false and first_key = ref (-1)
        and n_indexed = ref 0 in
        let inner_side =
          if s2 land (s2 - 1) = 0 then inner_info.(bit_index s2) else None
        in
        for j = 0 to n_joins - 1 do
          let jc = joins.(j) in
          if spans jc.owner_mask s1v s2 then begin
            connected := true;
            match jc.eq with
            | Some eq ->
              if !first_key < 0 then first_key := j;
              if (oriented_in s1v eq).inner_indexed && Option.is_some inner_side
              then incr n_indexed
            | None -> ()
          end
        done;
        if bushy_ok && n_lefts > 0 && n_rights > 0 && !connected then begin
          let has_keys = !first_key >= 0 in
          let merges = has_keys && options.enable_merge_join in
          (* what each left/right pair offers: a hash and a merge join on
             the keys (the merge delivering its first key pair's orders),
             or one block nested-loops join without them *)
          let pair_orders =
            if merges then
              match joins.(!first_key).eq with
              | Some eq -> (oriented_in s1v eq).key_orders
              | None -> []
            else []
          in
          let per_pair = if merges then 2 else 1 in
          (* The whole split loses unprepared when each pair's children,
             which sum to at least the two sides' floors, lose, and so
             does each indexed nested-loops join's outer entry. *)
          if
            (not
               (Pareto.admits buckets mask
                  (Pareto.lower buckets s1v +. Pareto.lower buckets s2)
                  pair_orders))
            && (!n_indexed = 0
                ||
                let all = ref true in
                for i = 0 to n_lefts - 1 do
                  if
                    Pareto.admits buckets mask (Pareto.total buckets s1v i)
                      (Pareto.orders buckets s1v i)
                  then all := false
                done;
                !all)
          then pass (n_lefts * ((n_rights * per_pair) + !n_indexed))
          else begin
            (* equality keys, probe side first, and the residual, in
               conjunct order *)
            let oriented = ref [] and residual = ref [] in
            for j = n_joins - 1 downto 0 do
              let jc = joins.(j) in
              if spans jc.owner_mask s1v s2 then
                match jc.eq with
                | Some eq -> oriented := oriented_in s1v eq :: !oriented
                | None -> residual := jc.ci.expr :: !residual
            done;
            let oriented = !oriented in
            let keys = List.map (fun k -> k.key) oriented in
            let extra_list = !residual @ spanning_exprs complexes s1v s2 in
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
            (* the keys an indexed nested-loops join can probe, each
               joined with every left entry *)
            let index_keys =
              if Option.is_none inner_side then []
              else
                List.filter_map
                  (fun { key = (outer_col, inner_col); key_sel = jsel;
                         inner_indexed; _ } ->
                    if not inner_indexed then None
                    else begin
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
                      Some
                        { outer_col; inner_col; jsel; extra;
                          extra_sel = sel_opt ctx extra }
                    end)
                  oriented
            in
            let lower_right = Pareto.lower buckets s2 in
            for i = 0 to n_lefts - 1 do
              let left = Pareto.item buckets s1v i in
              let left_orders = Pareto.orders buckets s1v i in
              (* an outer entry's pairs sum to at least its total plus the
                 inner side's floor, in either build order *)
              if
                not
                  (Pareto.admits buckets mask
                     (left.q.q_total +. lower_right)
                     pair_orders)
              then pass (n_rights * per_pair)
              else
                for j = 0 to n_rights - 1 do
                  let right = Pareto.item buckets s2 j in
                  if has_keys then begin
                    hash_join mask ~build:right ~probe:left ~keys ~extra ~jsel;
                    if merges then
                      merge_join mask ~left ~right ~keys ~rf_keys ~extra ~jsel
                        ~left_sorted:(has_order left_key left_orders)
                        ~right_sorted:
                          (has_order right_key (Pareto.orders buckets s2 j))
                        ~orders:pair_orders
                  end
                  else
                    (* connected only through non-equi predicates *)
                    block_nl_join mask ~outer:left ~inner:right ~pred:extra
                      ~pred_sel:extra_sel
                done;
              match inner_side with
              | Some inner ->
                List.iter
                  (index_nl_join mask ~outer:left ~orders:left_orders inner)
                  index_keys
              | None -> ()
            done
          end
        end;
        s1 := (s1v - 1) land mask
      done;
      (* Cross-product fallback when nothing connected this subset. *)
      if Pareto.is_empty buckets mask then begin
        let s1 = ref (mask land (mask - 1)) in
        while !s1 > 0 do
          let s2 = mask lxor !s1 in
          if
            not (Pareto.is_empty buckets !s1 || Pareto.is_empty buckets s2)
          then begin
            let pred =
              match spanning_exprs complexes !s1 s2 with
              | [] -> None
              | l -> Some (Expr.conjoin l)
            in
            block_nl_join mask ~outer:(Pareto.item buckets !s1 0)
              ~inner:(Pareto.item buckets s2 0) ~pred
              ~pred_sel:(sel_opt ctx pred)
          end;
          s1 := (!s1 - 1) land mask
        done
      end
    end
  done;
  match Pareto.to_list buckets full with
  | [] -> raise (Planning_error "join enumeration produced no plan")
  | entries -> List.map (fun c -> Lazy.force c.plan) entries

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
  (* Interesting orders: join-key columns (merge joins). *)
  let interesting =
    List.sort_uniq String.compare
      (List.concat_map
         (fun ci ->
            match Expr.shape_of ci.expr with
            | Expr.S_col_eq_col (a, b) -> [ a; b ]
            | _ -> [])
         join_conjs)
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
         let filter =
           match my_local with [] -> None | l -> Some (Expr.conjoin l)
         in
         ( rel,
           filter,
           access_paths ctx ~rel ~local:my_local ~filter ~interesting ))
      q.Query.relations
  in
  let candidates =
    match rels with
    | [ (_, _, paths) ] -> paths
    | _ -> optimize_joins ctx options ~rels ~join_conjs ~complex_conjs ~interesting
  in
  (* Complete each join candidate with aggregation / projection / ordering
     and keep the cheapest finished plan. *)
  let complete joined =
    let with_agg =
      if q.Query.aggs = [] && q.Query.group_by = [] then joined
      else
        mk_aggregate ctx ~id:(fresh_id ctx) ~input:joined
          ~group_by:q.Query.group_by ~aggs:(agg_specs q) ~mem:0
    in
    let with_having =
      match q.Query.having with
      | None -> with_agg
      | Some pred -> mk_filter ctx ~id:(fresh_id ctx) ~input:with_agg ~pred
    in
    (* Sort before projecting: ORDER BY may reference columns that are not
       in the SELECT list, and projection preserves row order.  Below a
       projection, ties on the ORDER BY keys break on the SELECT columns,
       in qualified-name order: rows that still tie project to equal rows,
       so the rows a LIMIT keeps do not depend on which other columns the
       plan's joins carry (a replan's joins carry fewer). *)
    let with_sort =
      match q.Query.order_by with
      | [] -> with_having
      | keys ->
        let keys =
          if q.Query.aggs = [] && q.Query.group_by = [] then
            keys
            @ List.filter_map
                (fun c -> if List.mem_assoc c keys then None else Some (c, true))
                (List.sort_uniq String.compare q.Query.select_cols)
          else keys
        in
        mk_sort ctx ~id:(fresh_id ctx) ~input:with_having ~keys ~mem:0
    in
    let with_project =
      if q.Query.aggs = [] && q.Query.group_by = [] then
        mk_project ~id:(fresh_id ctx) ~input:with_sort
          ~cols:q.Query.select_cols
      else with_sort
    in
    match q.Query.limit with
    | None -> with_project
    | Some n -> mk_limit ~id:(fresh_id ctx) ~input:with_project ~n
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
      ~kept:
        (let k = Str_tbl.create 8 in
         List.iter (add_ref k) (Query.needed_columns q);
         k)
      ~env ()
  in
  let plan = plan_query ctx options q in
  (match clock with
   | Some c -> Sim_clock.charge_optimizer c ~plans:ctx.enumerated
   | None -> ());
  { plan; plans_enumerated = ctx.enumerated }

(* ------------------------------------------------------------------ *)
(* Re-costing an existing structure under improved statistics.         *)

(* The columns a plan's joins output.  One query block planned every
   join of a plan the optimizer built, each keeping that block's needed
   columns among its inputs' (a hand-built join keeps them all), so
   [recost] rebuilds each join's schema as it was planned. *)
let plan_columns plan =
  let k = Str_tbl.create 8 in
  Plan.fold
    (fun () (p : Plan.t) ->
       if Plan.is_join p then
         for i = 0 to Schema.arity p.Plan.schema - 1 do
           let c = Schema.column p.Plan.schema i in
           add_kept k ~qualifier:c.Schema.qualifier ~name:c.Schema.name
         done)
    () plan;
  k

let recost ?(planning_mem = default_options.planning_mem_pages) ?(max_dop = 1)
    ?memo ~env plan =
  let ctx =
    make_ctx ~planning_mem ~max_dop ?memo ~kept:(plan_columns plan) ~env ()
  in
  let built (c : cand) = Lazy.force c.plan in
  let rec go (p : Plan.t) =
    let id = p.Plan.id and keep_mem = p.Plan.mem in
    match p.Plan.node with
    | Plan.Seq_scan { table; alias; filter } ->
      mk_seq_scan ctx ~id ~table ~alias ~filter ~schema:p.Plan.schema
    | Plan.Index_scan { table; alias; index_col; lo; hi; filter } ->
      let used_sel =
        (* selectivity of the bound constraints alone *)
        let conj_of_bound =
          let col = Expr.Col index_col in
          let lo_e =
            Option.map
              (fun (v, incl) ->
                 Expr.Cmp
                   ((if incl then Expr.Ge else Expr.Gt), col, Expr.Const v))
              lo
          in
          let hi_e =
            Option.map
              (fun (v, incl) ->
                 Expr.Cmp
                   ((if incl then Expr.Le else Expr.Lt), col, Expr.Const v))
              hi
          in
          Expr.conjoin (List.filter_map Fun.id [ lo_e; hi_e ])
        in
        sel ctx conj_of_bound
      in
      mk_index_scan ctx ~id ~table ~alias ~index_col ~lo ~hi ~filter
        ~schema:p.Plan.schema ~index_sel:used_sel
    | Plan.Hash_join { build; probe; keys; extra; rf } ->
      let build = go build and probe = go probe in
      let rf = rf_annotations ctx ~with_rf:(rf <> []) ~build ~probe ~keys in
      let build = cand_of ctx build and probe = cand_of ctx probe in
      let out_rows =
        build.q.q_rows *. probe.q.q_rows *. join_sel ctx ~keys ~extra
      in
      let mem = effective_mem ctx ~mem:keep_mem ~max_mem:build.hash_max in
      built
        (hash_join_entry ctx ~id ~build ~probe ~keys ~extra ~rf ~out_rows ~mem
           ~op_ms:(hash_join_op_ms ctx ~build ~probe ~keys ~rf ~out_rows ~mem))
    | Plan.Index_nl_join
        { outer; alias; outer_col; inner_col; inner_filter; extra; _ } ->
      let outer = cand_of ctx (go outer) in
      let inner = inner_of ctx (Stats_env.rel ctx.env ~alias) inner_filter in
      let k =
        { outer_col;
          inner_col;
          jsel = equijoin_sel ctx ~left:outer_col ~right:inner_col;
          extra;
          extra_sel = sel_opt ctx extra }
      in
      built
        (index_nl_join_entry ctx ~id ~outer inner k
           ~op_ms:(index_nl_join_op_ms ~outer inner k))
    | Plan.Block_nl_join { outer; inner; pred } ->
      let outer = cand_of ctx (go outer) and inner = cand_of ctx (go inner) in
      let out_rows = outer.q.q_rows *. inner.q.q_rows *. sel_opt ctx pred in
      let mem =
        effective_mem ctx ~mem:keep_mem
          ~max_mem:
            (Cost_model.block_nl_join_max_mem ~outer_pages:outer.q.q_pages)
      in
      built
        (block_nl_join_entry ctx ~id ~outer ~inner ~pred ~out_rows ~mem
           ~op_ms:(block_nl_join_op_ms ~outer ~inner ~out_rows ~mem))
    | Plan.Merge_join { left; right; keys; extra; rf; _ } ->
      let left = go left and right = go right in
      let left_sorted, right_sorted = merge_sorted ~left ~right ~keys in
      let rf =
        rf_annotations ctx ~with_rf:(rf <> []) ~build:left ~probe:right
          ~keys:(merge_rf_keys keys)
      in
      let left = cand_of ctx left and right = cand_of ctx right in
      let out_rows =
        left.q.q_rows *. right.q.q_rows *. join_sel ctx ~keys ~extra
      in
      let right_pages =
        filtered_pages right.q rf ~rows:(filtered_rows right.q rf)
      in
      let mem =
        effective_mem ctx ~mem:keep_mem
          ~max_mem:(merge_join_max_mem ~left ~right ~rf ~right_pages)
      in
      built
        (merge_join_entry ctx ~id ~left ~right ~keys ~extra ~left_sorted
           ~right_sorted ~rf ~out_rows ~mem
           ~op_ms:
             (merge_join_op_ms ctx ~left ~right ~rf ~out_rows ~mem
                ~left_sorted ~right_sorted))
    | Plan.Aggregate { input; group_by; aggs; _ } ->
      mk_aggregate ctx ~id ~input:(go input) ~group_by ~aggs ~mem:keep_mem
    | Plan.Sort { input; keys } ->
      mk_sort ctx ~id ~input:(go input) ~keys ~mem:keep_mem
    | Plan.Project { input; cols } -> mk_project ~id ~input:(go input) ~cols
    | Plan.Filter { input; pred } -> mk_filter ctx ~id ~input:(go input) ~pred
    | Plan.Limit { input; n } -> mk_limit ~id ~input:(go input) ~n
    | Plan.Collect { input; spec; cid } ->
      mk_collect ~id ~input:(go input) ~spec ~cid
    | Plan.Materialized _ -> p
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
