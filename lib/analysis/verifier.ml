open Mqr_storage
module Catalog = Mqr_catalog.Catalog
module Expr = Mqr_expr.Expr
module Plan = Mqr_opt.Plan
module Collector = Mqr_exec.Collector
module Aggregate = Mqr_exec.Aggregate

type context = {
  catalog : Catalog.t;
  budget_pages : int option;
  mu : float option;
  bounds : Bounds.env;
}

let context ?budget_pages ?mu catalog =
  { catalog; budget_pages; mu; bounds = Bounds.env catalog }

type mode = Off | Pre | Sanitize

(* ------------------------------------------------------------------ *)
(* Shared helpers.                                                     *)

(* Visit every node with its ancestor chain (nearest first). *)
let iter_with_ancestors f plan =
  let rec go ancestors (p : Plan.t) =
    f ~ancestors p;
    List.iter (go (p :: ancestors)) (Plan.children p)
  in
  go [] plan

let path_of ~ancestors (p : Plan.t) =
  List.rev (Plan.op_name p :: List.map Plan.op_name ancestors)

let col_ty schema col =
  match Schema.index_of schema col with
  | i -> Some (Schema.column schema i).Schema.ty
  | exception Not_found -> None
  | exception Schema.Ambiguous _ -> None

(* Int/Float compare numerically and Date is carried as an integer day
   number, so the three interoperate; everything else must match. *)
let numericish = function
  | Value.TInt | Value.TFloat | Value.TDate -> true
  | Value.TBool | Value.TString -> false

let compatible a b = a = b || (numericish a && numericish b)

let shape_key s =
  List.map
    (fun (c : Schema.column) -> (c.Schema.qualifier, c.Schema.name, c.Schema.ty))
    (Schema.columns s)

let same_shape a b = shape_key a = shape_key b

let schema_to_string s = Fmt.str "%a" Schema.pp s

(* The schema a scan of [table] should deliver.  Temp tables keep their
   original column qualifiers (the heap schema verbatim); base tables are
   re-qualified by the scan alias, as the binder does. *)
let scan_schema ctx ~table ~alias =
  Option.map
    (fun (t : Catalog.table) ->
       let s = Heap_file.schema t.Catalog.heap in
       if t.Catalog.temp then s else Schema.qualify s alias)
    (Catalog.find ctx.catalog table)

(* ------------------------------------------------------------------ *)
(* Pass 1: schema/type dataflow.                                       *)

let schema_pass_name = "schema"

let schema_run ctx plan =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let err ~code ?hint ~node_id ~path msg =
    add (Diagnostic.error ~pass:schema_pass_name ~code ?hint ~node_id ~path msg)
  in
  let check_cols ~what ~node_id ~path schema cols =
    List.iter
      (fun c ->
         if not (Bounds.resolves schema c) then
           err ~code:"SCH-COLREF" ~node_id ~path
             ~hint:"reference a column of this operator's input"
             (Fmt.str "%s references column %s, absent from schema [%s]" what
                c (schema_to_string schema)))
      cols
  in
  let check_expr ~what ~node_id ~path schema e =
    check_cols ~what ~node_id ~path schema (Expr.columns e);
    if Expr.resolvable schema e then
      match Expr.type_of schema e with
      | (_ : Value.ty) -> ()
      | exception _ ->
        err ~code:"SCH-TYPE" ~node_id ~path
          ~hint:"operand types must agree"
          (Fmt.str "%s mixes incompatible operand types" what)
  in
  let check_key_pair ~what ~node_id ~path (s1, n1) (s2, n2) (c1, c2) =
    check_cols ~what:(what ^ " (" ^ n1 ^ " side)") ~node_id ~path s1 [ c1 ];
    check_cols ~what:(what ^ " (" ^ n2 ^ " side)") ~node_id ~path s2 [ c2 ];
    match (col_ty s1 c1, col_ty s2 c2) with
    | Some a, Some b when not (compatible a b) ->
      err ~code:"SCH-TYPE" ~node_id ~path
        ~hint:"join columns must have comparable types"
        (Fmt.str "%s compares %s:%s with %s:%s" what c1
           (Value.ty_to_string a) c2 (Value.ty_to_string b))
    | _ -> ()
  in
  let check_shape ~node_id ~path ~expected (p : Plan.t) =
    if not (same_shape expected p.Plan.schema) then
      err ~code:"SCH-SHAPE" ~node_id ~path
        ~hint:"rebuild the node with the schema its inputs imply"
        (Fmt.str "recorded schema [%s] does not match the inferred [%s]"
           (schema_to_string p.Plan.schema) (schema_to_string expected))
  in
  iter_with_ancestors
    (fun ~ancestors (p : Plan.t) ->
       let node_id = p.Plan.id in
       let path = path_of ~ancestors p in
       match p.Plan.node with
       | Plan.Seq_scan { table; alias; filter } ->
         (match scan_schema ctx ~table ~alias with
          | None ->
            err ~code:"SCH-TABLE" ~node_id ~path
              ~hint:"scan a table known to the catalog or the temp store"
              (Fmt.str "unknown table %s" table)
          | Some expected -> check_shape ~node_id ~path ~expected p);
         Option.iter
           (check_expr ~what:"scan filter" ~node_id ~path p.Plan.schema)
           filter
       | Plan.Index_scan { table; alias; index_col; lo; hi; filter } ->
         (match scan_schema ctx ~table ~alias with
          | None ->
            err ~code:"SCH-TABLE" ~node_id ~path
              ~hint:"scan a table known to the catalog or the temp store"
              (Fmt.str "unknown table %s" table)
          | Some expected -> check_shape ~node_id ~path ~expected p);
         check_cols ~what:"index scan" ~node_id ~path p.Plan.schema
           [ index_col ];
         (match col_ty p.Plan.schema index_col with
          | None -> ()
          | Some ty ->
            List.iter
              (fun bound ->
                 match bound with
                 | Some (v, _) when not (Value.is_null v) ->
                   if not (compatible (Value.type_of v) ty) then
                     err ~code:"SCH-TYPE" ~node_id ~path
                       ~hint:"index bounds must match the key column type"
                       (Fmt.str "index bound %s does not fit %s:%s"
                          (Value.to_string v) index_col
                          (Value.ty_to_string ty))
                 | _ -> ())
              [ lo; hi ]);
         Option.iter
           (check_expr ~what:"scan filter" ~node_id ~path p.Plan.schema)
           filter
       | Plan.Materialized { name; _ } ->
         (match Catalog.find ctx.catalog name with
          | Some t ->
            check_shape ~node_id ~path
              ~expected:(Heap_file.schema t.Catalog.heap) p
          | None ->
            err ~code:"SCH-TEMP" ~node_id ~path
              ~hint:
                "a re-planned remainder may only read intermediates that \
                 were actually materialized"
              (Fmt.str "unknown materialized intermediate %s" name))
       | Plan.Hash_join { build; probe; keys; extra; rf = _ } ->
         let expected = Schema.concat probe.Plan.schema build.Plan.schema in
         check_shape ~node_id ~path ~expected p;
         List.iter
           (fun (pc, bc) ->
              check_key_pair ~what:"hash-join key" ~node_id ~path
                (probe.Plan.schema, "probe") (build.Plan.schema, "build")
                (pc, bc))
           keys;
         Option.iter
           (check_expr ~what:"join residual" ~node_id ~path p.Plan.schema)
           extra
       | Plan.Index_nl_join
           { outer; table; alias; outer_col; inner_col; inner_filter; extra }
         ->
         (match scan_schema ctx ~table ~alias with
          | None ->
            err ~code:"SCH-TABLE" ~node_id ~path
              ~hint:"join against a table known to the catalog"
              (Fmt.str "unknown inner table %s" table)
          | Some inner ->
            let expected = Schema.concat outer.Plan.schema inner in
            check_shape ~node_id ~path ~expected p;
            check_key_pair ~what:"index-nl key" ~node_id ~path
              (outer.Plan.schema, "outer") (inner, "inner")
              (outer_col, inner_col);
            Option.iter
              (check_expr ~what:"inner filter" ~node_id ~path expected)
              inner_filter);
         Option.iter
           (check_expr ~what:"join residual" ~node_id ~path p.Plan.schema)
           extra
       | Plan.Block_nl_join { outer; inner; pred } ->
         let expected = Schema.concat outer.Plan.schema inner.Plan.schema in
         check_shape ~node_id ~path ~expected p;
         Option.iter
           (check_expr ~what:"join predicate" ~node_id ~path p.Plan.schema)
           pred
       | Plan.Merge_join { left; right; keys; extra; _ } ->
         let expected = Schema.concat left.Plan.schema right.Plan.schema in
         check_shape ~node_id ~path ~expected p;
         List.iter
           (fun (lc, rc) ->
              check_key_pair ~what:"merge-join key" ~node_id ~path
                (left.Plan.schema, "left") (right.Plan.schema, "right")
                (lc, rc))
           keys;
         Option.iter
           (check_expr ~what:"join residual" ~node_id ~path p.Plan.schema)
           extra
       | Plan.Aggregate { input; group_by; aggs; _ } ->
         check_cols ~what:"group-by" ~node_id ~path input.Plan.schema group_by;
         List.iter
           (fun (a : Aggregate.spec) ->
              Option.iter
                (check_expr ~what:("aggregate " ^ a.Aggregate.out_name)
                   ~node_id ~path input.Plan.schema)
                a.Aggregate.arg)
           aggs;
         (match
            Aggregate.output_schema input.Plan.schema ~group_by ~aggs
          with
          | expected -> check_shape ~node_id ~path ~expected p
          | exception _ -> () (* the column errors above already fired *))
       | Plan.Filter { input; pred } ->
         check_expr ~what:"filter predicate" ~node_id ~path input.Plan.schema
           pred;
         check_shape ~node_id ~path ~expected:input.Plan.schema p
       | Plan.Sort { input; keys } ->
         check_cols ~what:"sort key" ~node_id ~path input.Plan.schema
           (List.map fst keys);
         check_shape ~node_id ~path ~expected:input.Plan.schema p
       | Plan.Project { input; cols } ->
         check_cols ~what:"projection" ~node_id ~path input.Plan.schema cols;
         (match
            List.map (Schema.index_of input.Plan.schema) cols
          with
          | idxs ->
            check_shape ~node_id ~path
              ~expected:(Schema.project input.Plan.schema idxs) p
          | exception _ -> ())
       | Plan.Limit { input; _ } ->
         check_shape ~node_id ~path ~expected:input.Plan.schema p
       | Plan.Collect { input; _ } ->
         check_shape ~node_id ~path ~expected:input.Plan.schema p)
    plan;
  List.rev !diags

(* ------------------------------------------------------------------ *)
(* Pass 2: annotation lints.                                           *)

let annotation_pass_name = "annotation"

(* The optimizer clamps node cardinalities at 0.05 rows and group counts
   at 1, so monotonicity is checked with an absolute one-row slack on top
   of rounding tolerance. *)
let exceeds out bound = out > (bound *. 1.000001) +. 1.0

let finite f = Float.is_finite f

let annotation_run ctx plan =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  iter_with_ancestors
    (fun ~ancestors (p : Plan.t) ->
       let node_id = p.Plan.id in
       let path = path_of ~ancestors p in
       let { Plan.rows; width; op_ms; total_ms } = p.Plan.est in
       let invalid what v =
         add
           (Diagnostic.error ~pass:annotation_pass_name ~code:"EST-INVALID"
              ~hint:"annotate every operator with finite, non-negative estimates"
              ~node_id ~path
              (Fmt.str "%s estimate is %g" what v))
       in
       if not (finite rows) || rows < 0.0 then invalid "cardinality" rows;
       if not (finite width) || width <= 0.0 then invalid "tuple width" width;
       if not (finite op_ms) || op_ms < 0.0 then invalid "operator cost" op_ms;
       if not (finite total_ms) || total_ms < 0.0 then
         invalid "cumulative cost" total_ms;
       (* A materialized intermediate can genuinely hold zero rows; an
          estimate below the optimizer's own 0.05-row clamp anywhere else
          means a statistics failure upstream. *)
       (match p.Plan.node with
        | Plan.Materialized _ -> ()
        | _ ->
          if finite rows && rows < 0.05 then
            add
              (Diagnostic.warning ~pass:annotation_pass_name ~code:"EST-ZERO"
                 ~hint:"clamp degenerate estimates to at least one row"
                 ~node_id ~path
                 (Fmt.str "degenerate cardinality estimate (%g rows)" rows)));
       (* total_ms should accumulate the children's totals plus op_ms. *)
       let children_total =
         List.fold_left
           (fun acc (c : Plan.t) -> acc +. c.Plan.est.Plan.total_ms)
           0.0 (Plan.children p)
       in
       let expect_total = op_ms +. children_total in
       if
         finite total_ms && finite expect_total
         && Float.abs (total_ms -. expect_total)
            > 0.001 +. (1e-5 *. Float.max 1.0 expect_total)
       then
         add
           (Diagnostic.warning ~pass:annotation_pass_name ~code:"EST-TOTAL"
              ~hint:"re-cost the plan after rewriting it"
              ~node_id ~path
              (Fmt.str
                 "cumulative cost %.3fms differs from op + children = %.3fms"
                 total_ms expect_total));
       (* Cardinality plausibility against the children. *)
       let join_bound ~what bound =
         if finite rows && finite bound && exceeds rows bound then
           add
             (Diagnostic.error ~pass:annotation_pass_name ~code:"EST-JOIN-BOUND"
                ~hint:"a join cannot produce more rows than the product of \
                       its inputs"
                ~node_id ~path
                (Fmt.str "%s estimates %g rows, above its bound %g" what rows
                   bound))
       in
       let mono_bound ~what bound =
         if finite rows && finite bound && exceeds rows bound then
           add
             (Diagnostic.error ~pass:annotation_pass_name ~code:"EST-MONO"
                ~hint:"this operator can only shrink or preserve its input"
                ~node_id ~path
                (Fmt.str "%s estimates %g rows from an input of %g" what rows
                   bound))
       in
       match p.Plan.node with
       | Plan.Hash_join { build; probe; _ } ->
         join_bound ~what:"hash join"
           (build.Plan.est.Plan.rows *. probe.Plan.est.Plan.rows)
       | Plan.Merge_join { left; right; _ } ->
         join_bound ~what:"merge join"
           (left.Plan.est.Plan.rows *. right.Plan.est.Plan.rows)
       | Plan.Block_nl_join { outer; inner; _ } ->
         join_bound ~what:"nested-loops join"
           (outer.Plan.est.Plan.rows *. inner.Plan.est.Plan.rows)
       | Plan.Index_nl_join { outer; table; _ } ->
         (match Catalog.find ctx.catalog table with
          | Some t ->
            join_bound ~what:"index nested-loops join"
              (outer.Plan.est.Plan.rows
               *. Float.max 1.0 (float_of_int t.Catalog.believed_rows))
          | None -> ())
       | Plan.Filter { input; _ } ->
         mono_bound ~what:"filter" input.Plan.est.Plan.rows
       | Plan.Aggregate { input; _ } ->
         mono_bound ~what:"aggregate" input.Plan.est.Plan.rows
       | Plan.Sort { input; _ } ->
         mono_bound ~what:"sort" input.Plan.est.Plan.rows
       | Plan.Project { input; _ } ->
         mono_bound ~what:"project" input.Plan.est.Plan.rows
       | Plan.Limit { input; n } ->
         mono_bound ~what:"limit"
           (Float.min input.Plan.est.Plan.rows (float_of_int n))
       | Plan.Collect { input; _ } ->
         mono_bound ~what:"collector" input.Plan.est.Plan.rows
       | Plan.Seq_scan _ | Plan.Index_scan _ | Plan.Materialized _ -> ())
    plan;
  List.rev !diags

(* ------------------------------------------------------------------ *)
(* Pass 3: SCIA legality.                                              *)

let scia_pass_name = "scia"

let is_aggregate (p : Plan.t) =
  match p.Plan.node with Plan.Aggregate _ -> true | _ -> false

let scia_run ctx plan =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let seen_cids : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let collect_ms = ref 0.0 in
  iter_with_ancestors
    (fun ~ancestors (p : Plan.t) ->
       match p.Plan.node with
       | Plan.Collect { input; spec; cid } ->
         let node_id = p.Plan.id in
         let path = path_of ~ancestors p in
         collect_ms :=
           !collect_ms
           +. Collector.estimated_cost_ms spec ~rows:p.Plan.est.Plan.rows;
         (* Streamed position: the collector examines tuples as they flow
            out of a scan pipeline; anything that blocks, copies or joins
            beneath it makes the observation point illegal (paper
            Section 3.1). *)
         (match input.Plan.node with
          | Plan.Seq_scan _ | Plan.Index_scan _ | Plan.Materialized _ -> ()
          | _ ->
            add
              (Diagnostic.error ~pass:scia_pass_name ~code:"SCIA-POSITION"
                 ~hint:"insert collectors directly above scans, where the \
                        stream is observable without blocking"
                 ~node_id ~path
                 (Fmt.str "collector #%d sits above %s, not a streamed scan"
                    cid (Plan.op_name input))));
         (match Hashtbl.find_opt seen_cids cid with
          | Some other ->
            add
              (Diagnostic.error ~pass:scia_pass_name ~code:"SCIA-DUPCID"
                 ~hint:"collection-point ids must be unique"
                 ~node_id ~path
                 (Fmt.str "collector id %d already used by node #%d" cid
                    other))
          | None -> Hashtbl.replace seen_cids cid node_id);
         List.iter
           (fun c ->
              if not (Bounds.resolves input.Plan.schema c) then
                add
                  (Diagnostic.error ~pass:scia_pass_name ~code:"SCIA-COLS"
                     ~hint:"collect statistics only over columns the input \
                            delivers"
                     ~node_id ~path
                     (Fmt.str "collector #%d tracks %s, absent from its input"
                        cid c)))
           (Collector.spec_columns spec);
         (* A collector whose statistics no operator above can use will
            never pay for itself. *)
         if
           not
             (List.exists (fun a -> Plan.is_join a || is_aggregate a) ancestors)
         then
           add
             (Diagnostic.warning ~pass:scia_pass_name ~code:"SCIA-ORPHAN"
                ~hint:"collect only where a join or aggregate above can \
                       benefit from the statistics"
                ~node_id ~path
                (Fmt.str
                   "collector #%d has no join or aggregate above it to \
                    inform" cid))
       | _ -> ())
    plan;
  (* Total collector CPU against the paper's mu budget.  Estimates shift
     as units execute and the remainder is re-costed, so the lint fires
     only on a gross violation (2x the budget). *)
  (match ctx.mu with
   | Some mu when !collect_ms > 0.0 ->
     let cap = mu *. plan.Plan.est.Plan.total_ms in
     if !collect_ms > (2.0 *. cap) +. 0.5 then
       add
         (Diagnostic.warning ~pass:scia_pass_name ~code:"SCIA-BUDGET"
            ~hint:"drop the least effective collectors to fit the mu budget"
            ~node_id:plan.Plan.id
            ~path:[ Plan.op_name plan ]
            (Fmt.str
               "collectors cost %.2fms against a budget of %.2fms (mu=%g \
                of %.2fms)"
               !collect_ms cap mu plan.Plan.est.Plan.total_ms))
   | _ -> ());
  List.rev !diags

(* ------------------------------------------------------------------ *)
(* Pass 4: resource and lifetime checks.                               *)

let resource_pass_name = "resource"

(* Scan-pipeline leaves of a subtree where the dispatcher can apply a
   runtime filter, with the column each would be matched against. *)
let filter_sites sub ~col =
  Plan.fold
    (fun acc (n : Plan.t) ->
       match n.Plan.node with
       | Plan.Seq_scan { alias; _ } | Plan.Index_scan { alias; _ } ->
         if Bounds.resolves n.Plan.schema col then alias :: acc else acc
       | Plan.Materialized { name; _ } ->
         if Bounds.resolves n.Plan.schema col then name :: acc else acc
       | _ -> acc)
    [] sub

let check_rf ~node_id ~path ~what ~(build : Plan.t) ~(probe : Plan.t) rfs add =
  List.iter
    (fun { Plan.rf_build_col; rf_probe_col; rf_sel; rf_sites } ->
       if not (Float.is_finite rf_sel) || rf_sel <= 0.0 || rf_sel > 1.0 then
         add
           (Diagnostic.error ~pass:resource_pass_name ~code:"RF-SEL"
              ~hint:"estimated filter selectivity must lie in (0, 1]"
              ~node_id ~path
              (Fmt.str "%s filter on %s has selectivity %g" what rf_probe_col
                 rf_sel));
       if not (Bounds.resolves build.Plan.schema rf_build_col) then
         add
           (Diagnostic.warning ~pass:resource_pass_name ~code:"RF-BUILDCOL"
              ~hint:"the build side must deliver the filter's key column \
                     (the dispatcher will skip installing it)"
              ~node_id ~path
              (Fmt.str "%s filter key %s is not in the build-side schema"
                 what rf_build_col));
       (* Lifetime balance: a filter installs when the build side finishes
          and must retire when the probe side of the same unit has run.
          That holds iff every site is a probe-side scan owning the probed
          column — a site elsewhere (or nowhere) would hold its bitmap
          pages past the unit's decision point. *)
       let legal = filter_sites probe ~col:rf_probe_col in
       if rf_sites = [] then
         add
           (Diagnostic.error ~pass:resource_pass_name ~code:"RF-LIFETIME"
              ~hint:"a filter with no site never probes: drop the annotation"
              ~node_id ~path
              (Fmt.str "%s filter on %s has no probe-side site" what
                 rf_probe_col))
       else
         List.iter
           (fun site ->
              if not (List.mem site legal) then
                add
                  (Diagnostic.error ~pass:resource_pass_name ~code:"RF-LIFETIME"
                     ~hint:"filter sites must be probe-side scans owning \
                            the probed column, so the lease retires with \
                            the unit (filter_pages_held returns to 0)"
                     ~node_id ~path
                     (Fmt.str
                        "%s filter site %s is not a probe-side scan owning \
                         %s" what site rf_probe_col)))
           rf_sites;
       (* Satellite: a sub-row build estimate is a statistics failure; the
          optimizer clamps it, but flag the symptom at its source. *)
       if build.Plan.est.Plan.rows < 1.0 then
         add
           (Diagnostic.warning ~pass:resource_pass_name ~code:"RF-DEGEN"
              ~hint:"clamp degenerate build-side estimates to at least one \
                     row before sizing the filter"
              ~node_id ~path
              (Fmt.str
                 "%s filter on %s is sized from a degenerate build estimate \
                  (%g rows)"
                 what rf_probe_col build.Plan.est.Plan.rows)))
    rfs

let resource_run ctx plan =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let granted = ref 0 in
  let min_total = ref 0 in
  let consumers = ref 0 in
  iter_with_ancestors
    (fun ~ancestors (p : Plan.t) ->
       let node_id = p.Plan.id in
       let path = path_of ~ancestors p in
       if Plan.is_memory_consumer p then begin
         incr consumers;
         granted := !granted + max 0 p.Plan.mem;
         min_total := !min_total + max 1 p.Plan.min_mem;
         if p.Plan.min_mem > p.Plan.max_mem then
           add
             (Diagnostic.error ~pass:resource_pass_name ~code:"MEM-RANGE"
                ~hint:"an operator's minimum demand cannot exceed its maximum"
                ~node_id ~path
                (Fmt.str "memory demand min %d > max %d pages" p.Plan.min_mem
                   p.Plan.max_mem));
         if p.Plan.mem < 0 then
           add
             (Diagnostic.error ~pass:resource_pass_name ~code:"MEM-RANGE"
                ~hint:"a grant can never be negative" ~node_id ~path
                (Fmt.str "granted %d pages outside demand [%d, %d]"
                   p.Plan.mem p.Plan.min_mem p.Plan.max_mem));
         (* Over-grants are wasteful but safe (the operator ignores the
            excess) and arise legitimately mid-query: a decision-point
            recost can shrink an operator's declared demand below a grant
            made under the earlier, larger estimate. *)
         if p.Plan.mem > p.Plan.max_mem then
           add
             (Diagnostic.warning ~pass:resource_pass_name ~code:"MEM-RANGE"
                ~hint:"a grant above the maximum demand wastes budget"
                ~node_id ~path
                (Fmt.str "granted %d pages above the maximum demand %d"
                   p.Plan.mem p.Plan.max_mem));
         if p.Plan.mem > 0 && p.Plan.mem < p.Plan.min_mem then
           add
             (Diagnostic.warning ~pass:resource_pass_name ~code:"MEM-RANGE"
                ~hint:"a grant below the minimum demand forces extra passes"
                ~node_id ~path
                (Fmt.str "granted %d pages below the minimum demand %d"
                   p.Plan.mem p.Plan.min_mem))
       end;
       match p.Plan.node with
       | Plan.Hash_join { build; probe; rf; _ } ->
         check_rf ~node_id ~path ~what:"hash-join" ~build ~probe rf add
       | Plan.Merge_join { left; right; rf; _ } ->
         check_rf ~node_id ~path ~what:"merge-join" ~build:left ~probe:right
           rf add
       | _ -> ())
    plan;
  (* The allocator may legally grant every operator its minimum even when
     the budget cannot cover them all, so the budget bound is
     max(budget, sum of minimums). *)
  (match ctx.budget_pages with
   | Some budget when !granted > 0 ->
     let bound = max budget !min_total in
     if !granted > bound then
       add
         (Diagnostic.error ~pass:resource_pass_name ~code:"MEM-BUDGET"
            ~hint:"total grants must fit the memory-manager budget"
            ~node_id:plan.Plan.id
            ~path:[ Plan.op_name plan ]
            (Fmt.str
               "%d pages granted across %d consumers exceed the budget of \
                %d pages"
               !granted !consumers budget))
   | _ -> ());
  List.rev !diags

(* ------------------------------------------------------------------ *)
(* Pass 5: parallel-shape checks.  A plan's [dop] annotations are what
   the dispatcher partitions data by and what the cost model charged
   exchanges for; a degree the executor cannot honour would silently run
   serially while the estimates assumed otherwise. *)

let parallel_pass_name = "parallel"

(* Operators the executor has an exchange implementation for. *)
let exchangeable (p : Plan.t) =
  match p.Plan.node with
  | Plan.Seq_scan _ | Plan.Sort _ -> true
  | Plan.Hash_join { keys; _ } -> keys <> []
  | Plan.Aggregate { group_by; pre_sorted; _ } ->
    (not pre_sorted) && group_by <> []
  | _ -> false

let parallel_run _ctx plan =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  iter_with_ancestors
    (fun ~ancestors (p : Plan.t) ->
       let node_id = p.Plan.id in
       let path = path_of ~ancestors p in
       if p.Plan.dop < 1 then
         add
           (Diagnostic.error ~pass:parallel_pass_name ~code:"PAR-DOP"
              ~hint:"the degree of parallelism is at least 1 (serial)"
              ~node_id ~path
              (Fmt.str "degree of parallelism %d < 1" p.Plan.dop));
       if p.Plan.dop > 1 && not (exchangeable p) then
         add
           (Diagnostic.error ~pass:parallel_pass_name ~code:"PAR-OP"
              ~hint:"only striped scans, keyed hash joins, grouped hash \
                     aggregation and sorts have exchange operators; \
                     everything else must stay serial"
              ~node_id ~path
              (Fmt.str "%s cannot run with dop=%d" (Plan.op_name p)
                 p.Plan.dop));
       (* Each worker receives an even share of the memory grant; a share
          too small to operate forces per-worker spill passes the parallel
          cost estimate never priced. *)
       if p.Plan.dop > 1 && Plan.is_memory_consumer p && p.Plan.mem > 0
       && p.Plan.mem / p.Plan.dop < 2
       then
         add
           (Diagnostic.warning ~pass:parallel_pass_name ~code:"PAR-MEM"
              ~hint:"grant at least two pages per worker or lower the \
                     degree: sub-minimal slices spill on every worker"
              ~node_id ~path
              (Fmt.str
                 "granted %d pages split %d ways leaves workers under two \
                  pages each"
                 p.Plan.mem p.Plan.dop)))
    plan;
  List.rev !diags

(* ------------------------------------------------------------------ *)
(* Pass 6: cardinality-bound abstract interpretation (see {!Bounds}).
   Estimates are opinions; the intervals are proofs — an estimate outside
   its provable interval is working from stale or degraded statistics, a
   worst-case memory demand over the broker budget can spill no matter how
   the grants fall, and a provably-dominated access path can never win.
   All three are warnings: degraded statistics are an operating condition
   this engine is explicitly designed to survive, not a malformed plan.
   The hard-error counterpart (BND-OBSERVED) lives in the dispatcher's
   sanitizer, where an observed cardinality outside its interval falsifies
   the analysis itself. *)

let bounds_pass_name = "bounds"

(* Tolerances mirror [exceeds]: a row of absolute slack plus one part per
   million, so float noise never trips the comparison. *)
let bnd_outside (iv : Bounds.interval) est =
  est > (iv.Bounds.hi *. 1.000001) +. 1.0
  || est < (iv.Bounds.lo *. 0.999999) -. 1.0

(* Worst-case working-memory demand of a consumer, from the provable upper
   bound on its build/sort/group input — [None] when the input is unbounded
   or the operator adapts gracefully (block NL runs in one page). *)
let worst_case_mem b (p : Plan.t) =
  let hi_pages (q : Plan.t) =
    match Bounds.pages b q.Plan.id with
    | Some iv when Float.is_finite iv.Bounds.hi -> Some iv.Bounds.hi
    | _ -> None
  in
  match p.Plan.node with
  | Plan.Hash_join { build; _ } ->
    Option.map
      (fun bp -> snd (Mqr_opt.Cost_model.hash_join_mem ~build_pages:bp))
      (hi_pages build)
  | Plan.Sort { input; _ } ->
    Option.map
      (fun dp -> snd (Mqr_opt.Cost_model.sort_mem ~data_pages:dp))
      (hi_pages input)
  | Plan.Aggregate { pre_sorted = false; group_by = _ :: _; _ } ->
    Option.map
      (fun gp -> snd (Mqr_opt.Cost_model.aggregate_mem ~group_pages:gp))
      (hi_pages p)
  | Plan.Merge_join { left; right; left_sorted; right_sorted; _ }
    when not (left_sorted && right_sorted) ->
    (match (hi_pages left, hi_pages right) with
     | Some l, Some r ->
       Some (snd (Mqr_opt.Cost_model.merge_join_mem ~left_pages:l ~right_pages:r))
     | _ -> None)
  | _ -> None

let bounds_run ctx plan =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let b = Bounds.analyze ctx.bounds plan in
  iter_with_ancestors
    (fun ~ancestors (p : Plan.t) ->
       let node_id = p.Plan.id in
       let path = path_of ~ancestors p in
       (match Bounds.rows b node_id with
        | Some iv when bnd_outside iv p.Plan.est.Plan.rows ->
          add
            (Diagnostic.warning ~pass:bounds_pass_name ~code:"BND-EST"
               ~hint:"the optimizer is working from stale or degraded \
                      statistics; re-run ANALYZE"
               ~node_id ~path
               (Fmt.str "estimated %.0f rows outside the provable interval %a"
                  p.Plan.est.Plan.rows Bounds.pp_interval iv))
        | _ -> ());
       (match (ctx.budget_pages, worst_case_mem b p) with
        | Some budget, Some need when need > budget ->
          add
            (Diagnostic.warning ~pass:bounds_pass_name ~code:"BND-MEM"
               ~hint:"even a full-budget grant can spill; expect extra \
                      passes at this operator"
               ~node_id ~path
               (Fmt.str
                  "worst-case memory demand of %d pages exceeds the broker \
                   budget of %d pages"
                  need budget))
        | _ -> ());
       (match Bounds.dominated_scan ctx.bounds p with
        | Some msg ->
          add
            (Diagnostic.warning ~pass:bounds_pass_name ~code:"BND-DOM"
               ~hint:"the access path is provably beaten at any cardinality \
                      inside the bounds"
               ~node_id ~path msg)
        | None -> ()))
    plan;
  List.rev !diags

(* ------------------------------------------------------------------ *)
(* Driver.                                                             *)

let all_passes =
  [ schema_run; annotation_run; scia_run; resource_run; parallel_run;
    bounds_run ]

let verify ctx plan =
  List.stable_sort Diagnostic.compare
    (List.concat_map (fun run -> run ctx plan) all_passes)

exception Rejected of { what : string; diags : Diagnostic.t list }

let check_exn ~what ctx plan =
  let ds = verify ctx plan in
  (match Diagnostic.errors ds with
   | [] -> ()
   | errs -> raise (Rejected { what; diags = errs }));
  ds

(* Dynamic service-level lifetime check: the per-tenant sum of transient
   pages (bloom bitmaps + worker pool slices, over all the tenant's
   in-flight runs) must be zero whenever the scheduler observes those
   runs from outside a step — the multi-tenant generalization of
   RF-LIFETIME / PAR-LIFETIME. *)
let reject_tenant_pages ~what ~tenant ~pages =
  raise
    (Rejected
       { what;
         diags =
           [ Diagnostic.error ~pass:"service" ~code:"TEN-LIFETIME"
               ~hint:
                 "transient leases must retire before the scheduler observes \
                  the run"
               ~node_id:0 ~path:[ "service" ]
               (Printf.sprintf
                  "tenant %s holds %d transient pages at a decision point"
                  tenant pages) ] })

let () =
  Printexc.register_printer (function
    | Rejected { what; diags } ->
      Some
        (Fmt.str "Plan verification failed (%s):@.%a" what
           Diagnostic.pp_report diags)
    | _ -> None)
