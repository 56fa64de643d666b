open Mqr_storage
module Catalog = Mqr_catalog.Catalog
module Parser = Mqr_sql.Parser
module Query = Mqr_sql.Query
module Optimizer = Mqr_opt.Optimizer
module Stats_env = Mqr_opt.Stats_env
module Plan = Mqr_opt.Plan
module Cost_model = Mqr_opt.Cost_model

(* Fixture: a small star schema — fact(fk1, fk2, v), dim1(k, tag),
   dim2(k, tag) — where dim1 is tiny and dim2 is large. *)
let fixture () =
  let catalog = Catalog.create () in
  let fact_schema =
    Schema.make
      [ Schema.col "fk1" Value.TInt; Schema.col "fk2" Value.TInt;
        Schema.col "v" Value.TInt ]
  in
  let dim_schema =
    Schema.make [ Schema.col "k" Value.TInt; Schema.col "tag" Value.TInt ]
  in
  let fact = Heap_file.create fact_schema in
  for i = 0 to 9_999 do
    Heap_file.append fact
      [| Value.Int (i mod 10); Value.Int (i mod 1000); Value.Int i |]
  done;
  let dim1 = Heap_file.create dim_schema in
  for i = 0 to 9 do
    Heap_file.append dim1 [| Value.Int i; Value.Int (i * 7) |]
  done;
  let dim2_schema =
    Schema.make [ Schema.col "k2" Value.TInt; Schema.col "tag2" Value.TInt ]
  in
  let dim2 = Heap_file.create dim2_schema in
  for i = 0 to 999 do
    Heap_file.append dim2 [| Value.Int i; Value.Int (i mod 13) |]
  done;
  ignore (Catalog.add_table catalog "fact" fact);
  ignore (Catalog.add_table catalog "dim1" dim1);
  ignore (Catalog.add_table catalog "dim2" dim2);
  Catalog.analyze_table ~keys:[] catalog "fact";
  Catalog.analyze_table ~keys:[ "k" ] catalog "dim1";
  Catalog.analyze_table ~keys:[ "k2" ] catalog "dim2";
  ignore (Catalog.create_index catalog ~table:"dim2" ~column:"k2");
  ignore (Catalog.create_index catalog ~table:"fact" ~column:"v");
  catalog

let optimize ?options catalog sql =
  let q = Query.bind catalog (Parser.parse sql) in
  let env = Stats_env.create catalog q.Query.relations in
  Optimizer.optimize ?options ~env q

let test_single_table_plan () =
  let catalog = fixture () in
  let r = optimize catalog "select v from fact where v < 100" in
  Alcotest.(check int) "no joins" 0 (Plan.join_count r.Optimizer.plan);
  Alcotest.(check bool) "enumerated something" true (r.Optimizer.plans_enumerated > 0)

let test_index_scan_chosen_when_selective () =
  let catalog = fixture () in
  let r = optimize catalog "select v from fact where v = 17" in
  let has_index_scan =
    Plan.fold
      (fun acc n -> acc || match n.Plan.node with Plan.Index_scan _ -> true | _ -> false)
      false r.Optimizer.plan
  in
  Alcotest.(check bool) "index scan for point query" true has_index_scan

let test_seq_scan_for_unselective () =
  let catalog = fixture () in
  let r = optimize catalog "select v from fact" in
  let has_index_scan =
    Plan.fold
      (fun acc n -> acc || match n.Plan.node with Plan.Index_scan _ -> true | _ -> false)
      false r.Optimizer.plan
  in
  Alcotest.(check bool) "full scan stays sequential" false has_index_scan

let test_join_build_side_is_smaller () =
  let catalog = fixture () in
  let r = optimize catalog "select tag from fact, dim1 where fact.fk1 = dim1.k" in
  let ok = ref false in
  Plan.fold
    (fun () n ->
       match n.Plan.node with
       | Plan.Hash_join { build; probe; _ } ->
         ok := build.Plan.est.Plan.rows <= probe.Plan.est.Plan.rows
       | _ -> ())
    () r.Optimizer.plan;
  Alcotest.(check bool) "build on smaller side" true !ok

let test_estimates_annotated () =
  let catalog = fixture () in
  let r = optimize catalog "select tag from fact, dim1 where fact.fk1 = dim1.k" in
  List.iter
    (fun (n : Plan.t) ->
       Alcotest.(check bool) "rows positive" true (n.Plan.est.Plan.rows > 0.0);
       Alcotest.(check bool) "total >= op" true
         (n.Plan.est.Plan.total_ms >= n.Plan.est.Plan.op_ms -. 1e-9))
    (Plan.nodes r.Optimizer.plan)

let test_total_cost_accumulates () =
  let catalog = fixture () in
  let r = optimize catalog "select tag from fact, dim1 where fact.fk1 = dim1.k" in
  let root = r.Optimizer.plan in
  let child_total =
    List.fold_left (fun acc (c : Plan.t) -> acc +. c.Plan.est.Plan.total_ms) 0.0
      (Plan.children root)
  in
  Alcotest.(check (float 1e-6)) "root total = children + op"
    (child_total +. root.Plan.est.Plan.op_ms)
    root.Plan.est.Plan.total_ms

let test_join_cardinality_sanity () =
  let catalog = fixture () in
  let r = optimize catalog "select tag from fact, dim1 where fact.fk1 = dim1.k" in
  (* fk join: every fact row matches exactly one dim1 key: expect ~10000 *)
  let rows = r.Optimizer.plan.Plan.est.Plan.rows in
  Alcotest.(check bool) (Printf.sprintf "join rows %.0f ~ 10000" rows) true
    (rows > 3_000.0 && rows < 30_000.0)

let test_three_way_join_order () =
  let catalog = fixture () in
  let r =
    optimize catalog
      "select tag, tag2 from fact, dim1, dim2 \
       where fact.fk1 = dim1.k and fact.fk2 = dim2.k2 and tag = 0"
  in
  Alcotest.(check int) "two joins" 2 (Plan.join_count r.Optimizer.plan)

let test_aggregate_group_estimate_uses_stats () =
  let catalog = fixture () in
  let r =
    optimize catalog "select fk1, count(*) as n from fact group by fk1"
  in
  let agg =
    List.find
      (fun (n : Plan.t) -> match n.Plan.node with Plan.Aggregate _ -> true | _ -> false)
      (Plan.nodes r.Optimizer.plan)
  in
  Alcotest.(check bool)
    (Printf.sprintf "~10 groups, got %.1f" agg.Plan.est.Plan.rows)
    true
    (agg.Plan.est.Plan.rows >= 5.0 && agg.Plan.est.Plan.rows <= 20.0)

let test_recost_preserves_structure_and_ids () =
  let catalog = fixture () in
  let r =
    optimize catalog
      "select tag from fact, dim1 where fact.fk1 = dim1.k and v < 100"
  in
  let q = Query.bind catalog (Parser.parse
    "select tag from fact, dim1 where fact.fk1 = dim1.k and v < 100") in
  let env = Stats_env.create catalog q.Query.relations in
  let r2 = Optimizer.recost ~env r.Optimizer.plan in
  let ids p = List.map (fun (n : Plan.t) -> n.Plan.id) (Plan.nodes p) in
  Alcotest.(check (list int)) "ids preserved" (ids r.Optimizer.plan) (ids r2);
  let ops p = List.map Plan.op_name (Plan.nodes p) in
  Alcotest.(check (list string)) "structure preserved" (ops r.Optimizer.plan) (ops r2)

let test_recost_with_override_changes_estimate () =
  let catalog = fixture () in
  let sql = "select tag from fact, dim1 where fact.fk1 = dim1.k and v < 5000" in
  let q = Query.bind catalog (Parser.parse sql) in
  let env = Stats_env.create catalog q.Query.relations in
  let r = Optimizer.optimize ~env q in
  (* pretend a collector discovered v actually lives far above 5000, so
     the filter keeps almost nothing *)
  let st =
    Mqr_catalog.Column_stats.analyze
      (List.init 10 (fun i -> Value.Int (1_000_000 + i)))
  in
  Stats_env.override env ~column:"fact.v" st;
  let r2 = Optimizer.recost ~env r.Optimizer.plan in
  Alcotest.(check bool) "estimate shrank" true
    (r2.Plan.est.Plan.rows < r.Optimizer.plan.Plan.est.Plan.rows)

(* Every node's id and estimates at full precision, as test/opt_golden.ml
   digests a plan. *)
let estimate_digest plan =
  let buf = Buffer.create 256 in
  List.iter
    (fun (n : Plan.t) ->
       let e = n.Plan.est in
       Printf.bprintf buf "%d %h %h %h %h %d %d %d %d;" n.Plan.id e.Plan.rows
         e.Plan.width e.Plan.op_ms e.Plan.total_ms n.Plan.min_mem
         n.Plan.max_mem n.Plan.mem n.Plan.dop)
    (Plan.nodes plan);
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* A selectivity memo kept across re-costs never serves an estimate from
   statistics that have since been overridden: after the join column's
   statistics change, a re-cost through the kept memo equals one through
   a fresh memo, and differs from the re-cost before the override. *)
let test_recost_memo_sees_override () =
  let catalog = fixture () in
  let sql =
    "select tag2 from fact, dim1, dim2 where fact.fk1 = dim1.k \
     and fact.fk2 = dim2.k2"
  in
  let q = Query.bind catalog (Parser.parse sql) in
  let env = Stats_env.create catalog q.Query.relations in
  let plan = (Optimizer.optimize ~env q).Optimizer.plan in
  let memo = Optimizer.memo () in
  let before = estimate_digest (Optimizer.recost ~memo ~env plan) in
  Alcotest.(check string) "a kept memo = a fresh one" before
    (estimate_digest (Optimizer.recost ~memo ~env plan));
  (* a collector found fact.fk2 holding ten values far from dim2's keys *)
  Stats_env.override env ~column:"fact.fk2"
    (Mqr_catalog.Column_stats.analyze
       (List.init 10 (fun i -> Value.Int (5_000 + i))));
  let kept = estimate_digest (Optimizer.recost ~memo ~env plan) in
  let fresh =
    estimate_digest (Optimizer.recost ~memo:(Optimizer.memo ()) ~env plan)
  in
  Alcotest.(check string) "after the override: kept memo = fresh memo" fresh
    kept;
  Alcotest.(check bool) "the override moved the estimates" true
    (not (String.equal before kept))

(* Re-costing prices a join from its inputs' width estimates: a
   materialized leaf's width is its observed bytes per row, not its
   schema's, and the hash join above it sizes its memory from that. *)
let test_recost_reads_leaf_width () =
  let catalog = fixture () in
  let options =
    { Optimizer.default_options with
      Optimizer.enable_index_join = false;
      enable_merge_join = false }
  in
  let q =
    Query.bind catalog
      (Parser.parse "select tag from fact, dim1 where fact.fk1 = dim1.k")
  in
  let env = Stats_env.create catalog q.Query.relations in
  let plan = (Optimizer.optimize ~options ~env q).Optimizer.plan in
  let widen (b : Plan.t) =
    { b with
      Plan.node =
        Plan.Materialized { name = "t"; covers = Plan.aliases b; bytes = 0 };
      est = { b.Plan.est with Plan.width = 1000.0 *. b.Plan.est.Plan.width } }
  in
  let rec swap (p : Plan.t) =
    match p.Plan.node with
    | Plan.Hash_join ({ build; _ } as j) ->
      { p with Plan.node = Plan.Hash_join { j with build = widen build } }
    | _ -> Plan.with_children p (List.map swap (Plan.children p))
  in
  let recosted = Optimizer.recost ~env (swap plan) in
  match
    List.find_map
      (fun (n : Plan.t) ->
         match n.Plan.node with
         | Plan.Hash_join { build; _ } -> Some (n, build)
         | _ -> None)
      (Plan.nodes recosted)
  with
  | None -> Alcotest.fail "no hash join"
  | Some (j, build) ->
    let e = build.Plan.est in
    let _, max_mem =
      Cost_model.hash_join_mem
        ~build_pages:(Cost_model.pages ~rows:e.Plan.rows ~width:e.Plan.width)
    in
    Alcotest.(check int) "demand from the leaf's width" max_mem j.Plan.max_mem

(* Re-costing a plan under the environment it was planned in changes
   nothing: the DP and [recost] build and price every node by the same
   constructors, so each benchmark query under each option variant of
   test/opt_golden.ml keeps its plan text and every node's id and
   estimates bit for bit.  The dispatcher relies on it: it grants memory
   on the plan SCIA instruments without re-costing it first. *)
let test_recost_in_planning_env_is_identity () =
  let catalog = Mqr_tpcd.Workload.experiment_catalog ~sf:0.005 () in
  let d = Optimizer.default_options in
  let variants =
    [ ("default", d);
      ("rf", { d with Optimizer.enable_runtime_filters = true });
      ("dop4", { d with Optimizer.max_dop = 4 });
      ("no-bushy", { d with Optimizer.enable_bushy = false });
      ("no-merge", { d with Optimizer.enable_merge_join = false });
      ("no-index", { d with Optimizer.enable_index_join = false });
      ("mem8", { d with Optimizer.planning_mem_pages = 8 }) ]
  in
  List.iter
    (fun (q : Mqr_tpcd.Queries.query) ->
       let query = Query.bind catalog (Parser.parse q.Mqr_tpcd.Queries.sql) in
       List.iter
         (fun (name, (options : Optimizer.options)) ->
            let env = Stats_env.create catalog query.Query.relations in
            let plan =
              (Optimizer.optimize ~options ~env query).Optimizer.plan
            in
            let recosted =
              Optimizer.recost
                ~planning_mem:options.Optimizer.planning_mem_pages
                ~max_dop:options.Optimizer.max_dop ~env plan
            in
            let label = q.Mqr_tpcd.Queries.name ^ " " ^ name in
            Alcotest.(check string) (label ^ " plan") (Plan.to_string plan)
              (Plan.to_string recosted);
            Alcotest.(check string) (label ^ " estimates")
              (estimate_digest plan) (estimate_digest recosted))
         variants)
    Mqr_tpcd.Queries.all

let test_planning_error_on_unknown_column () =
  let catalog = fixture () in
  Alcotest.(check bool) "bind rejects unknown col" true
    (try
       ignore (optimize catalog "select nosuch from fact");
       false
     with Query.Bind_error _ -> true)

let test_estimated_opt_ms_monotone () =
  let prev = ref 0.0 in
  for n = 1 to 10 do
    let t = Optimizer.estimated_opt_ms ~relations:n in
    Alcotest.(check bool) "monotone" true (t >= !prev);
    prev := t
  done

let test_options_disable_index_join () =
  let catalog = fixture () in
  let options =
    { Optimizer.default_options with Optimizer.enable_index_join = false }
  in
  let r =
    optimize ~options catalog
      "select tag2 from fact, dim2 where fact.fk2 = dim2.k2 and v = 3"
  in
  let has_inlj =
    Plan.fold
      (fun acc n ->
         acc || match n.Plan.node with Plan.Index_nl_join _ -> true | _ -> false)
      false r.Optimizer.plan
  in
  Alcotest.(check bool) "no INLJ when disabled" false has_inlj

let test_memory_demands_positive () =
  let catalog = fixture () in
  let r = optimize catalog "select tag from fact, dim1 where fact.fk1 = dim1.k" in
  List.iter
    (fun (n : Plan.t) ->
       if Plan.is_memory_consumer n then begin
         Alcotest.(check bool) "min >= 1" true (n.Plan.min_mem >= 1);
         Alcotest.(check bool) "max >= min" true (n.Plan.max_mem >= n.Plan.min_mem)
       end)
    (Plan.nodes r.Optimizer.plan)

let test_cost_model_hash_join_spill_monotone () =
  let cost mem =
    Cost_model.hash_join_ms ~dop:1 ~build_rows:10_000.0
      ~build_pages:100.0 ~probe_rows:10_000.0 ~probe_pages:100.0
      ~out_rows:10_000.0 ~mem_pages:mem ~rf:0 ~rf_probe_rows:10_000.0
  in
  Alcotest.(check bool) "more memory never costs more" true
    (cost 200 <= cost 50 && cost 50 <= cost 4)

(* --- interesting orders --- *)

let test_orders_of_index_scan () =
  let catalog = fixture () in
  let r = optimize catalog "select v from fact where v = 17" in
  let scan =
    List.find
      (fun (n : Plan.t) ->
         match n.Plan.node with Plan.Index_scan _ -> true | _ -> false)
      (Plan.nodes r.Optimizer.plan)
  in
  Alcotest.(check (list string)) "index scan ordered by key" [ "fact.v" ]
    (Plan.orders_of scan)

let test_sort_elided_when_ordered () =
  let catalog = fixture () in
  (* ordering by the indexed column: ORDER BY is never elided, so the plan
     sorts even when an index scan delivers the order *)
  let r = optimize catalog "select v from fact where v < 200 order by v" in
  let has_sort =
    Plan.fold
      (fun acc n -> acc || match n.Plan.node with Plan.Sort _ -> true | _ -> false)
      false r.Optimizer.plan
  in
  Alcotest.(check bool) "sorts" true has_sort;
  Alcotest.(check bool) "root delivers fact.v order" true
    (List.mem "fact.v" (Plan.orders_of r.Optimizer.plan))

let test_merge_join_presorted_flag () =
  let catalog = fixture () in
  (* force merge joins to make the flag observable *)
  let options =
    { Optimizer.default_options with
      Optimizer.enable_index_join = false }
  in
  let r =
    optimize ~options catalog
      "select tag2 from fact, dim2 where fact.fk2 = dim2.k2 order by fk2"
  in
  let flags = ref [] in
  Plan.fold
    (fun () n ->
       match n.Plan.node with
       | Plan.Merge_join { left_sorted; right_sorted; _ } ->
         flags := (left_sorted, right_sorted) :: !flags
       | _ -> ())
    () r.Optimizer.plan;
  (* if the optimizer chose a merge join at all, the pre-sorted flags must
     be consistent with the children's delivered orders *)
  List.iter
    (fun (n : Plan.t) ->
       match n.Plan.node with
       | Plan.Merge_join { left; right; keys = (l, rk) :: _; left_sorted; right_sorted; _ } ->
         Alcotest.(check bool) "left flag consistent" left_sorted
           (List.mem l (Plan.orders_of left));
         Alcotest.(check bool) "right flag consistent" right_sorted
           (List.mem rk (Plan.orders_of right))
       | _ -> ())
    (Plan.nodes r.Optimizer.plan)

let test_orders_survive_collect () =
  (* Collect and Limit preserve order; Hash_join destroys it *)
  let catalog = fixture () in
  let r = optimize catalog "select v from fact where v = 3" in
  let scan = r.Optimizer.plan in
  ignore scan;
  let leaf =
    List.find
      (fun (n : Plan.t) ->
         match n.Plan.node with Plan.Index_scan _ -> true | _ -> false)
      (Plan.nodes r.Optimizer.plan)
  in
  let wrapped =
    { leaf with
      Plan.node =
        Plan.Collect
          { input = leaf; spec = Mqr_exec.Collector.spec (); cid = 0 } }
  in
  Alcotest.(check (list string)) "collect preserves order" [ "fact.v" ]
    (Plan.orders_of wrapped)

(* Random operator quantities: row counts, a width, page counts, a memory
   grant, a degree and two flags. *)
let cost_args_gen =
  let rows = QCheck.Gen.float_bound_inclusive 1e7 in
  let pages = QCheck.Gen.float_bound_inclusive 1e6 in
  QCheck.Gen.(
    triple
      (quad rows rows rows (float_bound_inclusive 1e3))
      (pair pages pages)
      (quad (int_range 0 64) (int_range 1 8) bool bool))

(* The DP skips a join candidate whose children's totals already lose to
   its Pareto set, before pricing it.  That lower bound holds only while
   no join operator's own cost (runtime filters and the parallel split
   included) can be negative or NaN. *)
let prop_children_bound_join_cost =
  QCheck.Test.make ~name:"children's totals bound a join: op costs >= 0"
    ~count:500 (QCheck.make cost_args_gen)
    (fun ((r1, r2, out, width), (p1, p2), (mem_pages, dop, ls, rs)) ->
       let ok ms = Float.is_finite ms && ms >= 0.0 in
       List.for_all
         (fun (p1, p2) ->
            List.for_all ok
              [ Cost_model.hash_join_ms ~dop ~build_rows:r1 ~build_pages:p1
                  ~probe_rows:r2 ~probe_pages:p2 ~out_rows:out ~mem_pages
                  ~rf:2 ~rf_probe_rows:r2;
                Cost_model.merge_join_ms ~left_rows:r1 ~left_pages:p1
                  ~right_rows:r2 ~right_pages:p2 ~out_rows:out ~mem_pages
                  ~left_sorted:ls ~right_sorted:rs ~rf:2 ~rf_probe_rows:r2;
                Cost_model.index_nl_join_ms ~outer_rows:r1 ~fetched:out
                  ~filter_rows:out;
                Cost_model.block_nl_join_ms ~outer_rows:r1 ~outer_pages:p1
                  ~inner_rows:r2 ~inner_pages:p2 ~out_rows:out ~mem_pages ])
         [ (p1, p2);
           (Cost_model.pages ~rows:r1 ~width, Cost_model.pages ~rows:r2 ~width) ])

(* The merge pass bounds a merge join's price from below, whatever the
   grant, the sides' order and the filters: the join enumeration rejects
   a merge on it before pricing the sorts. *)
let prop_merge_pass_bounds_merge =
  QCheck.Test.make ~name:"merge pass <= merge join price" ~count:500
    (QCheck.make cost_args_gen)
    (fun ((r1, r2, out, width), (p1, p2), (mem_pages, _, ls, rs)) ->
       List.for_all
         (fun ((p1, p2), rf) ->
            Cost_model.merge_pass_ms ~left_rows:r1 ~right_rows:r2 ~out_rows:out
            <= Cost_model.merge_join_ms ~left_rows:r1 ~left_pages:p1
                 ~right_rows:r2 ~right_pages:p2 ~out_rows:out ~mem_pages
                 ~left_sorted:ls ~right_sorted:rs ~rf ~rf_probe_rows:r2)
         [ ((p1, p2), 0);
           ((p1, p2), 2);
           ((Cost_model.pages ~rows:r1 ~width,
             Cost_model.pages ~rows:r2 ~width), 1) ])

(* The list-based retention {!Pareto} is held to: a list per bucket that
   one retention pass rebuilds on every entrant, floors recomputed from
   the list whenever it changes, and a rejection that leaves the list as
   it was. *)
module Pareto_ref = struct
  type cand = { id : int; total : float; orders : int list }

  let total c = c.total

  let rec undercut_orders (floor : float array) base (ms : float) = function
    | [] -> true
    | o :: rest -> floor.(base + o) < ms && undercut_orders floor base ms rest

  let rec lower_floors (floor : float array) base p = function
    | [] -> ()
    | o :: rest ->
      if total p < floor.(base + o) then floor.(base + o) <- total p;
      lower_floors floor base p rest

  type t = {
    n_orders : int;
    provider : cand option array;
    buckets : cand list array;
    floor_all : float array;
    lower : float array;
    floor : float array;
  }

  let create ~buckets ~n_orders =
    { n_orders;
      provider = Array.make n_orders None;
      buckets = Array.make buckets [];
      floor_all = Array.make buckets infinity;
      lower = Array.make buckets infinity;
      floor = Array.make (buckets * n_orders) infinity }

  let retained t = function
    | [] -> []
    | first :: _ as entries ->
      let cheaper a b = total a < total b in
      let provider = t.provider and n_orders = t.n_orders in
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

  let enter t mask c =
    let entries = retained t (c :: t.buckets.(mask)) in
    t.buckets.(mask) <- entries;
    let base = mask * t.n_orders in
    Array.fill t.floor base t.n_orders infinity;
    t.floor_all.(mask) <- infinity;
    t.lower.(mask) <- infinity;
    List.iter
      (fun c ->
         let x = total c in
         if x < t.floor_all.(mask) then t.floor_all.(mask) <- x;
         if x < t.lower.(mask) || Float.is_nan x then t.lower.(mask) <- x;
         lower_floors t.floor base c c.orders)
      entries

  let admits t mask ms orders =
    not
      (t.floor_all.(mask) < ms
       && undercut_orders t.floor (mask * t.n_orders) ms orders)
end

(* Random offer streams over [buckets] buckets and 1 to [max_orders]
   orders: each offer names a bucket, a total drawn from a handful of
   values with exact ties, NaN and infinity, and some orders. *)
let gen_pareto_run ~buckets ~max_orders =
  QCheck.Gen.(
    let* n_orders = int_range 1 max_orders in
    let total = oneofl [ 0.0; 1.0; 1.0; 2.0; 2.0; 3.0; infinity; nan ] in
    let orders =
      let* k = frequency [ (3, return 0); (3, int_range 1 2);
                           (1, int_range 0 n_orders) ] in
      list_repeat k (int_range 0 (n_orders - 1))
      >|= List.sort_uniq Int.compare
    in
    let offer = triple (int_range 0 (buckets - 1)) total orders in
    let* offers = list_size (int_range 1 60) offer in
    return (n_orders, offers))

let print_pareto_run (n, offers) =
  Printf.sprintf "orders %d: %s" n
    (String.concat "; "
       (List.map
          (fun (b, t, o) ->
             Printf.sprintf "offer %d %h [%s]" b t
               (String.concat "," (List.map string_of_int o)))
          offers))

(* The offer streams through {!Pareto} and through [Pareto_ref], on two
   buckets with up to 15 orders.  After every offer both keep the same
   entries in the same order, with the same floor bound and the same
   verdicts.  A refusal, offered or only asked, leaves its bucket's
   entries and floor bound as they were, and a rejected offer leaves
   every verdict as it was. *)
let prop_pareto_reference =
  QCheck.Test.make ~name:"Pareto bucket = list retention, every step"
    ~count:1000
    (QCheck.make ~print:print_pareto_run
       (gen_pareto_run ~buckets:2 ~max_orders:15))
    (fun (n_orders, offers) ->
       let module P = Mqr_opt.Pareto in
       let module R = Pareto_ref in
       let dummy = { R.id = -1; total = 0.0; orders = [] } in
       let p = P.create ~buckets:2 ~n_orders ~dummy in
       let r = R.create ~buckets:2 ~n_orders in
       let ids l = List.map (fun (c : R.cand) -> c.R.id) l in
       let bits x = Int64.bits_of_float x in
       (* a bucket's ids in order and its floor bound's bits *)
       let reads to_list lower b = (ids (to_list b), bits (lower b)) in
       let reads_p = reads (P.to_list p) (P.lower p)
       and reads_r =
         reads (fun b -> r.R.buckets.(b)) (fun b -> r.R.lower.(b)) in
       (* a verdict, failing when a refusal moved its bucket *)
       let checked reads admits b ms orders =
         let before = reads b in
         let admitted = admits b ms orders in
         if (not admitted) && reads b <> before then
           failwith "a rejection moved a bucket";
         admitted
       in
       let admits_p = checked reads_p (P.admits p)
       and admits_r = checked reads_r (R.admits r) in
       (* a bucket's verdicts on a grid of totals and orders *)
       let verdicts admits b =
         List.concat_map
           (fun ms ->
              List.map (fun orders -> admits b ms orders)
                [ []; [ 0 ]; List.init n_orders Fun.id ])
           [ 0.0; 1.0; 2.0; 2.5; infinity ]
       in
       let all_verdicts () =
         List.concat_map (fun b -> verdicts admits_p b @ verdicts admits_r b)
           [ 0; 1 ]
       in
       let next_id = ref 0 in
       (* as the DP offers a candidate: a bound below its total first
          (its children's totals), then the total; entered when both
          admit it *)
       let offer admits b ~bound ~total orders =
         (not (bound <= total) || admits b bound orders)
         && admits b total orders
       in
       List.for_all
         (fun (b, total, orders) ->
            incr next_id;
            let c = { R.id = !next_id; total; orders } in
            let bound = if !next_id mod 3 = 0 then 1.0 else total in
            let verdicts_before = all_verdicts () in
            let admitted = offer admits_p b ~bound ~total orders in
            if admitted <> offer admits_r b ~bound ~total orders then
              failwith "verdicts differ";
            if admitted then begin
              P.enter p b c ~total ~orders;
              R.enter r b c
            end
            else if all_verdicts () <> verdicts_before then
              failwith "a rejection moved a verdict";
            List.for_all
              (fun b ->
                 reads_p b = reads_r b
                 && verdicts admits_p b = verdicts admits_r b)
              [ 0; 1 ])
         offers)

(* The DP gives up a whole group of candidates when their bucket does
   not admit their least possible total with every order any of them
   delivers.  That is sound only if [admits] is monotone: refusing [ms]
   with [orders], it refuses every larger total with any subset of
   [orders], in a bucket with NaN, infinite and tied totals too; a NaN
   total it always admits. *)
let prop_pareto_admits_monotone =
  QCheck.Test.make ~name:"Pareto.admits is monotone in total and orders"
    ~count:500
    (QCheck.make ~print:print_pareto_run
       (gen_pareto_run ~buckets:1 ~max_orders:5))
    (fun (n_orders, offers) ->
       let module P = Mqr_opt.Pareto in
       let p = P.create ~buckets:1 ~n_orders ~dummy:() in
       List.iter
         (fun (_, total, orders) ->
            if P.admits p 0 total orders then P.enter p 0 () ~total ~orders)
         offers;
       (* order sets as bitsets over [0, n_orders) *)
       let sets = List.init (1 lsl n_orders) Fun.id in
       let admits ms set =
         P.admits p 0 ms
           (List.filter (fun o -> set land (1 lsl o) <> 0)
              (List.init n_orders Fun.id))
       in
       let totals = [ neg_infinity; 0.0; 1.0; 2.0; 2.5; 3.0; infinity ] in
       let refuses_above ms set ms' sub =
         ms' < ms || sub land set <> sub || not (admits ms' sub)
       in
       List.for_all (admits nan) sets
       && List.for_all
            (fun ms ->
               List.for_all
                 (fun set ->
                    admits ms set
                    || List.for_all
                         (fun ms' ->
                            List.for_all (refuses_above ms set ms') sets)
                         totals)
                 sets)
            totals)

(* Every shape's price over an array of quantities and a memory grant. *)
let shapes ~dop ~rf ~ls ~rs =
  [ ("seq_scan", 3, fun q _ ->
        Cost_model.seq_scan_ms ~dop ~pages:q.(0) ~rows:q.(1)
          ~filter_rows:q.(2));
    ("index_scan", 3, fun q _ ->
        Cost_model.index_scan_ms ~match_rows:q.(0) ~table_pages:q.(1)
          ~filter_rows:q.(2));
    ("hash_join", 6, fun q mem_pages ->
        Cost_model.hash_join_ms ~dop ~build_rows:q.(0) ~build_pages:q.(1)
          ~probe_rows:q.(2) ~probe_pages:q.(3) ~out_rows:q.(4) ~mem_pages ~rf
          ~rf_probe_rows:q.(5));
    ("merge_join", 6, fun q mem_pages ->
        Cost_model.merge_join_ms ~left_rows:q.(0) ~left_pages:q.(1)
          ~right_rows:q.(2) ~right_pages:q.(3) ~out_rows:q.(4) ~mem_pages
          ~left_sorted:ls ~right_sorted:rs ~rf ~rf_probe_rows:q.(5));
    ("index_nl_join", 3, fun q _ ->
        Cost_model.index_nl_join_ms ~outer_rows:q.(0) ~fetched:q.(1)
          ~filter_rows:q.(2));
    ("block_nl_join", 5, fun q mem_pages ->
        Cost_model.block_nl_join_ms ~outer_rows:q.(0) ~outer_pages:q.(1)
          ~inner_rows:q.(2) ~inner_pages:q.(3) ~out_rows:q.(4) ~mem_pages);
    ("aggregate", 4, fun q mem_pages ->
        Cost_model.aggregate_ms ~dop ~in_rows:q.(0) ~in_pages:q.(1)
          ~groups:q.(2) ~group_pages:q.(3) ~mem_pages);
    ("sort", 2, fun q mem_pages ->
        Cost_model.sort_ms ~dop ~rows:q.(0) ~data_pages:q.(1) ~mem_pages);
    ("cpu", 1, fun q _ -> Cost_model.cpu_ms ~rows:q.(0));
    ("materialize", 1, fun q _ -> Cost_model.materialize_ms ~pages:q.(0)) ]

(* Bounds.cost_interval prices each node at the low and the high corner of
   its intervals; the two prices bracket the node's cost only if every
   price is monotone in its rows and pages and antitone in its grant, and
   an unbounded quantity must price as unbounded. *)
let prop_prices_monotone =
  let gen =
    QCheck.Gen.(
      triple cost_args_gen (float_bound_inclusive 1e6) (int_range 0 64))
  in
  QCheck.Test.make
    ~name:"prices are monotone in rows and pages, antitone in memory"
    ~count:500 (QCheck.make gen)
    (fun (((r1, r2, out, width), (p1, p2), (mem, dop, ls, rs)), delta, less) ->
       let base = [| r1; p1; r2; p2; out; width |] in
       let low_mem = min mem less in
       List.for_all
         (fun (name, n, price) ->
            let at i x =
              let q = Array.copy base in
              q.(i) <- x;
              price q mem
            in
            let ms = price base mem in
            let fail what =
              QCheck.Test.fail_reportf "%s: %s (%h at grant %d)" name what ms
                mem
            in
            if not (Float.is_finite ms && ms >= 0.0) then fail "not finite"
            else if price base low_mem < ms then
              fail (Printf.sprintf "cheaper at grant %d" low_mem)
            else
              List.for_all
                (fun i ->
                   if at i (base.(i) +. delta) < ms then
                     fail (Printf.sprintf "quantity %d raised by %h" i delta)
                   else if at i infinity <> infinity then
                     fail (Printf.sprintf "quantity %d infinite" i)
                   else true)
                (List.init n Fun.id))
         (shapes ~dop ~rf:(mem mod 3) ~ls ~rs))

(* Every price bit for bit at two fixed quantity sets — serial without
   runtime filters, and four workers with two filters, both under a
   grant that spills — plus the parallel and runtime-filter terms, the
   collector's budget price and Eq. 1's calibration: each of the rate
   card's thirteen rates reaches at least one of these bits. *)
let test_prices_pinned () =
  let sets =
    [ ("dop1", 1, 0, false, false, 16,
       [| 12_345.0; 321.0; 54_321.0; 987.0; 4_567.0; 111.0 |]);
      ("dop4+rf", 4, 2, true, false, 64,
       [| 98_765.5; 1_234.25; 7_654.0; 210.0; 33_333.0; 8_765.0 |]) ]
  in
  let bits = Int64.bits_of_float in
  let prices =
    List.concat_map
      (fun (set, dop, rf, ls, rs, mem, q) ->
         List.map
           (fun (name, _, price) -> (name ^ "/" ^ set, bits (price q mem)))
           (shapes ~dop ~rf ~ls ~rs))
      sets
  in
  let terms =
    List.map (fun p -> (Printf.sprintf "exchange/%g" p,
                        bits (Cost_model.exchange_ms ~pages:p)))
      [ 1.0; 987.5 ]
    @ List.map (fun d -> (Printf.sprintf "startup/%d" d,
                          bits (Cost_model.startup_ms ~dop:d)))
      [ 2; 4; 8 ]
    @ List.map (fun n -> (Printf.sprintf "runtime_filters/%d" n,
                          bits (Cost_model.runtime_filters_ms ~n
                                  ~build_rows:98_765.5 ~probe_rows:54_321.5)))
      [ 1; 3 ]
    @ List.map (fun (h, d) ->
        (Printf.sprintf "collector/%d+%d" (List.length h) (List.length d),
         bits (Mqr_exec.Collector.estimated_cost_ms
                 (Mqr_exec.Collector.spec ~hist_cols:h ~distinct_cols:d ())
                 ~rows:12_345.0)))
      [ ([], []); ([ "a" ], []); ([ "a"; "b" ], [ "c" ]) ]
    @ List.init 8 (fun i ->
        (Printf.sprintf "opt_estimated/%d" (i + 1),
         bits (Optimizer.estimated_opt_ms ~relations:(i + 1))))
  in
  Alcotest.(check (list (pair string int64))) "pinned"
    [ ("seq_scan/dop1", 4672576028992646152L);
      ("index_scan/dop1", 4658487091503487255L);
      ("hash_join/dop1", 4668759842935449583L);
      ("merge_join/dop1", 4671332287827585008L);
      ("index_nl_join/dop1", 4681718033595632713L);
      ("block_nl_join/dop1", 4703099581049501385L);
      ("aggregate/dop1", 4655892186887331250L);
      ("sort/dop1", 4660037394102558392L);
      ("cpu/dop1", 4632146434484485489L);
      ("materialize/dop1", 4675322865225039872L);
      ("seq_scan/dop4+rf", 4677024325143644603L);
      ("index_scan/dop4+rf", 4666896718283159896L);
      ("hash_join/dop4+rf", 4661979054259080003L);
      ("merge_join/dop4+rf", 4656884391677794451L);
      ("index_nl_join/dop4+rf", 4695122841541101486L);
      ("block_nl_join/dop4+rf", 4703765405416806154L);
      ("aggregate/dop4+rf", 4656876805322440705L);
      ("sort/dop4+rf", 4661689330333820911L);
      ("cpu/dop4+rf", 4645657620394689954L);
      ("materialize/dop4+rf", 4688833947574992896L);
      ("exchange/1", 4600877379321698714L);
      ("exchange/987.5", 4645656529679155200L);
      ("startup/2", 4587366580439587226L);
      ("startup/4", 4594572339843380020L);
      ("startup/8", 4599976659396224615L);
      ("runtime_filters/1", 4641327787584973176L);
      ("runtime_filters/3", 4648554044084530970L);
      ("collector/0+0", 4615521959410000723L);
      ("collector/1+0", 4625905430563368468L);
      ("collector/2+1", 4631972694055110836L);
      ("opt_estimated/1", 4607182418800017408L);
      ("opt_estimated/2", 4616189618054758400L);
      ("opt_estimated/3", 4622382067542392832L);
      ("opt_estimated/4", 4628574517030027264L);
      ("opt_estimated/5", 4634555860285128704L);
      ("opt_estimated/6", 4640044622330986496L);
      ("opt_estimated/7", 4645586160934977536L);
      ("opt_estimated/8", 4651162883911057408L) ]
    (prices @ terms)

let suite =
  [ Alcotest.test_case "single table plan" `Quick test_single_table_plan;
    Alcotest.test_case "index scan when selective" `Quick test_index_scan_chosen_when_selective;
    Alcotest.test_case "seq scan when unselective" `Quick test_seq_scan_for_unselective;
    Alcotest.test_case "build side smaller" `Quick test_join_build_side_is_smaller;
    Alcotest.test_case "estimates annotated" `Quick test_estimates_annotated;
    Alcotest.test_case "total accumulates" `Quick test_total_cost_accumulates;
    Alcotest.test_case "join cardinality sanity" `Quick test_join_cardinality_sanity;
    Alcotest.test_case "three-way join" `Quick test_three_way_join_order;
    Alcotest.test_case "group estimate uses stats" `Quick test_aggregate_group_estimate_uses_stats;
    Alcotest.test_case "recost preserves ids" `Quick test_recost_preserves_structure_and_ids;
    Alcotest.test_case "recost with override" `Quick test_recost_with_override_changes_estimate;
    Alcotest.test_case "recost memo sees an override" `Quick test_recost_memo_sees_override;
    Alcotest.test_case "recost reads a leaf's width" `Quick test_recost_reads_leaf_width;
    Alcotest.test_case "recost in the planning environment is the identity"
      `Quick test_recost_in_planning_env_is_identity;
    Alcotest.test_case "unknown column" `Quick test_planning_error_on_unknown_column;
    Alcotest.test_case "opt calibration monotone" `Quick test_estimated_opt_ms_monotone;
    Alcotest.test_case "disable index join" `Quick test_options_disable_index_join;
    Alcotest.test_case "memory demands" `Quick test_memory_demands_positive;
    Alcotest.test_case "spill cost monotone" `Quick test_cost_model_hash_join_spill_monotone;
    Alcotest.test_case "prices pinned bits" `Quick test_prices_pinned;
    Alcotest.test_case "orders of index scan" `Quick test_orders_of_index_scan;
    Alcotest.test_case "sort elision" `Quick test_sort_elided_when_ordered;
    Alcotest.test_case "merge join presorted flags" `Quick test_merge_join_presorted_flag;
    Alcotest.test_case "orders survive collect" `Quick test_orders_survive_collect;
    QCheck_alcotest.to_alcotest prop_children_bound_join_cost;
    QCheck_alcotest.to_alcotest prop_prices_monotone;
    QCheck_alcotest.to_alcotest prop_merge_pass_bounds_merge;
    QCheck_alcotest.to_alcotest prop_pareto_reference;
    QCheck_alcotest.to_alcotest prop_pareto_admits_monotone ]
