(* Cardinality-bound abstract interpretation: provable intervals over
   hand-built plans, seeded out-of-interval plans producing their BND-*
   diagnostics, and the bound-checked switching gate. *)
open Mqr_storage
module Catalog = Mqr_catalog.Catalog
module Expr = Mqr_expr.Expr
module Plan = Mqr_opt.Plan
module Bounds = Mqr_analysis.Bounds
module Verifier = Mqr_analysis.Verifier
module Diagnostic = Mqr_analysis.Diagnostic
module Reopt_policy = Mqr_core.Reopt_policy

(* t(a unique dense 0..99, b string), u(k unique dense 0..49, v float),
   f(x -> t.a, y -> u.k): a two-dimensional star with a 200-row fact. *)
let catalog () =
  let c = Catalog.create () in
  let t =
    Heap_file.create
      (Schema.make [ Schema.col "a" Value.TInt; Schema.col "b" Value.TString ])
  in
  for i = 0 to 99 do
    Heap_file.append t [| Value.Int i; Value.String "x" |]
  done;
  ignore (Catalog.add_table c "t" t);
  let u =
    Heap_file.create
      (Schema.make [ Schema.col "k" Value.TInt; Schema.col "v" Value.TFloat ])
  in
  for i = 0 to 49 do
    Heap_file.append u [| Value.Int i; Value.Float 0.5 |]
  done;
  ignore (Catalog.add_table c "u" u);
  let f =
    Heap_file.create
      (Schema.make [ Schema.col "x" Value.TInt; Schema.col "y" Value.TInt ])
  in
  for i = 0 to 199 do
    Heap_file.append f [| Value.Int (i mod 100); Value.Int (i mod 50) |]
  done;
  ignore (Catalog.add_table c "f" f);
  Catalog.analyze_table c "t";
  Catalog.analyze_table c "u";
  Catalog.analyze_table c "f";
  c

let next_id = ref 0

let mk ?(rows = 10.0) ?(min_mem = 0) ?(max_mem = 0) ?(mem = 0) schema node =
  incr next_id;
  { Plan.id = !next_id;
    node;
    schema;
    est = { Plan.rows; width = 8.0; op_ms = 1.0; total_ms = 1.0 };
    min_mem;
    max_mem;
    mem;
    dop = 1 }

let table_schema c name =
  Schema.qualify
    (Heap_file.schema (Catalog.find_exn c name).Catalog.heap) name

let scan c ?(rows = 100.0) ?filter name =
  mk ~rows (table_schema c name)
    (Plan.Seq_scan { table = name; alias = name; filter })

let hash_join ?(rows = 50.0) ?(min_mem = 1) ?(max_mem = 4) ~keys build probe =
  mk ~rows ~min_mem ~max_mem
    (Schema.concat probe.Plan.schema build.Plan.schema)
    (Plan.Hash_join { build; probe; keys; extra = None; rf = [] })

let block_nl ?(rows = 50.0) ?pred outer inner =
  mk ~rows
    (Schema.concat outer.Plan.schema inner.Plan.schema)
    (Plan.Block_nl_join { outer; inner; pred })

let analyze c plan = Bounds.analyze (Bounds.env c) plan

let rows_of a (p : Plan.t) =
  match Bounds.rows a p.Plan.id with
  | Some iv -> iv
  | None -> Alcotest.fail "node has no interval"

let codes sel diags =
  List.filter_map
    (fun (d : Diagnostic.t) ->
       if sel d then Some d.Diagnostic.code else None)
    diags

let error_codes = codes Diagnostic.is_error
let warning_codes = codes (fun d -> not (Diagnostic.is_error d))

let check_has_warning code diags =
  Alcotest.(check bool)
    (Printf.sprintf "warning %s reported" code)
    true
    (List.mem code (warning_codes diags))

(* --- interval propagation --- *)

let test_scan_exact () =
  let c = catalog () in
  let p = scan c "t" in
  let iv = rows_of (analyze c p) p in
  Alcotest.(check (float 0.0)) "lo anchored on heap truth" 100.0 iv.Bounds.lo;
  Alcotest.(check (float 0.0)) "hi anchored on heap truth" 100.0 iv.Bounds.hi

let test_filter_widens_lo () =
  let c = catalog () in
  let base = scan c "t" in
  let p =
    mk ~rows:50.0 base.Plan.schema
      (Plan.Filter
         { input = base;
           pred =
             Expr.Cmp (Expr.Gt, Expr.Col "t.a", Expr.Const (Value.Int 12)) })
  in
  let iv = rows_of (analyze c p) p in
  Alcotest.(check (float 0.0)) "filter may drop everything" 0.0 iv.Bounds.lo;
  Alcotest.(check bool) "filter never adds rows" true (iv.Bounds.hi <= 100.0)

let test_unique_key_join_bounded () =
  let c = catalog () in
  (* f.x -> t.a: t.a is provably unique, so the join cannot exceed f *)
  let p = hash_join ~keys:[ ("f.x", "t.a") ] (scan c "t") (scan c ~rows:200.0 "f") in
  let iv = rows_of (analyze c p) p in
  Alcotest.(check bool) "capped by the fact side" true (iv.Bounds.hi <= 200.5)

(* The star regression: the build pairs two independent dimensions; each
   single key alone fans out to the other dimension's size, but pinning
   BOTH keys at once pins one row of each dimension, so the joint
   per-value frequency is 1 and the two-key join stays within the fact. *)
let test_two_key_star_join_collapses () =
  let c = catalog () in
  let dims = block_nl ~rows:5000.0 (scan c "t") (scan c ~rows:50.0 "u") in
  let p =
    hash_join ~rows:200.0
      ~keys:[ ("f.x", "t.a"); ("f.y", "u.k") ]
      dims
      (scan c ~rows:200.0 "f")
  in
  let a = analyze c p in
  let div = rows_of a dims in
  Alcotest.(check (float 0.0)) "cross product of dims is exact" 5000.0
    div.Bounds.hi;
  let iv = rows_of a p in
  Alcotest.(check bool)
    (Printf.sprintf "joint key bound collapses the join (hi=%.0f)" iv.Bounds.hi)
    true (iv.Bounds.hi <= 200.5)

(* Equality pins through a join predicate: each disjunct pins one row of
   each (unique-keyed) side, so the OR of two pin pairs passes <= 2 rows
   out of a 5000-row cross product. *)
let test_pred_equality_pins_cross_product () =
  let c = catalog () in
  let eq col n = Expr.Cmp (Expr.Eq, Expr.Col col, Expr.Const (Value.Int n)) in
  let pred =
    Expr.Or
      ( Expr.And (eq "t.a" 1, eq "u.k" 2),
        Expr.And (eq "t.a" 3, eq "u.k" 4) )
  in
  let p = block_nl ~rows:2.0 ~pred (scan c "t") (scan c ~rows:50.0 "u") in
  let iv = rows_of (analyze c p) p in
  Alcotest.(check bool)
    (Printf.sprintf "two pin pairs pass at most two rows (hi=%.0f)"
       iv.Bounds.hi)
    true (iv.Bounds.hi <= 2.5)

(* --- seeded out-of-interval plans -> BND-* diagnostics --- *)

let test_estimate_outside_interval () =
  let c = catalog () in
  (* an unfiltered scan of a 100-row heap estimated at 640 rows *)
  let p = scan c ~rows:640.0 "t" in
  let diags = Verifier.verify (Verifier.context c) p in
  check_has_warning "BND-EST" diags;
  Alcotest.(check (list string)) "warnings only" [] (error_codes diags)

let test_worst_case_memory_over_budget () =
  let c = catalog () in
  let p = hash_join ~keys:[ ("f.x", "t.a") ] (scan c "t") (scan c ~rows:200.0 "f") in
  let diags = Verifier.verify (Verifier.context ~budget_pages:1 c) p in
  check_has_warning "BND-MEM" diags

let test_dominated_access_path () =
  let c = catalog () in
  (* a table big enough that scanning it all visibly loses to one index
     probe: an equality on a provably unique indexed column matches at
     most one row, so the sequential scan is dominated at any
     cardinality inside the bounds *)
  let big =
    Heap_file.create
      (Schema.make
         [ Schema.col "id" Value.TInt; Schema.col "pad" Value.TString ])
  in
  for i = 0 to 4999 do
    Heap_file.append big
      [| Value.Int i; Value.String (String.make 64 'p') |]
  done;
  ignore (Catalog.add_table c "big" big);
  ignore (Catalog.create_index c ~table:"big" ~column:"id");
  Catalog.analyze_table c "big";
  let p =
    scan c ~rows:1.0
      ~filter:
        (Expr.Cmp (Expr.Eq, Expr.Col "big.id", Expr.Const (Value.Int 7)))
      "big"
  in
  let diags = Verifier.verify (Verifier.context c) p in
  check_has_warning "BND-DOM" diags

let test_clean_plan_has_no_bnd () =
  let c = catalog () in
  let p = hash_join ~rows:200.0 ~keys:[ ("f.x", "t.a") ]
      (scan c "t") (scan c ~rows:200.0 "f")
  in
  let diags = Verifier.verify (Verifier.context c) p in
  Alcotest.(check (list string)) "no bounds findings" []
    (List.filter (fun s -> String.length s >= 4 && String.sub s 0 4 = "BND-")
       (warning_codes diags @ error_codes diags))

(* --- cost intervals and the switching gate --- *)

let test_cost_interval_ordered () =
  let c = catalog () in
  let p = hash_join ~rows:200.0 ~keys:[ ("f.x", "t.a") ]
      (scan c "t") (scan c ~rows:200.0 "f")
  in
  let iv =
    Bounds.cost_interval (Bounds.env c) p
  in
  Alcotest.(check bool) "lower bound positive" true (iv.Bounds.lo > 0.0);
  Alcotest.(check bool) "interval ordered" true (iv.Bounds.lo <= iv.Bounds.hi);
  Alcotest.(check bool) "upper bound finite" true (Float.is_finite iv.Bounds.hi)

(* The same analyzed heap under a base name and as a temp table
   (Catalog.add_temp) with the same column statistics: only the base
   table's bucket/distinct counts are trusted, so only there does an
   equality on the unique column pin the scan to at most one row. *)
let test_temp_counts_untrusted () =
  let c = catalog () in
  let base = Catalog.find_exn c "t" in
  let temp = Catalog.add_temp c "tmp" base.Catalog.heap in
  temp.Catalog.stats <- base.Catalog.stats;
  let eq_scan name =
    let filter =
      Expr.Cmp (Expr.Eq, Expr.Col (name ^ ".a"), Expr.Const (Value.Int 42))
    in
    let p = scan c ~rows:1.0 ~filter name in
    rows_of (analyze c p) p
  in
  let b = eq_scan "t" and t = eq_scan "tmp" in
  Alcotest.(check bool)
    (Fmt.str "base %a strictly inside temp %a" Bounds.pp_interval b
       Bounds.pp_interval t)
    true
    (b.Bounds.lo >= t.Bounds.lo && b.Bounds.hi <= t.Bounds.hi && b <> t)

let test_accept_bound_checked_gate () =
  Alcotest.(check bool) "provable win admitted" true
    (Reopt_policy.accept_bound_checked ~new_hi_ms:10.0 ~cur_lo_ms:20.0);
  Alcotest.(check bool) "tie vetoed" false
    (Reopt_policy.accept_bound_checked ~new_hi_ms:20.0 ~cur_lo_ms:20.0);
  Alcotest.(check bool) "unbounded candidate vetoed" false
    (Reopt_policy.accept_bound_checked ~new_hi_ms:Float.infinity
       ~cur_lo_ms:20.0)

let suite =
  [ Alcotest.test_case "unfiltered scan interval is exact" `Quick
      test_scan_exact;
    Alcotest.test_case "filter widens the lower bound to zero" `Quick
      test_filter_widens_lo;
    Alcotest.test_case "unique-key join capped by the probe side" `Quick
      test_unique_key_join_bounded;
    Alcotest.test_case "two-key star join collapses via joint frequency"
      `Quick test_two_key_star_join_collapses;
    Alcotest.test_case "equality pins bound a predicated cross product"
      `Quick test_pred_equality_pins_cross_product;
    Alcotest.test_case "estimate outside interval -> BND-EST" `Quick
      test_estimate_outside_interval;
    Alcotest.test_case "worst-case memory over budget -> BND-MEM" `Quick
      test_worst_case_memory_over_budget;
    Alcotest.test_case "dominated access path -> BND-DOM" `Quick
      test_dominated_access_path;
    Alcotest.test_case "well-formed plan has no BND findings" `Quick
      test_clean_plan_has_no_bnd;
    Alcotest.test_case "cost interval is ordered and finite" `Quick
      test_cost_interval_ordered;
    Alcotest.test_case "bound-checked gate admits only provable wins" `Quick
      test_accept_bound_checked_gate;
    Alcotest.test_case "a temp table's counts are not trusted" `Quick
      test_temp_counts_untrusted ]
