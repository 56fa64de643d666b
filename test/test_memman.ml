module Plan = Mqr_opt.Plan
module Memory_manager = Mqr_memman.Memory_manager
module Schema = Mqr_storage.Schema

(* Hand-built plan skeletons: we only need ids, memory demands and tree
   shape, so fabricate nodes directly. *)
let mk_node ?(min_mem = 0) ?(max_mem = 0) id node =
  { Plan.id;
    node;
    schema = Schema.make [];
    est = { Plan.rows = 1.0; width = 8.0; op_ms = 1.0; total_ms = 1.0 };
    min_mem;
    max_mem;
    mem = 0;
    dop = 1 }

let scan id = mk_node id (Plan.Seq_scan { table = "t"; alias = "t"; filter = None })

let join ?(min_mem = 2) ?(max_mem = 10) id build probe =
  mk_node ~min_mem ~max_mem id
    (Plan.Hash_join { build; probe; keys = []; extra = None; rf = [] })

(* Figure 3 shape: agg over join2(join1(scan, scan), scan). *)
let figure3_plan ~j1_max ~j2_max ~agg_max =
  let s1 = scan 1 and s2 = scan 2 and s3 = scan 3 in
  let j1 = join ~min_mem:1 ~max_mem:j1_max 4 s2 s1 in
  let j2 = join ~min_mem:1 ~max_mem:j2_max 5 s3 j1 in
  mk_node ~min_mem:1 ~max_mem:agg_max 6
    (Plan.Aggregate { input = j2; group_by = []; aggs = [] })

let test_consumers_in_execution_order () =
  let plan = figure3_plan ~j1_max:10 ~j2_max:10 ~agg_max:4 in
  let order =
    List.map (fun (n : Plan.t) -> n.Plan.id)
      (Memory_manager.consumers_in_order plan)
  in
  Alcotest.(check (list int)) "join1, join2, agg" [ 4; 5; 6 ] order

let test_everything_fits () =
  let plan = figure3_plan ~j1_max:10 ~j2_max:10 ~agg_max:4 in
  let mm = Memory_manager.create ~budget_pages:100 in
  let grants = Memory_manager.allocate mm plan in
  List.iter
    (fun g ->
       Alcotest.(check int) "granted max" g.Memory_manager.max_pages
         g.Memory_manager.granted)
    grants

let test_figure3_pressure () =
  (* Budget 20: join1 wants 15, join2 wants 15, agg wants 4.  Like the
     paper's Figure 3, the first join gets its max and the second is
     squeezed to (near) its min. *)
  let plan = figure3_plan ~j1_max:15 ~j2_max:15 ~agg_max:4 in
  let mm = Memory_manager.create ~budget_pages:20 in
  let grants = Memory_manager.allocate mm plan in
  (match grants with
   | [ g1; g2; _g3 ] ->
     Alcotest.(check int) "join1 gets max" 15 g1.Memory_manager.granted;
     Alcotest.(check bool) "join2 squeezed" true
       (g2.Memory_manager.granted < g2.Memory_manager.max_pages)
   | _ -> Alcotest.fail "expected 3 grants");
  let total = List.fold_left (fun a g -> a + g.Memory_manager.granted) 0 grants in
  Alcotest.(check bool) "within budget" true (total <= 20)

let test_reallocation_after_shrunk_estimate () =
  (* After improved estimates the second join's demand shrinks and a
     second allocation gives it the max: the paper's 2-pass -> 1-pass
     story. *)
  let plan = figure3_plan ~j1_max:15 ~j2_max:6 ~agg_max:4 in
  let mm = Memory_manager.create ~budget_pages:25 in
  let grants = Memory_manager.allocate mm plan in
  match grants with
  | [ _; g2; _ ] ->
    Alcotest.(check int) "join2 now satisfied" 6 g2.Memory_manager.granted
  | _ -> Alcotest.fail "expected 3 grants"

let test_minimums_when_overcommitted () =
  let plan = figure3_plan ~j1_max:50 ~j2_max:50 ~agg_max:50 in
  let mm = Memory_manager.create ~budget_pages:10 in
  let grants = Memory_manager.allocate mm plan in
  List.iter
    (fun g ->
       Alcotest.(check bool) "at least 1 page" true (g.Memory_manager.granted >= 1))
    grants

let test_grants_mutate_plan () =
  let plan = figure3_plan ~j1_max:10 ~j2_max:10 ~agg_max:4 in
  let mm = Memory_manager.create ~budget_pages:100 in
  ignore (Memory_manager.allocate mm plan);
  List.iter
    (fun (n : Plan.t) ->
       if Plan.is_memory_consumer n then
         Alcotest.(check bool) "mem set" true (n.Plan.mem > 0))
    (Plan.nodes plan)

let suite =
  [ Alcotest.test_case "execution order" `Quick test_consumers_in_execution_order;
    Alcotest.test_case "everything fits" `Quick test_everything_fits;
    Alcotest.test_case "figure 3 pressure" `Quick test_figure3_pressure;
    Alcotest.test_case "realloc after shrink" `Quick test_reallocation_after_shrunk_estimate;
    Alcotest.test_case "overcommitted minimums" `Quick test_minimums_when_overcommitted;
    Alcotest.test_case "grants mutate plan" `Quick test_grants_mutate_plan ]
