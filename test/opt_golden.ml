(* Golden-file driver for the optimizer: plan every benchmark query on a
   seeded sf=0.005 experiment catalog under each option variant and print
   the chosen plan, its node ids (pre-order), the number of plans the DP
   enumerated and a digest of every node's estimates at full float
   precision, then the plan's provable cost interval
   ({!Mqr_analysis.Bounds.cost_interval}) at dop 1 and at the variant's
   [max_dop], also at full precision.  The optimizer is deterministic, so
   the output is byte-stable and `dune promote` maintains the golden; any
   change to join enumeration that alters a plan, an id, an estimate or
   the enumeration count shows up as a diff, and so does any change to
   the price the bounds put on a plan.  Four final groups stress the DP's
   edge cases: every relation of Q5, Q7 and Q8 shrunk to the same tiny
   cardinality (many candidates cost exactly the same, so the Pareto
   sets' tie rule decides), Q5, Q7 and Q8 under a dozen seeded random
   statistics drawn from a few values (exact ties between unlike plans)
   and under a few drawn with NaN, infinite and zero counts among them,
   one plan re-costed after overriding statistics, and Q7 and Q8
   re-planned from scratch under the same overrides, as the re-optimizer
   does mid-query.

     opt_golden > opt_plans.txt *)

open Mqr_storage
module Catalog = Mqr_catalog.Catalog
module Column_stats = Mqr_catalog.Column_stats
module Parser = Mqr_sql.Parser
module Query = Mqr_sql.Query
module Optimizer = Mqr_opt.Optimizer
module Stats_env = Mqr_opt.Stats_env
module Plan = Mqr_opt.Plan
module Queries = Mqr_tpcd.Queries
module Workload = Mqr_tpcd.Workload
module Bounds = Mqr_analysis.Bounds
module Rng = Mqr_stats.Rng

let variants =
  let d = Optimizer.default_options in
  [ ("default", d);
    ("rf", { d with Optimizer.enable_runtime_filters = true });
    ("dop4", { d with Optimizer.max_dop = 4 });
    ("no-bushy", { d with Optimizer.enable_bushy = false });
    ("no-merge", { d with Optimizer.enable_merge_join = false });
    ("no-index", { d with Optimizer.enable_index_join = false });
    ("mem8", { d with Optimizer.planning_mem_pages = 8 }) ]

let digest plan =
  let buf = Buffer.create 256 in
  List.iter
    (fun (n : Plan.t) ->
       let e = n.Plan.est in
       Printf.bprintf buf "%d %h %h %h %h %d %d %d %d;" n.Plan.id e.Plan.rows
         e.Plan.width e.Plan.op_ms e.Plan.total_ms n.Plan.min_mem
         n.Plan.max_mem n.Plan.mem n.Plan.dop)
    (Plan.nodes plan);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let print_plan ~bounds ~title ?enumerated ?(max_dop = 1) plan =
  Printf.printf "== %s%s\n" title
    (match enumerated with
     | Some n -> Printf.sprintf " plans_enumerated=%d" n
     | None -> "");
  print_string (Plan.to_string plan);
  Printf.printf "ids %s\n"
    (String.concat " "
       (List.map
          (fun (n : Plan.t) -> string_of_int n.Plan.id)
          (Plan.nodes plan)));
  Printf.printf "est %s\n" (digest plan);
  let interval max_dop =
    let iv =
      Bounds.cost_interval bounds ~max_dop plan
    in
    Printf.sprintf "dop%d [%h, %h]" max_dop iv.Bounds.lo iv.Bounds.hi
  in
  Printf.printf "cost %s %s\n\n" (interval 1) (interval max_dop)

let () =
  let catalog = Workload.experiment_catalog ~sf:0.005 () in
  let bind sql = Query.bind catalog (Parser.parse sql) in
  let bounds = Bounds.env catalog in
  let print_plan = print_plan ~bounds in
  List.iter
    (fun (q : Queries.query) ->
       let query = bind q.Queries.sql in
       List.iter
         (fun (name, options) ->
            let env = Stats_env.create catalog query.Query.relations in
            let r = Optimizer.optimize ~options ~env query in
            print_plan
              ~title:(Printf.sprintf "%s %s" q.Queries.name name)
              ~enumerated:r.Optimizer.plans_enumerated
              ~max_dop:options.Optimizer.max_dop r.Optimizer.plan)
         variants)
    Queries.all;
  (* exact cost ties: every relation believed to hold the same two rows *)
  List.iter
    (fun (q : Queries.query) ->
       let query = bind q.Queries.sql in
       let env = Stats_env.create catalog query.Query.relations in
       List.iter
         (fun (r : Stats_env.rel_info) ->
            Stats_env.override_rows env ~alias:r.Stats_env.alias ~rows:2.0)
         (Stats_env.relations env);
       let r = Optimizer.optimize ~env query in
       print_plan
         ~title:(Printf.sprintf "%s ties" q.Queries.name)
         ~enumerated:r.Optimizer.plans_enumerated r.Optimizer.plan)
    (List.map Queries.find [ "Q5"; "Q7"; "Q8" ]);
  (* seeded random statistics: every relation's row count and every
     column's distinct count drawn from a handful of values *)
  let pick rng xs = List.nth xs (Rng.int rng (List.length xs)) in
  let random_stats ~label ~seeds ~rows ~distinct =
    List.iter
      (fun (q : Queries.query) ->
         let query = bind q.Queries.sql in
         for seed = 1 to seeds do
           List.iter
             (fun (name, options) ->
                let rng = Rng.create seed in
                let env = Stats_env.create catalog query.Query.relations in
                List.iter
                  (fun (r : Stats_env.rel_info) ->
                     Stats_env.override_rows env ~alias:r.Stats_env.alias
                       ~rows:(pick rng rows);
                     List.iter
                       (fun (column, _) ->
                          Stats_env.override env ~column
                            { Column_stats.empty with
                              Column_stats.distinct = Some (pick rng distinct) })
                       r.Stats_env.col_stats)
                  (Stats_env.relations env);
                let r = Optimizer.optimize ~options ~env query in
                print_plan
                  ~title:
                    (Printf.sprintf "%s %s seed=%d %s" q.Queries.name label
                       seed name)
                  ~enumerated:r.Optimizer.plans_enumerated
                  ~max_dop:options.Optimizer.max_dop r.Optimizer.plan)
             (List.filter
                (fun (name, _) ->
                   List.mem name [ "default"; "no-merge"; "dop4" ])
                variants)
         done)
      (List.map Queries.find [ "Q5"; "Q7"; "Q8" ])
  in
  (* few values: unlike plans often cost exactly the same *)
  random_stats ~label:"random-stats" ~seeds:12 ~rows:[ 1.0; 2.0; 4.0; 64.0 ]
    ~distinct:[ 1.0; 2.0; 4.0 ];
  (* non-finite and empty estimates: NaN and infinite totals, which no
     cost comparison may order *)
  random_stats ~label:"non-finite-stats" ~seeds:4
    ~rows:[ Float.nan; Float.infinity; 0.0; 2.0; 64.0 ]
    ~distinct:[ Float.nan; Float.infinity; 0.0; 1.0; 4.0 ];
  (* observed statistics: orders turned out 3x larger than believed and
     its customer keys cover a narrow band *)
  let observe env =
    let orders = Stats_env.rel env ~alias:"orders" in
    Stats_env.override_rows env ~alias:"orders"
      ~rows:(3.0 *. orders.Stats_env.rows);
    Stats_env.override env ~column:"orders.o_custkey"
      (Column_stats.analyze
         (List.init 200 (fun i -> Value.Int (1 + (i mod 40)))))
  in
  let query = bind Queries.q5.Queries.sql in
  let env = Stats_env.create catalog query.Query.relations in
  let r = Optimizer.optimize ~env query in
  observe env;
  print_plan ~title:"Q5 recost after override"
    (Optimizer.recost ~env r.Optimizer.plan);
  List.iter
    (fun (q : Queries.query) ->
       let query = bind q.Queries.sql in
       let env = Stats_env.create catalog query.Query.relations in
       observe env;
       let r = Optimizer.optimize ~env query in
       print_plan
         ~title:(Printf.sprintf "%s re-optimize after override" q.Queries.name)
         ~enumerated:r.Optimizer.plans_enumerated r.Optimizer.plan)
    (List.map Queries.find [ "Q7"; "Q8" ])
