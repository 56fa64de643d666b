module Plan = Mqr_opt.Plan
module Stats_env = Mqr_opt.Stats_env
module Collector = Mqr_exec.Collector
module Expr = Mqr_expr.Expr
module Schema = Mqr_storage.Schema

type candidate = {
  column : string;
  stat : [ `Histogram | `Distinct ];
  at_alias : string;
  level : Inaccuracy.level;
  affected_ms : float;
  collect_ms : float;
}

type outcome = {
  plan : Plan.t;
  kept : candidate list;
  dropped : candidate list;
  budget_ms : float;
  next_id : int;
}

let owns_col schema col =
  match Schema.index_of schema col with
  | (_ : int) -> true
  | exception Not_found -> false
  | exception Schema.Ambiguous _ -> false

(* Qualified columns a node's own predicate work refers to (join keys,
   residuals, group-by columns). *)
let used_columns (p : Plan.t) =
  match p.Plan.node with
  | Plan.Hash_join { keys; extra; _ } ->
    List.concat_map (fun (a, b) -> [ a; b ]) keys
    @ (match extra with None -> [] | Some e -> Expr.columns e)
  | Plan.Index_nl_join { outer_col; inner_col; extra; _ } ->
    [ outer_col; inner_col ]
    @ (match extra with None -> [] | Some e -> Expr.columns e)
  | Plan.Block_nl_join { pred; _ } ->
    (match pred with None -> [] | Some e -> Expr.columns e)
  | Plan.Merge_join { keys; extra; _ } ->
    List.concat_map (fun (a, b) -> [ a; b ]) keys
    @ (match extra with None -> [] | Some e -> Expr.columns e)
  | _ -> []

let group_columns (p : Plan.t) =
  match p.Plan.node with
  | Plan.Aggregate { group_by; _ } -> group_by
  | _ -> []

(* Sum of this node's own cost and every node above it: the part of the
   plan "after" a statistic's first use. *)
let affected_ms_of ~above (u : Plan.t) =
  List.fold_left (fun acc (a : Plan.t) -> acc +. a.Plan.est.Plan.op_ms)
    u.Plan.est.Plan.op_ms above

(* [ancestors] is nearest-first. *)
let candidates_for_scan env (scan : Plan.t) ~alias ~ancestors =
  let schema = scan.Plan.schema in
  let rows = scan.Plan.est.Plan.rows in
  let collect_ms = rows *. Collector.stat_tuple_ms in
  (* nearest ancestor using a column of this scan, with everything above *)
  let rec first_use cols_of = function
    | [] -> None
    | (a : Plan.t) :: above ->
      (match List.filter (owns_col schema) (cols_of a) with
       | [] -> first_use cols_of above
       | cols -> Some (cols, a, above))
  in
  let hists =
    (* every ancestor join contributes its first use of each column *)
    let seen = Hashtbl.create 8 in
    let rec walk = function
      | [] -> []
      | (a : Plan.t) :: above ->
        let cols = List.filter (owns_col schema) (used_columns a) in
        let fresh = List.filter (fun c -> not (Hashtbl.mem seen c)) cols in
        List.iter (fun c -> Hashtbl.replace seen c ()) fresh;
        List.map
          (fun column ->
             { column;
               stat = `Histogram;
               at_alias = alias;
               level = Inaccuracy.histogram_level env scan ~column;
               affected_ms = affected_ms_of ~above a;
               collect_ms })
          fresh
        @ walk above
    in
    walk ancestors
  in
  let distincts =
    match first_use group_columns ancestors with
    | None -> []
    | Some (cols, a, above) ->
      List.map
        (fun column ->
           { column;
             stat = `Distinct;
             at_alias = alias;
             level = Inaccuracy.distinct_level env scan ~column;
             affected_ms = affected_ms_of ~above a;
             collect_ms })
        cols
  in
  hists @ distincts

let compare_effectiveness a b =
  (* more effective first: higher inaccuracy, then larger affected cost *)
  match Inaccuracy.compare_level b.level a.level with
  | 0 -> Float.compare b.affected_ms a.affected_ms
  | c -> c

let insert ~mu ~env ~first_id plan =
  let total_ms = plan.Plan.est.Plan.total_ms in
  let budget_ms = mu *. total_ms in
  (* Gather scan nodes with their ancestor chains (nearest first). *)
  let scans = ref [] in
  let rec walk ancestors (p : Plan.t) =
    (match p.Plan.node with
     | Plan.Seq_scan { alias; _ } | Plan.Index_scan { alias; _ } ->
       scans := (p, alias, ancestors) :: !scans
     | _ -> ());
    List.iter (walk (p :: ancestors)) (Plan.children p)
  in
  walk [] plan;
  let scans = List.rev !scans in
  let all =
    List.concat_map
      (fun (scan, alias, ancestors) ->
         candidates_for_scan env scan ~alias ~ancestors)
      scans
  in
  let ranked = List.stable_sort compare_effectiveness all in
  (* Keep the most effective statistics within the budget. *)
  let kept, dropped, _ =
    List.fold_left
      (fun (kept, dropped, spent) c ->
         if spent +. c.collect_ms <= budget_ms then
           (c :: kept, dropped, spent +. c.collect_ms)
         else (kept, c :: dropped, spent))
      ([], [], 0.0) ranked
  in
  let kept = List.rev kept and dropped = List.rev dropped in
  (* Wrap each scan that has kept statistics in a Collect operator. *)
  let next_id = ref first_id in
  let next_cid = ref 0 in
  let rec rebuild (p : Plan.t) =
    let p = Plan.with_children p (List.map rebuild (Plan.children p)) in
    match p.Plan.node with
    | Plan.Seq_scan { alias; _ } | Plan.Index_scan { alias; _ } ->
      let mine = List.filter (fun c -> c.at_alias = alias) kept in
      if mine = [] then p
      else begin
        let hist_cols =
          List.filter_map
            (fun c -> if c.stat = `Histogram then Some c.column else None)
            mine
        in
        let distinct_cols =
          List.filter_map
            (fun c -> if c.stat = `Distinct then Some c.column else None)
            mine
        in
        let spec = Collector.spec ~hist_cols ~distinct_cols () in
        let cid = !next_cid in
        incr next_cid;
        let id = !next_id in
        incr next_id;
        (* the wrapper streams its input through unchanged but pays the
           per-tuple collection CPU, so the annotation stays internally
           consistent even before the next re-cost *)
        let collect_ms =
          Collector.estimated_cost_ms spec ~rows:p.Plan.est.Plan.rows
        in
        { Plan.id = id;
          node = Plan.Collect { input = p; spec; cid };
          schema = p.Plan.schema;
          est =
            { p.Plan.est with
              Plan.op_ms = collect_ms;
              total_ms = p.Plan.est.Plan.total_ms +. collect_ms };
          min_mem = 0;
          max_mem = 0;
          mem = 0;
          dop = 1 }
      end
    | _ -> p
  in
  let plan = rebuild plan in
  { plan; kept; dropped; budget_ms; next_id = !next_id }
