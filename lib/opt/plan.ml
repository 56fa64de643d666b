open Mqr_storage

type bound = (Value.t * bool) option

type est = {
  rows : float;
  width : float;
  op_ms : float;
  total_ms : float;
}

(* A candidate runtime-filter site the optimizer attached to a join: the
   build/left side's key values, published at run time as a bloom filter
   plus min-max bounds, prune the probe/right-side scans that own
   [rf_probe_col].  [rf_sel] is the estimated fraction of probe rows
   passing the filter. *)
type rf = {
  rf_build_col : string;
  rf_probe_col : string;
  rf_sel : float;
  rf_sites : string list;  (* aliases of probe-side scans owning the column *)
}

type node =
  | Seq_scan of { table : string; alias : string; filter : Mqr_expr.Expr.t option }
  | Index_scan of {
      table : string;
      alias : string;
      index_col : string;
      lo : bound;
      hi : bound;
      filter : Mqr_expr.Expr.t option;
    }
  | Hash_join of {
      build : t;
      probe : t;
      keys : (string * string) list;
      extra : Mqr_expr.Expr.t option;
      rf : rf list;
    }
  | Index_nl_join of {
      outer : t;
      table : string;
      alias : string;
      outer_col : string;
      inner_col : string;
      inner_filter : Mqr_expr.Expr.t option;
      extra : Mqr_expr.Expr.t option;
    }
  | Block_nl_join of { outer : t; inner : t; pred : Mqr_expr.Expr.t option }
  | Merge_join of {
      left : t;
      right : t;
      keys : (string * string) list;
      extra : Mqr_expr.Expr.t option;
      left_sorted : bool;
      right_sorted : bool;
      rf : rf list;
    }
  | Aggregate of {
      input : t;
      group_by : string list;
      aggs : Mqr_exec.Aggregate.spec list;
    }
  | Filter of { input : t; pred : Mqr_expr.Expr.t }
  | Sort of { input : t; keys : (string * bool) list }
  | Project of { input : t; cols : string list }
  | Limit of { input : t; n : int }
  | Collect of { input : t; spec : Mqr_exec.Collector.spec; cid : int }
  | Materialized of { name : string; covers : string list; bytes : int }

and t = {
  id : int;
  node : node;
  schema : Schema.t;
  est : est;
  min_mem : int;
  max_mem : int;
  mutable mem : int;
  dop : int;
      (* degree of parallelism: how many partitions the operator splits its
         work into (1 = serial).  Part of the plan, so it is deterministic
         and re-chosen on re-optimization. *)
}

let children t =
  match t.node with
  | Seq_scan _ | Index_scan _ | Materialized _ -> []
  | Hash_join { build; probe; _ } -> [ build; probe ]
  | Index_nl_join { outer; _ } -> [ outer ]
  | Block_nl_join { outer; inner; _ } -> [ outer; inner ]
  | Merge_join { left; right; _ } -> [ left; right ]
  | Aggregate { input; _ } | Sort { input; _ } | Project { input; _ }
  | Limit { input; _ } | Collect { input; _ } | Filter { input; _ } ->
    [ input ]

let with_children t kids =
  let node =
    match t.node, kids with
    | (Seq_scan _ | Index_scan _ | Materialized _), [] -> t.node
    | Hash_join j, [ build; probe ] -> Hash_join { j with build; probe }
    | Index_nl_join j, [ outer ] -> Index_nl_join { j with outer }
    | Block_nl_join j, [ outer; inner ] -> Block_nl_join { j with outer; inner }
    | Merge_join j, [ left; right ] -> Merge_join { j with left; right }
    | Aggregate a, [ input ] -> Aggregate { a with input }
    | Sort s, [ input ] -> Sort { s with input }
    | Filter f, [ input ] -> Filter { f with input }
    | Project p, [ input ] -> Project { p with input }
    | Limit l, [ input ] -> Limit { l with input }
    | Collect c, [ input ] -> Collect { c with input }
    | _ -> invalid_arg "Plan.with_children: arity mismatch"
  in
  { t with node }

let is_memory_consumer t =
  match t.node with
  | Hash_join _ | Block_nl_join _ | Merge_join _ | Aggregate _ | Sort _ ->
    true
  | Seq_scan _ | Index_scan _ | Index_nl_join _ | Project _ | Limit _
  | Collect _ | Materialized _ | Filter _ -> false

let rec fold f acc t =
  List.fold_left (fold f) (f acc t) (children t)

let nodes t = List.rev (fold (fun acc n -> n :: acc) [] t)

let aliases t =
  let rec go acc t =
    match t.node with
    | Seq_scan { alias; _ } | Index_scan { alias; _ } -> alias :: acc
    | Index_nl_join { outer; alias; _ } -> go (alias :: acc) outer
    | Materialized { covers; _ } -> List.rev_append covers acc
    | _ -> List.fold_left go acc (children t)
  in
  List.rev (go [] t)

(* Columns by which the output of a node arrives in ascending order: index
   scans deliver key order, merge joins deliver their (equal-valued) key
   columns, sorts deliver their leading ascending key, and order-preserving
   operators pass their input's orders through. *)
let rec orders_of t =
  match t.node with
  | Index_scan { index_col; _ } -> [ index_col ]
  | Merge_join { keys = (l, r) :: _; _ } -> [ l; r ]
  | Sort { keys = (c, true) :: _; _ } -> [ c ]
  | Index_nl_join { outer; _ } -> orders_of outer
  | Collect { input; _ } | Limit { input; _ } | Filter { input; _ } ->
    orders_of input
  | Project { input; cols; _ } ->
    List.filter (fun c -> List.mem c cols) (orders_of input)
  | Seq_scan _ | Hash_join _ | Block_nl_join _ | Merge_join _ | Aggregate _
  | Sort _ | Materialized _ -> []

let is_join t =
  match t.node with
  | Hash_join _ | Index_nl_join _ | Block_nl_join _ | Merge_join _ -> true
  | _ -> false

let join_count t = fold (fun acc n -> if is_join n then acc + 1 else acc) 0 t

let op_name t =
  match t.node with
  | Seq_scan { alias; _ } -> "seq_scan(" ^ alias ^ ")"
  | Index_scan { alias; index_col; _ } ->
    Printf.sprintf "index_scan(%s on %s)" alias index_col
  | Hash_join { keys; _ } ->
    Printf.sprintf "hash_join(%s)"
      (String.concat ", " (List.map (fun (p, b) -> p ^ "=" ^ b) keys))
  | Index_nl_join { outer_col; inner_col; _ } ->
    Printf.sprintf "index_nl_join(%s=%s)" outer_col inner_col
  | Block_nl_join _ -> "block_nl_join"
  | Merge_join { keys; _ } ->
    Printf.sprintf "merge_join(%s)"
      (String.concat ", " (List.map (fun (l, r) -> l ^ "=" ^ r) keys))
  | Aggregate { group_by; _ } ->
    Printf.sprintf "aggregate(by %s)" (String.concat ", " group_by)
  | Sort { keys; _ } ->
    Printf.sprintf "sort(%s)" (String.concat ", " (List.map fst keys))
  | Project { cols; _ } -> Printf.sprintf "project(%d cols)" (List.length cols)
  | Filter { pred; _ } ->
    Printf.sprintf "filter(%s)" (Mqr_expr.Expr.to_sql pred)
  | Limit { n; _ } -> Printf.sprintf "limit(%d)" n
  | Collect { spec; cid; _ } ->
    Printf.sprintf "collect#%d(%d hists, %d distincts)" cid
      (List.length spec.Mqr_exec.Collector.hist_cols)
      (List.length spec.Mqr_exec.Collector.distinct_cols)
  | Materialized { name; _ } -> Printf.sprintf "materialized(%s)" name

let rec pp_indented fmt ~indent t =
  let pad = String.make indent ' ' in
  Fmt.pf fmt "%s%s  [rows=%.0f width=%.0f op=%.1fms total=%.1fms" pad
    (op_name t) t.est.rows t.est.width t.est.op_ms t.est.total_ms;
  if is_memory_consumer t then
    Fmt.pf fmt " mem=%d/%d..%d" t.mem t.min_mem t.max_mem;
  if t.dop > 1 then Fmt.pf fmt " dop=%d" t.dop;
  (match t.node with
   | Merge_join { left_sorted; right_sorted; _ }
     when left_sorted || right_sorted ->
     Fmt.pf fmt " pre-sorted:%s%s"
       (if left_sorted then "L" else "")
       (if right_sorted then "R" else "")
   | _ -> ());
  (match t.node with
   | Hash_join { rf = _ :: _ as rf; _ } | Merge_join { rf = _ :: _ as rf; _ } ->
     Fmt.pf fmt " rf:[%s]"
       (String.concat "; "
          (List.map
             (fun f ->
                Printf.sprintf "%s~%.2f@%s" f.rf_probe_col f.rf_sel
                  (String.concat "," f.rf_sites))
             rf))
   | _ -> ());
  Fmt.pf fmt "]@.";
  List.iter (pp_indented fmt ~indent:(indent + 2)) (children t)

let pp fmt t = pp_indented fmt ~indent:0 t

let to_string t = Fmt.str "%a" pp t
