open Mqr_storage
module Expr = Mqr_expr.Expr
module Catalog = Mqr_catalog.Catalog

exception Bind_error of string

type relation = {
  table : string;
  alias : string;
  rel_schema : Schema.t;
}

type agg = {
  fn : Ast.agg_fn;
  distinct_arg : bool;
  arg : Expr.t option;
  out_name : string;
}

type t = {
  relations : relation list;
  conjuncts : Expr.t list;
  select_cols : string list;
  aggs : agg list;
  group_by : string list;
  having : Expr.t option;
  order_by : (string * bool) list;
  limit : int option;
}

let err fmt = Format.kasprintf (fun s -> raise (Bind_error s)) fmt

let input_schema t =
  List.fold_left
    (fun acc r -> Schema.concat acc r.rel_schema)
    (Schema.make []) t.relations

(* Rewrite every column reference in [e] to its fully qualified form. *)
let qualify_expr schema e =
  let qualify_col c =
    match Schema.index_of schema c with
    | i -> Expr.Col (Schema.qualified_name (Schema.column schema i))
    | exception Not_found -> err "unknown column %s" c
    | exception Schema.Ambiguous c -> err "ambiguous column %s" c
  in
  let rec go e =
    match e with
    | Expr.Col c -> qualify_col c
    | Expr.Const _ -> e
    | Expr.Arith (op, a, b) -> Expr.Arith (op, go a, go b)
    | Expr.Cmp (op, a, b) -> Expr.Cmp (op, go a, go b)
    | Expr.Between (x, lo, hi) -> Expr.Between (go x, go lo, go hi)
    | Expr.And (a, b) -> Expr.And (go a, go b)
    | Expr.Or (a, b) -> Expr.Or (go a, go b)
    | Expr.Not a -> Expr.Not (go a)
    | Expr.Udf u -> Expr.Udf { u with Expr.args = List.map go u.Expr.args }
  in
  go e

let qualify_col_name schema c =
  match qualify_expr schema (Expr.Col c) with
  | Expr.Col q -> q
  | _ -> assert false

let bind catalog (q : Ast.query) =
  if q.Ast.select = [] then err "empty select list";
  if q.Ast.distinct && List.exists
       (fun item -> match item with Ast.Agg_item _ -> true | _ -> false)
       q.Ast.select
  then err "SELECT DISTINCT with aggregates is not supported";
  if q.Ast.from = [] then err "empty from list";
  (* Relations *)
  let relations =
    List.map
      (fun (table, alias) ->
         match Catalog.find catalog table with
         | None -> err "unknown table %s" table
         | Some tbl ->
           let alias = Option.value ~default:table alias in
           { table;
             alias;
             rel_schema = Schema.qualify (Heap_file.schema tbl.Catalog.heap) alias })
      q.Ast.from
  in
  let aliases = List.map (fun r -> r.alias) relations in
  let dedup = List.sort_uniq String.compare aliases in
  if List.length dedup <> List.length aliases then err "duplicate relation alias";
  let schema =
    List.fold_left (fun acc r -> Schema.concat acc r.rel_schema)
      (Schema.make []) relations
  in
  (* WHERE *)
  let conjuncts =
    match q.Ast.where with
    | None -> []
    | Some e -> Expr.conjuncts (qualify_expr schema e)
  in
  (* GROUP BY *)
  let group_by = List.map (qualify_col_name schema) q.Ast.group_by in
  (* SELECT *)
  let agg_counter = ref 0 in
  let fresh_agg_name fn =
    incr agg_counter;
    Printf.sprintf "%s_%d" (Ast.agg_fn_to_string fn) !agg_counter
  in
  let select_cols = ref [] and aggs = ref [] in
  List.iter
    (fun item ->
       match item with
       | Ast.Star ->
         List.iter
           (fun col ->
              select_cols :=
                (col.Schema.qualifier ^ "." ^ col.Schema.name) :: !select_cols)
           (Schema.columns schema)
       | Ast.Expr_item (Expr.Col c, alias) ->
         let qc = qualify_col_name schema c in
         ignore alias;
         select_cols := qc :: !select_cols
       | Ast.Expr_item (_, _) ->
         err "only plain columns and aggregates are supported in SELECT"
       | Ast.Agg_item (fn, distinct_arg, arg, alias) ->
         let arg = Option.map (qualify_expr schema) arg in
         let out_name = Option.value ~default:(fresh_agg_name fn) alias in
         aggs := { fn; distinct_arg; arg; out_name } :: !aggs)
    q.Ast.select;
  let select_cols = List.rev !select_cols and aggs = List.rev !aggs in
  (* SELECT DISTINCT c1, c2 is GROUP BY c1, c2 with no aggregates *)
  let group_by =
    if q.Ast.distinct && aggs = [] && group_by = [] then select_cols
    else group_by
  in
  (* Aggregate validation *)
  if aggs <> [] || group_by <> [] then begin
    List.iter
      (fun c ->
         if not (List.mem c group_by) then
           err "non-aggregate output column %s not in GROUP BY" c)
      select_cols
  end;
  (* HAVING: resolved against the aggregate's output schema (group columns
     keep their qualifiers; aggregate outputs are bare names) *)
  let having =
    match q.Ast.having with
    | None -> None
    | Some _ when aggs = [] && group_by = [] ->
      err "HAVING requires GROUP BY or aggregates"
    | Some pred ->
      let out_schema =
        let group_cols =
          List.map (fun g -> Schema.column schema (Schema.index_of schema g))
            group_by
        in
        let agg_cols =
          List.map
            (fun (a : agg) ->
               (* type refined later by output_schema; TBool is fine for
                  name resolution *)
               Schema.col a.out_name Value.TFloat)
            aggs
        in
        Schema.make (group_cols @ agg_cols)
      in
      Some (qualify_expr out_schema pred)
  in
  (* ORDER BY: resolve against output names (group cols, agg names, or
     plain qualified columns). *)
  let output_names =
    if aggs <> [] || group_by <> [] then
      group_by @ List.map (fun a -> a.out_name) aggs
    else select_cols
  in
  let order_by =
    List.map
      (fun { Ast.key; asc } ->
         let resolved =
           if List.mem key output_names then key
           else begin
             match qualify_col_name schema key with
             | q when List.mem q output_names -> q
             | q ->
               if aggs = [] && group_by = [] then q
               else err "ORDER BY column %s is not in the output" key
             | exception Bind_error _ ->
               (* maybe it's an aggregate alias with qualification *)
               err "cannot resolve ORDER BY column %s" key
           end
         in
         (resolved, asc))
      q.Ast.order_by
  in
  { relations;
    conjuncts;
    select_cols;
    aggs;
    group_by;
    having;
    order_by;
    limit = q.Ast.limit }

let agg_type schema (a : agg) =
  match a.fn, a.arg with
  | Ast.Count, _ -> Value.TInt
  | Ast.Avg, _ -> Value.TFloat
  | (Ast.Sum | Ast.Min | Ast.Max), Some e -> Mqr_expr.Expr.type_of schema e
  | (Ast.Sum | Ast.Min | Ast.Max), None -> err "%s requires an argument" (Ast.agg_fn_to_string a.fn)

let output_schema _catalog t =
  let schema = input_schema t in
  if t.aggs = [] && t.group_by = [] then begin
    let idxs = List.map (Schema.index_of schema) t.select_cols in
    Schema.project schema idxs
  end
  else begin
    let group_cols =
      List.map
        (fun g ->
           let i = Schema.index_of schema g in
           Schema.column schema i)
        t.group_by
    in
    let agg_cols =
      List.map
        (fun a -> Schema.col a.out_name (agg_type schema a))
        t.aggs
    in
    Schema.make (group_cols @ agg_cols)
  end

let read_columns t =
  List.sort_uniq String.compare
    (List.concat_map Expr.columns t.conjuncts
     @ t.group_by
     @ List.map fst t.order_by)

let needed_columns t =
  let held =
    List.concat_map
      (fun r -> List.map Schema.qualified_name (Schema.columns r.rel_schema))
      t.relations
  in
  List.filter (fun c -> List.mem c held)
  @@ List.sort_uniq String.compare
    (List.concat_map Expr.columns t.conjuncts
     @ t.select_cols
     @ t.group_by
     @ List.concat_map
         (fun a -> Option.fold ~none:[] ~some:Expr.columns a.arg)
         t.aggs
     @ List.map fst t.order_by
     @ Option.fold ~none:[] ~some:Expr.columns t.having)

(* Number of join operators any plan for this block will contain.  The
   paper classifies queries by this count; note it is relations - 1, not
   the number of join conjuncts (a query can carry redundant equalities,
   e.g. TPC-D Q5's c_nationkey = s_nationkey). *)
let join_count t = max 0 (List.length t.relations - 1)
