open Mqr_storage
module Catalog = Mqr_catalog.Catalog
module Column_stats = Mqr_catalog.Column_stats
module Query = Mqr_sql.Query

type rel_info = {
  alias : string;
  table : string;
  rows : float;
  pages : float;
  rel_schema : Schema.t;
  col_stats : (string * Column_stats.t) list;
  indexed_cols : string list;
}

type t = {
  mutable rels : rel_info list;
  columns : (string, Column_stats.t) Hashtbl.t;
      (* catalog statistics by qualified column: the first relation (and
         the first entry within it) to list a column wins *)
  overrides : (string, Column_stats.t) Hashtbl.t;
  local_selectivity : (string, float) Hashtbl.t;  (* by relation alias *)
}

let rel_info_of catalog (r : Query.relation) =
  let tbl = Catalog.find_exn catalog r.Query.table in
  let schema = r.Query.rel_schema in
  (* heavy update activity since ANALYZE makes every statistic on the
     table one level less trustworthy (paper Section 2.5) *)
  let heavily_updated = Catalog.update_ratio tbl > 0.1 in
  let col_stats =
    List.mapi
      (fun i col ->
         let stats =
           if i < Array.length tbl.Catalog.stats then tbl.Catalog.stats.(i)
           else Column_stats.empty
         in
         let stats =
           if heavily_updated then Column_stats.mark_stale stats else stats
         in
         (Schema.qualified_name col, stats))
      (Schema.columns schema)
  in
  let indexed_cols =
    List.filter_map
      (fun col ->
         match Catalog.find_index tbl ~column:col.Schema.name with
         | Some _ -> Some (Schema.qualified_name col)
         | None -> None)
      (Schema.columns schema)
  in
  { alias = r.Query.alias;
    table = r.Query.table;
    rows = float_of_int tbl.Catalog.believed_rows;
    pages = float_of_int tbl.Catalog.believed_pages;
    rel_schema = schema;
    col_stats;
    indexed_cols }

let create catalog relations =
  let rels = List.map (rel_info_of catalog) relations in
  let columns = Hashtbl.create 64 in
  List.iter
    (fun r ->
       List.iter
         (fun (c, s) ->
            if not (Hashtbl.mem columns c) then Hashtbl.add columns c s)
         r.col_stats)
    rels;
  { rels;
    columns;
    overrides = Hashtbl.create 16;
    local_selectivity = Hashtbl.create 4 }

let relations t = t.rels

let rel t ~alias =
  match List.find_opt (fun r -> r.alias = alias) t.rels with
  | Some r -> r
  | None -> invalid_arg ("Stats_env.rel: unknown alias " ^ alias)

let override t ~column stats = Hashtbl.replace t.overrides column stats

let override_rows t ~alias ~rows =
  t.rels <-
    List.map
      (fun r ->
         if r.alias = alias then
           { r with rows; pages = Float.max 1.0 (rows *. r.pages /. Float.max 1.0 r.rows) }
         else r)
      t.rels

let stats_of t column =
  match Hashtbl.find_opt t.overrides column with
  | Some s -> Some s
  | None -> Hashtbl.find_opt t.columns column

let selectivity_env t = { Mqr_expr.Selectivity.stats_of = stats_of t }

let owns r column = List.mem_assoc column r.col_stats

let override_local_selectivity t ~alias ~selectivity =
  Hashtbl.replace t.local_selectivity alias selectivity

let local_selectivity t ~alias = Hashtbl.find_opt t.local_selectivity alias
