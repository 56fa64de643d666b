module Catalog = Mqr_catalog.Catalog
module Column_stats = Mqr_catalog.Column_stats
module Query = Mqr_sql.Query
module Stats_env = Mqr_opt.Stats_env
module Dispatcher = Mqr_core.Dispatcher
module Schema = Mqr_storage.Schema

(* Snapshot of a table's [Catalog.version] at publish time: any movement
   of either number invalidates every observation made against the old
   contents. *)
type 'a entry = {
  value : 'a;
  v : int * int;
}

type t = {
  cols : (string * string, Column_stats.t entry) Hashtbl.t;
      (* (table, bare column) -> observed statistics *)
  cards : (string, int entry) Hashtbl.t;  (* table -> exact cardinality *)
  mutable published : int;
  mutable applied : int;
}

let create () =
  { cols = Hashtbl.create 32;
    cards = Hashtbl.create 8;
    published = 0;
    applied = 0 }

let version_of catalog table =
  Option.map Catalog.version (Catalog.find catalog table)

(* Qualified column "alias.col" -> (table, bare col) via the query's
   relation list; None for unqualified or unknown aliases and for temp
   tables introduced by plan switches. *)
let resolve (q : Query.t) column =
  match Schema.split_ref column with
  | "", _ -> None
  | alias, bare ->
    List.find_map
      (fun (r : Query.relation) ->
         if r.Query.alias = alias then Some (r.Query.table, bare) else None)
      q.Query.relations

let publish t catalog (q : Query.t) (report : Dispatcher.report) =
  List.iter
    (fun (column, stats) ->
       match resolve q column with
       | None -> ()
       | Some (table, bare) ->
         (match version_of catalog table with
          | None -> ()
          | Some v ->
            Hashtbl.replace t.cols (table, bare) { value = stats; v };
            t.published <- t.published + 1))
    report.Dispatcher.observed_stats;
  List.iter
    (fun (alias, rows) ->
       match
         List.find_opt (fun (r : Query.relation) -> r.Query.alias = alias)
           q.Query.relations
       with
       | None -> ()
       | Some r ->
         (match version_of catalog r.Query.table with
          | None -> ()
          | Some v ->
            Hashtbl.replace t.cards r.Query.table { value = rows; v };
            t.published <- t.published + 1))
    report.Dispatcher.observed_cards

(* Validity check with eager eviction: a hit against a moved table drops
   the entry so the cache never serves it again. *)
let fresh tbl key now =
  match Hashtbl.find_opt tbl key with
  | None -> None
  | Some entry ->
    if Some entry.v = now then Some entry.value
    else begin
      Hashtbl.remove tbl key;
      None
    end

let overlay t catalog (q : Query.t) env =
  List.iter
    (fun (r : Query.relation) ->
       let table = r.Query.table in
       let now = version_of catalog table in
       (match fresh t.cards table now with
        | Some rows ->
          Stats_env.override_rows env ~alias:r.Query.alias
            ~rows:(float_of_int rows);
          t.applied <- t.applied + 1
        | None -> ());
       List.iter
         (fun (col : Schema.column) ->
            match fresh t.cols (table, col.Schema.name) now with
            | Some stats ->
              Stats_env.override env ~column:(Schema.qualified_name col) stats;
              t.applied <- t.applied + 1
            | None -> ())
         (Schema.columns r.Query.rel_schema))
    q.Query.relations

let published t = t.published
let applied t = t.applied
