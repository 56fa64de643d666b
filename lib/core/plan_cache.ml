module Catalog = Mqr_catalog.Catalog
module Plan = Mqr_opt.Plan
module Query = Mqr_sql.Query

type entry = {
  plan : Plan.t;
  query : Query.t;
  collectors : int;
}

type stored = {
  e : entry;
  (* (update counter, stats epoch) of the referenced tables at caching
     time *)
  table_versions : (string * (int * int)) list;
  ordinal : int;  (* when the key was stored: the least is evicted first *)
}

type t = {
  capacity : int;
  table : (string, stored) Hashtbl.t;
  mutable stores : int;
  mutable hits : int;
  mutable misses : int;
}

let create ?(capacity = 64) () =
  { capacity;
    table = Hashtbl.create 32;
    stores = 0;
    hits = 0;
    misses = 0 }

(* A plan is stale when a referenced table disappeared, had its statistics
   refreshed by ANALYZE (the stats epoch moved: the plan was costed under
   numbers that no longer exist), or has seen more than 10% extra update
   activity since caching. *)
let still_valid catalog stored =
  List.for_all
    (fun (table, (cached_updates, cached_epoch)) ->
       match Catalog.find catalog table with
       | None -> false
       | Some tbl ->
         let now, epoch = Catalog.version tbl in
         if epoch <> cached_epoch then false
         else if now < cached_updates then false
         else begin
           let believed = max 1 tbl.Catalog.believed_rows in
           float_of_int (now - cached_updates) /. float_of_int believed <= 0.1
         end)
    stored.table_versions

let versions catalog (q : Query.t) =
  List.filter_map
    (fun (r : Query.relation) ->
       match Catalog.find catalog r.Query.table with
       | Some tbl -> Some (r.Query.table, Catalog.version tbl)
       | None -> None)
    q.Query.relations

let find t catalog sql =
  match Hashtbl.find_opt t.table sql with
  | Some stored when still_valid catalog stored ->
    t.hits <- t.hits + 1;
    Some stored.e
  | Some _ ->
    Hashtbl.remove t.table sql;
    t.misses <- t.misses + 1;
    None
  | None ->
    t.misses <- t.misses + 1;
    None

let store t catalog sql ~plan ~query ~collectors =
  let ordinal =
    match Hashtbl.find_opt t.table sql with
    | Some stored -> stored.ordinal
    | None ->
      if Hashtbl.length t.table >= t.capacity then begin
        let older key s (k, o) = if s.ordinal < o then (key, s.ordinal) else (k, o) in
        Hashtbl.remove t.table (fst (Hashtbl.fold older t.table ("", max_int)))
      end;
      t.stores <- t.stores + 1;
      t.stores
  in
  Hashtbl.replace t.table sql
    { e = { plan; query; collectors };
      table_versions = versions catalog query;
      ordinal }

let hits t = t.hits
let misses t = t.misses
let size t = Hashtbl.length t.table
