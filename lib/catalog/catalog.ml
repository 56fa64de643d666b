open Mqr_storage

type index = {
  column : string;
  btree : Btree.t;
}

type table = {
  name : string;
  heap : Heap_file.t;
  mutable believed_rows : int;
  mutable believed_pages : int;
  mutable stats : Column_stats.t array;
  mutable indexes : index list;
  mutable updates_since_analyze : int;
  mutable stats_epoch : int;
  temp : bool;
}

type t = { tbls : (string, table) Hashtbl.t }

let create () = { tbls = Hashtbl.create 16 }

let add ~temp t name heap =
  if Hashtbl.mem t.tbls name then
    invalid_arg ("Catalog.add_table: duplicate table " ^ name);
  let table =
    { name;
      heap;
      believed_rows = Heap_file.tuple_count heap;
      believed_pages = Heap_file.page_count heap;
      stats = Array.make (Schema.arity (Heap_file.schema heap)) Column_stats.empty;
      indexes = [];
      updates_since_analyze = 0;
      stats_epoch = 0;
      temp }
  in
  Hashtbl.replace t.tbls name table;
  table

let add_table = add ~temp:false
let add_temp = add ~temp:true

let find t name = Hashtbl.find_opt t.tbls name

let find_exn t name =
  match find t name with
  | Some tbl -> tbl
  | None -> invalid_arg ("Catalog.find_exn: no table " ^ name)

let drop_table t name = Hashtbl.remove t.tbls name

let tables t = Hashtbl.fold (fun _ tbl acc -> tbl :: acc) t.tbls []

let column_index table name =
  let schema = Heap_file.schema table.heap in
  let rec go i =
    if i >= Schema.arity schema then None
    else if (Schema.column schema i).Schema.name = name then Some i
    else go (i + 1)
  in
  go 0

let column_stats table name =
  match column_index table name with
  | Some i -> Some table.stats.(i)
  | None -> None

let analyze_table ?(kind = Mqr_stats.Histogram.Maxdiff) ?(buckets = 32)
    ?(keys = []) t name =
  let table = find_exn t name in
  let schema = Heap_file.schema table.heap in
  let arity = Schema.arity schema in
  let columns = Array.make arity [] in
  Heap_file.iter table.heap (fun _ tuple ->
      for i = 0 to arity - 1 do
        columns.(i) <- tuple.(i) :: columns.(i)
      done);
  table.stats <-
    Array.mapi
      (fun i values ->
         let is_key = List.mem (Schema.column schema i).Schema.name keys in
         Column_stats.analyze ~kind ~buckets ~is_key values)
      columns;
  table.believed_rows <- Heap_file.tuple_count table.heap;
  table.believed_pages <- Heap_file.page_count table.heap;
  table.updates_since_analyze <- 0;
  table.stats_epoch <- table.stats_epoch + 1

let create_index t ~table ~column =
  let tbl = find_exn t table in
  match column_index tbl column with
  | None -> invalid_arg ("Catalog.create_index: no column " ^ column)
  | Some ci ->
    let btree = Btree.create () in
    Heap_file.iter tbl.heap (fun rid tuple ->
        if not (Value.is_null tuple.(ci)) then Btree.insert btree tuple.(ci) rid);
    let index = { column; btree } in
    tbl.indexes <- index :: tbl.indexes;
    index

let rebuild_indexes t ~table =
  let tbl = find_exn t table in
  let columns = List.map (fun ix -> ix.column) tbl.indexes in
  tbl.indexes <- [];
  List.iter (fun column -> ignore (create_index t ~table ~column)) columns

let note_updates t ~table n =
  let tbl = find_exn t table in
  tbl.updates_since_analyze <- tbl.updates_since_analyze + n

let update_ratio tbl =
  if tbl.believed_rows <= 0 then
    if tbl.updates_since_analyze > 0 then 1.0 else 0.0
  else float_of_int tbl.updates_since_analyze /. float_of_int tbl.believed_rows

let find_index table ~column =
  List.find_opt (fun ix -> ix.column = column) table.indexes

let update_stats t ~table ~column f =
  let tbl = find_exn t table in
  match column_index tbl column with
  | None -> invalid_arg ("Catalog: no column " ^ column)
  | Some i -> tbl.stats.(i) <- f tbl.stats.(i)

let degrade_drop_histogram t ~table ~column =
  update_stats t ~table ~column Column_stats.drop_histogram

let degrade_drop_column_stats t ~table ~column =
  update_stats t ~table ~column (fun st ->
      { Column_stats.empty with Column_stats.is_key = st.Column_stats.is_key })

let degrade_mark_stale t ~table ~column =
  update_stats t ~table ~column Column_stats.mark_stale

let degrade_scale_cardinality t ~table factor =
  let tbl = find_exn t table in
  tbl.believed_rows <-
    max 1 (int_of_float (float_of_int tbl.believed_rows *. factor));
  tbl.believed_pages <-
    max 1 (int_of_float (float_of_int tbl.believed_pages *. factor))

let degrade_set_histogram_kind t ~table ~kind =
  let tbl = find_exn t table in
  let schema = Heap_file.schema tbl.heap in
  let keys =
    List.filteri (fun i _ -> tbl.stats.(i).Column_stats.is_key)
      (List.map (fun c -> c.Schema.name) (Schema.columns schema))
  in
  analyze_table ~kind ~keys t table
