open Mqr_storage

type index = {
  column : string;
  position : int;  (* the column's position in the table's schema *)
  mutable tree : Btree.t option;  (* [None] while stale *)
}

type scan_summary = {
  range : (Value.t * Value.t) option;
  nulls : int;
  distinct : float option;
  histogram : (Mqr_stats.Histogram.t * (string * float) list option) option;
}

(* each heap column's summary, all kept at heap generation [generation] *)
type summaries = { generation : int; columns : scan_summary option array }

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
  mutable summaries : summaries;
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
      temp;
      summaries = { generation = -1; columns = [||] } }
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

let version tbl = (tbl.updates_since_analyze, tbl.stats_epoch)

let scan_summary tbl i =
  if tbl.summaries.generation <> Heap_file.generation tbl.heap then None
  else tbl.summaries.columns.(i)

let keep_scan_summary tbl i summary =
  let generation = Heap_file.generation tbl.heap in
  if tbl.summaries.generation <> generation then
    tbl.summaries <-
      { generation;
        columns = Array.make (Schema.arity (Heap_file.schema tbl.heap)) None };
  tbl.summaries.columns.(i) <- Some summary

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

(* Column [i]'s non-null values, from the last rid down: the order the
   statistics have always met them in. *)
let non_null heap i =
  let count = ref 0 in
  Heap_file.iter heap (fun _ row -> if not (Value.is_null row.(i)) then incr count);
  let out = Array.make !count Value.Null and k = ref 0 in
  for rid = Heap_file.tuple_count heap - 1 downto 0 do
    let v = (Heap_file.get heap rid).(i) in
    if not (Value.is_null v) then begin
      out.(!k) <- v;
      incr k
    end
  done;
  out

(* One pass over a coded column's codes for [n] rows, from the last rid
   down: each live non-null code's box, in the order the reverse-rid
   values first meet it, and how many rows hold it.  Codes whose rows were
   all deleted are never met. *)
let counted codes n =
  let count = Array.make (Heap_file.code_count codes) 0 in
  let order = Array.make (Array.length count) 0 and met = ref 0 in
  for rid = n - 1 downto 0 do
    let c = Heap_file.code codes rid in
    if c <> 0 then begin
      if count.(c) = 0 then begin
        order.(!met) <- c;
        incr met
      end;
      count.(c) <- count.(c) + 1
    end
  done;
  let order = Array.sub order 0 !met in
  (Array.map (Heap_file.code_box codes) order, Array.map (fun c -> count.(c)) order)

let analyze_table ?(kind = Mqr_stats.Histogram.Maxdiff) ?(buckets = 32)
    ?(keys = []) t name =
  let table = find_exn t name in
  let schema = Heap_file.schema table.heap in
  table.stats <-
    Array.init (Schema.arity schema) (fun i ->
        let is_key = List.mem (Schema.column schema i).Schema.name keys in
        let by_codes =
          Option.bind (Heap_file.codes table.heap i) (fun codes ->
              let boxes, counts = counted codes (Heap_file.tuple_count table.heap) in
              Column_stats.of_counts ~kind ~buckets ~is_key boxes counts)
        in
        match by_codes with
        | Some stats -> stats
        | None -> Column_stats.of_values ~kind ~buckets ~is_key (non_null table.heap i));
  table.believed_rows <- Heap_file.tuple_count table.heap;
  table.believed_pages <- Heap_file.page_count table.heap;
  table.updates_since_analyze <- 0;
  table.stats_epoch <- table.stats_epoch + 1

(* One [Btree.insert] per non-null cell, in rid order. *)
let build_tree heap position =
  let tree = Btree.create () in
  Heap_file.iter heap (fun rid tuple ->
      let v = tuple.(position) in
      if not (Value.is_null v) then Btree.insert tree v rid);
  tree

let create_index t ~table ~column =
  let tbl = find_exn t table in
  match column_index tbl column with
  | None -> invalid_arg ("Catalog.create_index: no column " ^ column)
  | Some position ->
    let index = { column; position; tree = Some (build_tree tbl.heap position) } in
    tbl.indexes <- index :: tbl.indexes;
    index

let index_tree tbl ix =
  match ix.tree with
  | Some tree -> tree
  | None ->
    let tree = build_tree tbl.heap ix.position in
    ix.tree <- Some tree;
    tree

let insert_row tbl tuple =
  let rid = Heap_file.tuple_count tbl.heap in
  Heap_file.append tbl.heap tuple;
  List.iter
    (fun ix ->
       match ix.tree with
       | Some tree ->
         let v = tuple.(ix.position) in
         if not (Value.is_null v) then Btree.insert tree v rid
       | None -> ())
    tbl.indexes

let delete_rows tbl keep =
  let deleted = Heap_file.retain tbl.heap keep in
  if deleted > 0 then List.iter (fun ix -> ix.tree <- None) tbl.indexes;
  deleted

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
