open Mqr_storage
module Catalog = Mqr_catalog.Catalog
module Column_stats = Mqr_catalog.Column_stats
module Histogram = Mqr_stats.Histogram

let build_catalog () =
  let catalog = Catalog.create () in
  let schema =
    Schema.make
      [ Schema.col "id" Value.TInt;
        Schema.col "grp" Value.TInt;
        Schema.col "name" Value.TString ]
  in
  let heap = Heap_file.create schema in
  for i = 0 to 999 do
    Heap_file.append heap
      [| Value.Int i; Value.Int (i mod 10);
         Value.String (Printf.sprintf "n%d" (i mod 5)) |]
  done;
  ignore (Catalog.add_table catalog "items" heap);
  Catalog.analyze_table ~keys:[ "id" ] catalog "items";
  catalog

let test_analyze_basics () =
  let catalog = build_catalog () in
  let tbl = Catalog.find_exn catalog "items" in
  Alcotest.(check int) "believed rows" 1000 tbl.Catalog.believed_rows;
  match Catalog.column_stats tbl "grp" with
  | Some st ->
    Alcotest.(check bool) "distinct 10" true
      (match st.Column_stats.distinct with Some d -> abs_float (d -. 10.) < 0.5 | None -> false);
    Alcotest.(check bool) "has histogram" true (st.Column_stats.histogram <> None);
    Alcotest.(check bool) "min 0" true
      (match st.Column_stats.min_v with Some v -> Value.equal v (Value.Int 0) | None -> false)
  | None -> Alcotest.fail "no stats"

let test_key_flag () =
  let catalog = build_catalog () in
  let tbl = Catalog.find_exn catalog "items" in
  Alcotest.(check bool) "id is key" true
    (match Catalog.column_stats tbl "id" with
     | Some st -> st.Column_stats.is_key
     | None -> false);
  Alcotest.(check bool) "grp not key" false
    (match Catalog.column_stats tbl "grp" with
     | Some st -> st.Column_stats.is_key
     | None -> true)

let test_string_dictionary () =
  let catalog = build_catalog () in
  let tbl = Catalog.find_exn catalog "items" in
  match Catalog.column_stats tbl "name" with
  | Some st ->
    Alcotest.(check bool) "dict present" true (st.Column_stats.dict <> None);
    (match Column_stats.to_domain st (Value.String "n3") with
     | Some _ -> ()
     | None -> Alcotest.fail "known string maps");
    (match Column_stats.to_domain st (Value.String "missing") with
     | None -> ()
     | Some _ -> Alcotest.fail "unknown string should not map")
  | None -> Alcotest.fail "no stats"

let test_degrade_drop_histogram () =
  let catalog = build_catalog () in
  Catalog.degrade_drop_histogram catalog ~table:"items" ~column:"grp";
  let tbl = Catalog.find_exn catalog "items" in
  Alcotest.(check bool) "histogram gone" true
    (match Catalog.column_stats tbl "grp" with
     | Some st -> st.Column_stats.histogram = None
     | None -> false)

let test_degrade_stale () =
  let catalog = build_catalog () in
  Catalog.degrade_mark_stale catalog ~table:"items" ~column:"grp";
  let tbl = Catalog.find_exn catalog "items" in
  Alcotest.(check bool) "stale" true
    (match Catalog.column_stats tbl "grp" with
     | Some st -> st.Column_stats.stale
     | None -> false)

let test_degrade_cardinality () =
  let catalog = build_catalog () in
  Catalog.degrade_scale_cardinality catalog ~table:"items" 0.5;
  let tbl = Catalog.find_exn catalog "items" in
  Alcotest.(check int) "halved" 500 tbl.Catalog.believed_rows;
  Alcotest.(check int) "true rows unchanged" 1000
    (Heap_file.tuple_count tbl.Catalog.heap)

let test_degrade_hist_kind () =
  let catalog = build_catalog () in
  Catalog.degrade_set_histogram_kind catalog ~table:"items"
    ~kind:Histogram.Equi_width;
  let tbl = Catalog.find_exn catalog "items" in
  Alcotest.(check bool) "equi-width now" true
    (match Catalog.column_stats tbl "grp" with
     | Some { Column_stats.histogram = Some h; _ } ->
       Histogram.kind h = Histogram.Equi_width
     | _ -> false)

let test_index_lifecycle () =
  let catalog = build_catalog () in
  let ix = Catalog.create_index catalog ~table:"items" ~column:"grp" in
  let tbl = Catalog.find_exn catalog "items" in
  Alcotest.(check int) "all entries" 1000
    (Btree.entry_count (Catalog.index_tree tbl ix));
  Alcotest.(check bool) "find_index" true
    (Catalog.find_index tbl ~column:"grp" <> None);
  Alcotest.(check bool) "missing index" true
    (Catalog.find_index tbl ~column:"name" = None)

let test_drop_table () =
  let catalog = build_catalog () in
  Catalog.drop_table catalog "items";
  Alcotest.(check bool) "gone" true (Catalog.find catalog "items" = None)

let test_duplicate_table () =
  let catalog = build_catalog () in
  let heap = Heap_file.create (Schema.make [ Schema.col "x" Value.TInt ]) in
  Alcotest.(check bool) "duplicate rejected" true
    (try
       ignore (Catalog.add_table catalog "items" heap);
       false
     with Invalid_argument _ -> true)

(* --- stale indexes: rebuilt on first use = created afresh ------------ *)

module Engine = Mqr_core.Engine

(* Keys of the three indexed columns; each list also holds keys that no
   row carries. *)
let int_keys = List.init 14 (fun i -> i - 1)
let day0 = 9000
let strs = [| "a"; "ab"; "b"; "c"; "zz" |]
let str_keys = "" :: "aa" :: "zzz" :: Array.to_list strs

type cells = int option * int option * string option

type dml =
  | Insert of (int * int * string) list  (* INSERT ... VALUES: no nulls *)
  | Copy of cells list  (* COPY from a CSV file; empty fields are nulls *)
  | Delete_below of int  (* ki < k: every row, none, or some *)
  | Delete_str of string
  | Delete_all
  | Probe of string  (* reads that column's index *)

let show_cells (i, d, s) =
  let o f = function None -> "null" | Some x -> f x in
  Printf.sprintf "(%s,%s,%s)" (o string_of_int i) (o string_of_int d) (o Fun.id s)

let show_dml = function
  | Insert rows ->
    "insert " ^ String.concat "" (List.map (fun (i, d, s) -> show_cells (Some i, Some d, Some s)) rows)
  | Copy rows -> "copy " ^ String.concat "" (List.map show_cells rows)
  | Delete_below k -> Printf.sprintf "delete ki<%d" k
  | Delete_str s -> "delete ks=" ^ s
  | Delete_all -> "delete all"
  | Probe c -> "probe " ^ c

let index_case_gen =
  let open QCheck.Gen in
  let ki = int_range 0 11 and kd = int_range 0 11 and ks = oneofa strs in
  let cell g = frequency [ (1, return None); (5, map Option.some g) ] in
  let row = triple (cell ki) (cell kd) (cell ks) in
  let op =
    frequency
      [ (3, map (fun r -> Insert r) (list_size (int_range 1 6) (triple ki kd ks)));
        (2, map (fun r -> Copy r) (list_size (int_range 0 6) row));
        (2, map (fun k -> Delete_below k) (int_range (-1) 13));
        (1, map (fun s -> Delete_str s) (oneofa strs));
        (1, return Delete_all);
        (2, map (fun c -> Probe c) (oneofl [ "ki"; "kd"; "ks" ])) ]
  in
  pair (list_size (int_range 0 40) row) (list_size (int_range 0 12) op)

let value_of_cells (i, d, s) =
  let o f = function None -> Value.Null | Some x -> f x in
  [| o (fun i -> Value.Int i) i; o (fun d -> Value.Date (day0 + d)) d;
     o (fun s -> Value.String s) s |]

let run_dml engine path = function
  | Insert rows ->
    let row (i, d, s) =
      Printf.sprintf "(%d, date '%s', '%s')" i (Value.date_to_string (day0 + d)) s
    in
    ignore
      (Engine.execute engine
         ("insert into t values " ^ String.concat ", " (List.map row rows)))
  | Copy rows ->
    let field f = function None -> "" | Some x -> f x in
    Csv.write_file path
      (List.map
         (fun (i, d, s) ->
            [ field string_of_int i;
              field (fun d -> Value.date_to_string (day0 + d)) d;
              field Fun.id s ])
         rows);
    ignore (Engine.execute engine (Printf.sprintf "copy t from '%s'" path))
  | Delete_below k ->
    ignore (Engine.execute engine (Printf.sprintf "delete from t where ki < %d" k))
  | Delete_str s ->
    ignore (Engine.execute engine (Printf.sprintf "delete from t where ks = '%s'" s))
  | Delete_all -> ignore (Engine.execute engine "delete from t")
  | Probe column ->
    let tbl = Catalog.find_exn (Engine.catalog engine) "t" in
    ignore (Catalog.index_tree tbl (Option.get (Catalog.find_index tbl ~column)))

(* Everything a reader can see of a tree: its shape counters, then every
   point and range over [keys] (open ends too) probed in turn on one
   small fresh pool, with the rids and the clock's bits after each. *)
let observe tree keys =
  let pool = Buffer_pool.create ~capacity_pages:3 and clock = Sim_clock.create () in
  let bounds = None :: List.map Option.some keys in
  ( (Btree.height tree, Btree.entry_count tree, Btree.key_count tree),
    List.concat_map
      (fun lo ->
         List.map
           (fun hi ->
              let rids = Btree.probe tree ~pool ~clock ?lo ?hi () in
              (rids, Int64.bits_of_float (Sim_clock.elapsed_ms clock)))
           bounds)
      bounds )

let prop_index_matches_fresh =
  QCheck.Test.make ~name:"an index after DML = an index created afresh" ~count:150
    (QCheck.make index_case_gen
       ~print:(fun (init, ops) ->
           Printf.sprintf "rows %s; %s"
             (String.concat "" (List.map show_cells init))
             (String.concat "; " (List.map show_dml ops))))
    (fun (init, ops) ->
       let schema =
         Schema.make
           [ Schema.col "ki" Value.TInt; Schema.col "kd" Value.TDate;
             Schema.col "ks" Value.TString ]
       in
       let heap = Heap_file.create schema in
       List.iter (fun r -> Heap_file.append heap (value_of_cells r)) init;
       let catalog = Catalog.create () in
       let tbl = Catalog.add_table catalog "t" heap in
       let columns = [ "ki"; "kd"; "ks" ] in
       List.iter (fun column -> ignore (Catalog.create_index catalog ~table:"t" ~column))
         columns;
       let engine = Engine.create catalog in
       let path = Filename.temp_file "mqr_index" ".csv" in
       Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
           List.iter (run_dml engine path) ops);
       let fresh = Catalog.create () in
       let copy =
         Catalog.add_table fresh "t"
           (Heap_file.of_rows schema (Array.copy (Heap_file.rows heap)))
       in
       List.for_all
         (fun (column, keys) ->
            let tree c t =
              Catalog.index_tree t (Option.get (Catalog.find_index t ~column:c))
            in
            ignore (Catalog.create_index fresh ~table:"t" ~column);
            let got = observe (tree column tbl) keys
            and want = observe (tree column copy) keys in
            got = want
            || QCheck.Test.fail_reportf "index on %s differs from a fresh one" column)
         [ ("ki", List.map (fun i -> Value.Int i) int_keys);
           ("kd", List.map (fun d -> Value.Date (day0 + d)) int_keys);
           ("ks", List.map (fun s -> Value.String s) str_keys) ])

(* --- ANALYZE by codes = Column_stats.analyze of the values ------------ *)

let show_value = function
  | Value.Null -> "N"
  | Value.Bool b -> string_of_bool b
  | Value.Int i -> "I" ^ string_of_int i
  | Value.Date d -> "D" ^ string_of_int d
  | Value.Float f -> "F" ^ Int64.to_string (Int64.bits_of_float f)
  | Value.String s -> "S" ^ s

(* Every field of the statistics, floats by their bits. *)
let stats_digest (st : Column_stats.t) =
  let f x = Int64.to_string (Int64.bits_of_float x) in
  let opt g = function None -> "-" | Some x -> g x in
  let hist h =
    Histogram.kind_to_string (Histogram.kind h) ^ " " ^ f (Histogram.total_rows h)
    ^ " ["
    ^ String.concat ";"
        (List.map
           (fun (b : Histogram.bucket) ->
              String.concat "," [ f b.lo; f b.hi; f b.rows; f b.distinct ])
           (Histogram.buckets h))
    ^ "]"
  in
  String.concat " | "
    [ opt show_value st.Column_stats.min_v; opt show_value st.max_v;
      opt f st.distinct; opt hist st.histogram; string_of_bool st.stale;
      opt (fun d -> String.concat ";" (List.map (fun (s, o) -> s ^ "=" ^ f o) d)) st.dict;
      string_of_bool st.is_key ]

(* Floats whose histogram values [Float.compare] equates: two NaN
   payloads, and the two zeros. *)
let nan2 = Int64.float_of_bits 0x7FF0000000000001L
let plain_floats = [| 1.5; 2.0; 0.0; Float.nan; -3.25; infinity; 4e-320 |]
let odd_floats = Array.append plain_floats [| -0.0; nan2; -.Float.nan |]

type analyze_case = {
  seed : int;
  rows : int;
  wide : bool;  (* [kw] takes a new value per row: past 4096 its dictionary drops *)
  odd : bool;  (* [kf] draws from [odd_floats] *)
  buckets : int;
  deleted : int;  (* a [ki] value whose rows a DELETE removes; -1: none *)
  appended : int;  (* rows appended after the DELETE *)
}

let analyze_case_gen =
  let open QCheck.Gen in
  let* seed = int_bound 1_000_000 and* wide = frequency [ (1, return true); (7, return false) ] in
  let* rows = if wide then int_range 4090 4300 else int_range 0 300
  and* odd = bool
  and* buckets = int_range 1 40
  and* deleted = int_range (-1) 9
  and* appended = int_range 0 60 in
  return { seed; rows; wide; odd; buckets; deleted; appended }

let prop_analyze_by_codes =
  QCheck.Test.make ~name:"ANALYZE by codes = Column_stats.analyze, every kind" ~count:60
    (QCheck.make analyze_case_gen
       ~print:(fun c ->
           Printf.sprintf "seed %d rows %d wide %b odd %b buckets %d deleted %d appended %d"
             c.seed c.rows c.wide c.odd c.buckets c.deleted c.appended))
    (fun c ->
       let rng = Random.State.make [| c.seed |] in
       let floats = if c.odd then odd_floats else plain_floats in
       let null_or v = if Random.State.int rng 8 = 0 then Value.Null else v in
       let row r =
         [| null_or (Value.Int (Random.State.int rng 10));
            (if c.wide then Value.Int r else Value.Int (Random.State.int rng 30));
            null_or (Value.Float floats.(Random.State.int rng (Array.length floats)));
            null_or (Value.Date (day0 + Random.State.int rng 40));
            null_or (Value.String strs.(Random.State.int rng (Array.length strs))) |]
       in
       let schema =
         Schema.make
           [ Schema.col "ki" Value.TInt; Schema.col "kw" Value.TInt;
             Schema.col "kf" Value.TFloat; Schema.col "kd" Value.TDate;
             Schema.col "ks" Value.TString ]
       in
       let heap = Heap_file.create schema in
       for r = 0 to c.rows - 1 do Heap_file.append heap (row r) done;
       let catalog = Catalog.create () in
       let tbl = Catalog.add_table catalog "t" heap in
       ignore
         (Catalog.delete_rows tbl (fun t -> not (Value.equal t.(0) (Value.Int c.deleted))));
       for r = 0 to c.appended - 1 do Heap_file.append heap (row (c.rows + r)) done;
       let rows = Heap_file.rows heap in
       List.for_all
         (fun kind ->
            Catalog.analyze_table ~kind ~buckets:c.buckets ~keys:[ "kw" ] catalog "t";
            List.for_all
              (fun i ->
                 let name = (Schema.column schema i).Schema.name in
                 let values = Array.fold_left (fun acc r -> r.(i) :: acc) [] rows in
                 let want =
                   stats_digest
                     (Column_stats.analyze ~kind ~buckets:c.buckets
                        ~is_key:(name = "kw") values)
                 and got = stats_digest tbl.Catalog.stats.(i) in
                 got = want
                 || QCheck.Test.fail_reportf "%s, %s:\n got  %s\n want %s"
                      (Histogram.kind_to_string kind) name got want)
              (List.init (Schema.arity schema) Fun.id))
         [ Histogram.Equi_width; Histogram.Equi_depth; Histogram.Maxdiff;
           Histogram.Serial ])

let suite =
  [ Alcotest.test_case "analyze basics" `Quick test_analyze_basics;
    Alcotest.test_case "key flag" `Quick test_key_flag;
    Alcotest.test_case "string dictionary" `Quick test_string_dictionary;
    Alcotest.test_case "degrade drop histogram" `Quick test_degrade_drop_histogram;
    Alcotest.test_case "degrade stale" `Quick test_degrade_stale;
    Alcotest.test_case "degrade cardinality" `Quick test_degrade_cardinality;
    Alcotest.test_case "degrade hist kind" `Quick test_degrade_hist_kind;
    Alcotest.test_case "index lifecycle" `Quick test_index_lifecycle;
    Alcotest.test_case "drop table" `Quick test_drop_table;
    Alcotest.test_case "duplicate table" `Quick test_duplicate_table;
    QCheck_alcotest.to_alcotest prop_index_matches_fresh;
    QCheck_alcotest.to_alcotest prop_analyze_by_codes ]
