(* CSV codec and DDL/COPY/ANALYZE statements. *)
open Mqr_storage
module Catalog = Mqr_catalog.Catalog
module Column_stats = Mqr_catalog.Column_stats
module Engine = Mqr_core.Engine
module Dispatcher = Mqr_core.Dispatcher
module Histogram = Mqr_stats.Histogram

(* --- CSV --- *)

let test_csv_roundtrip_line () =
  List.iter
    (fun fields ->
       Alcotest.(check (list string)) "roundtrip" fields
         (Csv.decode_line (Csv.encode_line fields)))
    [ [ "a"; "b"; "c" ];
      [ "has,comma"; "has\"quote"; "has\nnewline" ];
      [ ""; ""; "" ];
      [ "plain" ];
      [ "\"quoted at start"; "trailing\"" ] ]

let test_csv_file_roundtrip () =
  let path = Filename.temp_file "mqr_csv" ".csv" in
  let records =
    [ [ "1"; "hello, world"; "x" ]; [ "2"; "line\nbreak"; "\"q\"" ]; [ "3"; ""; "z" ] ]
  in
  Csv.write_file path records;
  let back = Csv.read_file path in
  Sys.remove path;
  Alcotest.(check (list (list string))) "file roundtrip" records back

let prop_csv_roundtrip =
  QCheck.Test.make ~name:"csv line roundtrip" ~count:300
    QCheck.(list_of_size (Gen.int_range 1 6) (string_gen_of_size (Gen.int_range 0 20) Gen.printable))
    (fun fields ->
       (* \r is normalized away by the decoder, as in RFC 4180 line ends *)
       let fields = List.map (String.map (fun c -> if c = '\r' then ' ' else c)) fields in
       Csv.decode_line (Csv.encode_line fields) = fields)

let test_csv_empty_file () =
  let path = Filename.temp_file "mqr_csv" ".csv" in
  Csv.write_file path [];
  Alcotest.(check (list (list string))) "empty" [] (Csv.read_file path);
  Sys.remove path

let test_csv_unterminated_quote () =
  Alcotest.(check bool) "rejected" true
    (try
       ignore (Csv.decode_line "\"abc");
       false
     with Failure _ -> true)

(* --- DDL / COPY / ANALYZE statements --- *)

let test_create_table_and_insert () =
  let engine = Engine.create (Catalog.create ()) in
  (match Engine.execute engine
           "create table pets (name string(20), age int, seen date)" with
   | Engine.Created "pets" -> ()
   | _ -> Alcotest.fail "create table");
  (match Engine.execute engine
           "insert into pets values ('rex', 3, date '2020-05-01')" with
   | Engine.Modified { count = 1; _ } -> ()
   | _ -> Alcotest.fail "insert into created table");
  let r = Engine.run_sql engine "select name from pets where age = 3" in
  Alcotest.(check int) "one pet" 1 (Array.length r.Dispatcher.rows)

let test_create_index_statement () =
  let engine = Engine.create (Catalog.create ()) in
  ignore (Engine.execute engine "create table nums (k int, v int)");
  ignore (Engine.execute engine "insert into nums values (1, 10), (2, 20)");
  (match Engine.execute engine "create index on nums (k)" with
   | Engine.Created "nums.k" -> ()
   | _ -> Alcotest.fail "create index");
  let catalog = Engine.catalog engine in
  let tbl = Catalog.find_exn catalog "nums" in
  Alcotest.(check bool) "index exists" true
    (Catalog.find_index tbl ~column:"k" <> None)

let test_copy_statement () =
  let engine = Engine.create (Catalog.create ()) in
  ignore (Engine.execute engine "create table pts (x int, y float, lbl string)");
  let path = Filename.temp_file "mqr_copy" ".csv" in
  Csv.write_file path
    [ [ "1"; "2.5"; "alpha" ]; [ "2"; "3.5"; "beta, with comma" ]; [ "3"; ""; "" ] ];
  (match Engine.execute engine (Printf.sprintf "copy pts from '%s'" path) with
   | Engine.Modified { count = 3; _ } -> ()
   | _ -> Alcotest.fail "copy count");
  Sys.remove path;
  let r = Engine.run_sql engine "select x from pts where y > 3.0" in
  Alcotest.(check int) "filtered" 1 (Array.length r.Dispatcher.rows);
  (* empty float field became NULL and never matches *)
  let r2 = Engine.run_sql engine "select x from pts" in
  Alcotest.(check int) "all rows" 3 (Array.length r2.Dispatcher.rows)

let test_analyze_statement () =
  let engine = Engine.create (Catalog.create ()) in
  ignore (Engine.execute engine "create table zz (a int)");
  ignore (Engine.execute engine "insert into zz values (1), (2), (3)");
  (match Engine.execute engine "analyze zz" with
   | Engine.Analyzed "zz" -> ()
   | _ -> Alcotest.fail "analyze");
  let tbl = Catalog.find_exn (Engine.catalog engine) "zz" in
  Alcotest.(check int) "believed rows updated" 3 tbl.Catalog.believed_rows

(* A NaN read by COPY reaches ANALYZE's histogram, which once never
   returned on it. *)
let test_copy_nan_then_analyze () =
  let engine = Engine.create (Catalog.create ()) in
  ignore (Engine.execute engine "create table t (x float)");
  let path = Filename.temp_file "mqr_copy" ".csv" in
  Csv.write_file path [ [ "1.5" ]; [ "nan" ]; [ "2.5" ] ];
  ignore (Engine.execute engine (Printf.sprintf "copy t from '%s'" path));
  Sys.remove path;
  (match Engine.execute engine "analyze t" with
   | Engine.Analyzed "t" -> ()
   | _ -> Alcotest.fail "analyze");
  let stats = (Catalog.find_exn (Engine.catalog engine) "t").Catalog.stats.(0) in
  Alcotest.(check bool) "max" true
    (stats.Column_stats.max_v = Some (Value.Float 2.5));
  Alcotest.(check bool) "NaN sorts lowest" true
    (match stats.Column_stats.min_v with
     | Some (Value.Float f) -> Float.is_nan f
     | _ -> false);
  (match stats.Column_stats.histogram with
   | Some h ->
     Alcotest.(check (float 0.0)) "histogram rows" 3.0 (Histogram.total_rows h)
   | None -> Alcotest.fail "no histogram");
  let r = Engine.run_sql engine "select x from t where x > 2.0" in
  Alcotest.(check int) "query after analyze" 1 (Array.length r.Dispatcher.rows)

(* COPY appends row by row, so a bad field stops it after the rows
   before it; those rows must be in every index too. *)
let test_copy_bad_field () =
  let engine = Engine.create (Catalog.create ()) in
  ignore (Engine.execute engine "create table q (a int)");
  ignore (Engine.execute engine "create index on q (a)");
  let path = Filename.temp_file "mqr_copy" ".csv" in
  Csv.write_file path [ [ "7" ]; [ "not-an-int" ] ];
  Alcotest.(check bool) "rejects bad field" true
    (try
       ignore (Engine.execute engine (Printf.sprintf "copy q from '%s'" path));
       false
     with Engine.Dml_error _ -> true);
  Sys.remove path;
  let tbl = Catalog.find_exn (Engine.catalog engine) "q" in
  let ix = Option.get (Catalog.find_index tbl ~column:"a") in
  Alcotest.(check int) "rows before the bad field" 1
    (Heap_file.tuple_count tbl.Catalog.heap);
  Alcotest.(check (list int)) "indexed too" [ 0 ]
    (Btree.lookup (Catalog.index_tree tbl ix) (Value.Int 7))

let suite =
  [ Alcotest.test_case "csv line roundtrip" `Quick test_csv_roundtrip_line;
    Alcotest.test_case "csv file roundtrip" `Quick test_csv_file_roundtrip;
    QCheck_alcotest.to_alcotest prop_csv_roundtrip;
    Alcotest.test_case "csv empty file" `Quick test_csv_empty_file;
    Alcotest.test_case "csv unterminated quote" `Quick test_csv_unterminated_quote;
    Alcotest.test_case "create table" `Quick test_create_table_and_insert;
    Alcotest.test_case "create index" `Quick test_create_index_statement;
    Alcotest.test_case "copy" `Quick test_copy_statement;
    Alcotest.test_case "analyze statement" `Quick test_analyze_statement;
    Alcotest.test_case "copy NaN then analyze" `Quick test_copy_nan_then_analyze;
    Alcotest.test_case "copy bad field" `Quick test_copy_bad_field ]
