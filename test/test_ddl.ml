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
    (Btree.lookup (Catalog.index_tree tbl ix) (Value.Int 7));
  Alcotest.(check int) "the kept row counts as an update" 1
    tbl.Catalog.updates_since_analyze

(* A multi-row INSERT whose second row has the wrong arity keeps its
   first row, and counts it, as COPY does. *)
let test_insert_bad_row () =
  let engine = Engine.create (Catalog.create ()) in
  ignore (Engine.execute engine "create table q (a int)");
  Alcotest.(check bool) "rejects the wrong arity" true
    (try
       ignore (Engine.execute engine "insert into q values (7), (8, 9)");
       false
     with Engine.Dml_error _ -> true);
  let tbl = Catalog.find_exn (Engine.catalog engine) "q" in
  Alcotest.(check int) "rows before the bad row" 1
    (Heap_file.tuple_count tbl.Catalog.heap);
  Alcotest.(check int) "the kept row counts as an update" 1
    tbl.Catalog.updates_since_analyze

(* --- INSERT ... VALUES round trip --- *)

(* One generated cell: the literal as SQL text and the value it must
   store.  Columns: i int, f float, d date, s string, and fi float and
   di date, both fed integer literals, so both coercions run. *)
type cell = { sql : string; want : Value.t }

let gen_int =
  QCheck.Gen.(
    oneof
      [ int_range (min_int + 1) max_int; int_range (-1000) 1000;
        oneofl [ 0; 1; -1; max_int; -max_int ] ])

(* An int literal: negatives print with a leading minus; some are
   wrapped in parentheses, so the item is parsed as an expression. *)
let int_cell ~want =
  QCheck.Gen.(
    map2
      (fun i paren ->
         let text = string_of_int i in
         { sql = (if paren then "(" ^ text ^ ")" else text); want = want i })
      gen_int (frequency [ (4, return false); (1, return true) ]))

(* digits.digits: up to 17 significant digits, 0.0, and a negated
   literal, whose value is 0 - x (so -0.0 stores +0.0) *)
let float_cell =
  QCheck.Gen.(
    let digits lo hi =
      map (String.concat "") (list_size (int_range lo hi) (map string_of_int (int_range 0 9)))
    in
    map3
      (fun (whole, frac) neg zero ->
         let text = if zero then "0.0" else whole ^ "." ^ frac in
         let x = float_of_string text in
         { sql = (if neg then "-" ^ text else text);
           want = Value.Float (if neg then 0.0 -. x else x) })
      (pair (digits 1 9) (digits 1 8))
      bool
      (frequency [ (6, return false); (1, return true) ]))

(* a day from year 1 to 9999, zero-padded (yyyy-mm-dd) or not *)
let date_cell =
  QCheck.Gen.(
    map2
      (fun day padded ->
         let text = Value.date_to_string day in
         let text =
           if padded then text
           else
             String.concat "-"
               (List.map (fun p -> string_of_int (int_of_string p))
                  (String.split_on_char '-' text))
         in
         { sql = Printf.sprintf "date '%s'" text; want = Value.Date day })
      (int_range (-719162) 2932896) bool)

(* any bytes, quotes and non-ASCII included; a quote doubles *)
let string_cell =
  QCheck.Gen.(
    map
      (fun s ->
         let quoted = String.concat "''" (String.split_on_char '\'' s) in
         { sql = "'" ^ quoted ^ "'"; want = Value.String s })
      (string_size (int_range 0 12)
         ~gen:(frequency [ (1, return '\''); (1, char_range '\128' '\255'); (4, char) ])))

let gen_row =
  QCheck.Gen.(
    flatten_l
      [ int_cell ~want:(fun i -> Value.Int i); float_cell; date_cell; string_cell;
        int_cell ~want:(fun i -> Value.Float (float_of_int i));
        int_cell ~want:(fun i -> Value.Date i) ])

let row_sql row = "(" ^ String.concat ", " (List.map (fun c -> c.sql) row) ^ ")"

let insert_sql rows = "insert into rt values " ^ String.concat ", " (List.map row_sql rows)

let rt_engine () =
  let engine = Engine.create (Catalog.create ()) in
  ignore
    (Engine.execute engine
       "create table rt (i int, f float, d date, s string, fi float, di date)");
  engine

let rt_table engine = Catalog.find_exn (Engine.catalog engine) "rt"

(* constructor and bits *)
let same_bits a b =
  match a, b with
  | Value.Int x, Value.Int y | Value.Date x, Value.Date y -> x = y
  | Value.Float x, Value.Float y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Value.String x, Value.String y -> String.equal x y
  | _ -> false

let prop_insert_roundtrip =
  QCheck.Test.make ~name:"INSERT stores every literal bit for bit" ~count:200
    (QCheck.make ~print:insert_sql QCheck.Gen.(list_size (int_range 1 12) gen_row))
    (fun rows ->
       let engine = rt_engine () in
       let count =
         match Engine.execute engine (insert_sql rows) with
         | Engine.Modified { count; _ } -> count
         | _ -> -1
       in
       let heap = (rt_table engine).Catalog.heap in
       count = List.length rows
       && Heap_file.tuple_count heap = count
       && List.for_all2
            (fun rid row ->
               let tuple = Heap_file.get heap rid in
               List.for_all2 (fun c v -> same_bits c.want v) row (Array.to_list tuple))
            (List.init count Fun.id) rows)

(* A bad row k stops the INSERT with its error; rows 1..k-1 stay and
   count as updates. *)
let prop_insert_bad_row =
  let bad =
    QCheck.Gen.oneofl
      [ ("(1, 2.0)", "expected 6 values for rt, got 2");
        ("(1, 2.0, date '1994-01-01', 'a', 1, 1, 1)", "expected 6 values for rt, got 7");
        ("(1, 2.0, date '1994-01-01', 'a', i, 1)", "INSERT values must be constants");
        ("(1 + fi, 2.0, date '1994-01-01', 'a', 1, 1)", "INSERT values must be constants");
        ("('x', 2.0, date '1994-01-01', 'a', 1, 1)", "value x does not fit column i of type INT");
        ("(1, 'y', date '1994-01-01', 'a', 1, 1)", "value y does not fit column f of type FLOAT");
        ("(1, 2.0, 3.5, 'a', 1, 1)", "value 3.5000 does not fit column d of type DATE") ]
  in
  QCheck.Test.make ~name:"INSERT keeps the rows before a bad row" ~count:100
    (QCheck.make
       ~print:(fun (rows, (b, _), after) -> insert_sql rows ^ " / " ^ b ^ " / " ^ insert_sql after)
       QCheck.Gen.(
         triple (list_size (int_range 0 6) gen_row) bad (list_size (int_range 0 3) gen_row)))
    (fun (before, (bad_sql, msg), after) ->
       let engine = rt_engine () in
       let sql =
         "insert into rt values "
         ^ String.concat ", " (List.map row_sql before @ [ bad_sql ] @ List.map row_sql after)
       in
       let raised =
         match Engine.execute engine sql with
         | _ -> None
         | exception Engine.Dml_error m -> Some m
       in
       let tbl = rt_table engine in
       raised = Some msg
       && Heap_file.tuple_count tbl.Catalog.heap = List.length before
       && tbl.Catalog.updates_since_analyze = List.length before)

(* Keys past 2^53: of t's 2^53 and 2^53 + 1, only 2^53 equals u's
   2^53.0 (2^53 + 1 rounds to that float but is not it), so [a = b] and
   [a >= b and a <= b] return the one row 2^53, whether the optimizer
   joins [=] by merge (its default over two tiny tables), hash (merge
   and index joins off) or index nested loop (its default once u holds
   [filler] more rows, none integral, and an index on u.b); the range
   form is no equi-join and runs as a nested loop. *)
let test_exact_numeric_join () =
  let module Optimizer = Mqr_opt.Optimizer in
  let d = Optimizer.default_options in
  List.iter
    (fun (meth, filler, options) ->
       let engine = Engine.create ~opt_options:options (Catalog.create ()) in
       List.iter
         (fun sql -> ignore (Engine.execute engine sql))
         [ "create table t (a int)"; "create table u (b float)";
           "insert into t values (9007199254740992), (9007199254740993)";
           "insert into u values (9007199254740992.0)"
           ^ String.concat "" (List.init filler (Printf.sprintf ", (%d.5)"));
           "create index on u (b)" ];
       Engine.analyze engine "t";
       Engine.analyze engine "u";
       List.iter
         (fun where ->
            let sql = "select a, b from t, u where " ^ where in
            let plan = Mqr_opt.Plan.to_string (Engine.explain engine sql) in
            if where <> "a >= b and a <= b" then
              Alcotest.(check bool) (meth ^ " plans " ^ where) true (Test_sql.contains plan meth);
            let r = Engine.run_sql engine sql in
            Alcotest.(check (list string)) (meth ^ ": " ^ where)
              [ "[9007199254740992|9007199254740992.0000]" ]
              (Array.to_list (Array.map (Fmt.str "%a" Tuple.pp) r.Dispatcher.rows)))
         [ "a = b"; "b = a"; "a >= b and a <= b" ])
    [ ("merge_join", 0, d);
      ("hash_join", 0, { d with Optimizer.enable_merge_join = false; enable_index_join = false });
      ("index_nl", 5000, d) ]

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
    Alcotest.test_case "copy bad field" `Quick test_copy_bad_field;
    Alcotest.test_case "insert bad row" `Quick test_insert_bad_row;
    QCheck_alcotest.to_alcotest prop_insert_roundtrip;
    QCheck_alcotest.to_alcotest prop_insert_bad_row;
    Alcotest.test_case "Int = Float joins exactly past 2^53" `Quick test_exact_numeric_join ]
