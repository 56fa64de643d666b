open Mqr_storage

let sample =
  Schema.make
    [ Schema.col ~qualifier:"t" "a" Value.TInt;
      Schema.col ~qualifier:"t" "b" Value.TString;
      Schema.col ~qualifier:"u" "a" Value.TFloat;
      Schema.col ~qualifier:"u" "c" Value.TDate ]

let test_index_qualified () =
  Alcotest.(check int) "t.a" 0 (Schema.index_of sample "t.a");
  Alcotest.(check int) "u.a" 2 (Schema.index_of sample "u.a");
  Alcotest.(check int) "u.c" 3 (Schema.index_of sample "u.c")

let test_index_bare () =
  Alcotest.(check int) "b unique" 1 (Schema.index_of sample "b");
  Alcotest.(check int) "c unique" 3 (Schema.index_of sample "c")

let test_ambiguous () =
  Alcotest.check_raises "bare a ambiguous" (Schema.Ambiguous "a") (fun () ->
      ignore (Schema.index_of sample "a"))

let test_not_found () =
  Alcotest.(check bool) "missing raises Not_found" true
    (try
       ignore (Schema.index_of sample "zzz");
       false
     with Not_found -> true)

let test_qualify () =
  let q = Schema.qualify sample "x" in
  Alcotest.(check int) "x.b" 1 (Schema.index_of q "x.b");
  Alcotest.check_raises "both a columns now collide"
    (Schema.Ambiguous "x.a") (fun () -> ignore (Schema.index_of q "x.a"));
  Alcotest.check_raises "old qualifier gone" Not_found (fun () ->
      ignore (Schema.index_of q "t.b"))

let test_concat_project () =
  let s1 = Schema.make [ Schema.col "x" Value.TInt ] in
  let s2 = Schema.make [ Schema.col "y" Value.TInt ] in
  let c = Schema.concat s1 s2 in
  Alcotest.(check int) "arity" 2 (Schema.arity c);
  let p = Schema.project c [ 1 ] in
  Alcotest.(check int) "projected arity" 1 (Schema.arity p);
  Alcotest.(check string) "kept y" "y" (Schema.column p 0).Schema.name

let test_filter_keeps () =
  let s = Schema.make [ Schema.col "x" Value.TInt; Schema.col "z" Value.TDate ] in
  let f = Schema.filter (fun c -> c.Schema.name <> "z") s in
  Alcotest.(check (list string)) "kept, in order" [ "x" ]
    (List.map (fun c -> c.Schema.name) (Schema.columns f));
  Alcotest.(check int) "width of the kept columns"
    (Schema.avg_tuple_width s - 4) (Schema.avg_tuple_width f);
  Alcotest.(check bool) "keep all = the schema itself" true
    (Schema.filter (fun _ -> true) s == s)

let test_widths () =
  let s =
    Schema.make [ Schema.col "i" Value.TInt; Schema.col ~width:20 "s" Value.TString ]
  in
  Alcotest.(check int) "avg width includes header" (8 + 8 + 20)
    (Schema.avg_tuple_width s);
  (* the stored width follows every derived schema *)
  let resum t =
    List.fold_left (fun acc c -> acc + c.Schema.avg_width) 8 (Schema.columns t)
  in
  let d = Schema.make [ Schema.col "d" Value.TDate ] in
  List.iter
    (fun (what, t) ->
       Alcotest.(check int) what (resum t) (Schema.avg_tuple_width t))
    [ ("empty", Schema.make []);
      ("qualify", Schema.qualify s "q");
      ("concat", Schema.concat s d);
      ("concat empty", Schema.concat (Schema.make []) s);
      ("project", Schema.project (Schema.concat s d) [ 2; 0 ]);
      ("project none", Schema.project s []) ]

let test_default_widths () =
  Alcotest.(check int) "int width" 8 (Schema.col "x" Value.TInt).Schema.avg_width;
  Alcotest.(check int) "date width" 4 (Schema.col "x" Value.TDate).Schema.avg_width;
  Alcotest.(check int) "string default" 16
    (Schema.col "x" Value.TString).Schema.avg_width

let test_tuple_ops () =
  let t1 = [| Value.Int 1; Value.String "a" |] in
  let t2 = [| Value.Float 2.0 |] in
  let c = Array.append t1 t2 in
  Alcotest.(check int) "concat arity" 3 (Tuple.arity c);
  let p = Tuple.project c [ 2; 0 ] in
  Alcotest.(check bool) "project order" true
    (Tuple.equal p [| Value.Float 2.0; Value.Int 1 |])

let suite =
  [ Alcotest.test_case "index_of qualified" `Quick test_index_qualified;
    Alcotest.test_case "index_of bare" `Quick test_index_bare;
    Alcotest.test_case "ambiguous" `Quick test_ambiguous;
    Alcotest.test_case "not found" `Quick test_not_found;
    Alcotest.test_case "qualify" `Quick test_qualify;
    Alcotest.test_case "concat/project" `Quick test_concat_project;
    Alcotest.test_case "filter keeps columns in order" `Quick test_filter_keeps;
    Alcotest.test_case "widths" `Quick test_widths;
    Alcotest.test_case "default widths" `Quick test_default_widths;
    Alcotest.test_case "tuple ops" `Quick test_tuple_ops ]
