open Mqr_storage
module Expr = Mqr_expr.Expr
module Selectivity = Mqr_expr.Selectivity
module Column_stats = Mqr_catalog.Column_stats

let schema =
  Schema.make
    [ Schema.col ~qualifier:"t" "a" Value.TInt;
      Schema.col ~qualifier:"t" "b" Value.TFloat;
      Schema.col ~qualifier:"t" "s" Value.TString ]

let row a b s = [| Value.Int a; Value.Float b; Value.String s |]

let eval e t = Expr.compile schema e t
let pred e t = Expr.compile_pred schema e t

let test_eval_arith () =
  let e = Expr.(Arith (Add, col "t.a", int 5)) in
  Alcotest.(check bool) "3+5=8" true (Value.equal (Value.Int 8) (eval e (row 3 0.0 "")));
  let m = Expr.(Arith (Mul, col "a", col "b")) in
  Alcotest.(check bool) "2*1.5=3.0" true
    (Value.equal (Value.Float 3.0) (eval m (row 2 1.5 "")))

let test_eval_cmp () =
  Alcotest.(check bool) "lt" true (pred Expr.(col "a" <% int 10) (row 5 0.0 ""));
  Alcotest.(check bool) "not lt" false (pred Expr.(col "a" <% int 10) (row 15 0.0 ""));
  Alcotest.(check bool) "string eq" true
    (pred Expr.(col "s" =% str "x") (row 0 0.0 "x"))

let test_eval_between () =
  let e = Expr.(Between (col "a", int 2, int 4)) in
  Alcotest.(check bool) "inside" true (pred e (row 3 0.0 ""));
  Alcotest.(check bool) "boundary lo" true (pred e (row 2 0.0 ""));
  Alcotest.(check bool) "boundary hi" true (pred e (row 4 0.0 ""));
  Alcotest.(check bool) "outside" false (pred e (row 5 0.0 ""))

let test_eval_bool_ops () =
  let t = row 5 1.0 "x" in
  Alcotest.(check bool) "and" true
    (pred Expr.((col "a" =% int 5) &&% (col "s" =% str "x")) t);
  Alcotest.(check bool) "or" true
    (pred Expr.((col "a" =% int 9) ||% (col "s" =% str "x")) t);
  Alcotest.(check bool) "not" false (pred Expr.(Not (col "a" =% int 5)) t)

let test_null_semantics () =
  let t = [| Value.Null; Value.Float 1.0; Value.String "x" |] in
  Alcotest.(check bool) "null cmp false" false (pred Expr.(col "a" =% int 5) t);
  Alcotest.(check bool) "null cmp false (ne)" false
    (pred Expr.(Cmp (Ne, col "a", int 5)) t)

let test_division_by_zero_null () =
  let e = Expr.(Arith (Div, int 1, int 0)) in
  Alcotest.(check bool) "1/0 = null" true (Value.is_null (eval e (row 0 0.0 "")))

let test_udf () =
  let fn = function
    | [ Value.Int x ] -> Value.Bool (x mod 2 = 0)
    | _ -> Value.Null
  in
  let e = Expr.udf ~name:"is_even" fn [ Expr.col "a" ] in
  Alcotest.(check bool) "even" true (pred e (row 4 0.0 ""));
  Alcotest.(check bool) "odd" false (pred e (row 3 0.0 ""))

let test_conjuncts () =
  let e = Expr.((col "a" =% int 1) &&% ((col "b" >% float 0.) &&% (col "s" =% str "x"))) in
  Alcotest.(check int) "3 conjuncts" 3 (List.length (Expr.conjuncts e));
  let back = Expr.conjoin (Expr.conjuncts e) in
  Alcotest.(check int) "conjoin roundtrip count" 3
    (List.length (Expr.conjuncts back))

let test_columns () =
  let e = Expr.((col "t.a" =% col "t.b") &&% (col "s" =% str "q")) in
  Alcotest.(check (list string)) "columns" [ "t.a"; "t.b"; "s" ] (Expr.columns e)

let test_shapes () =
  (match Expr.shape_of Expr.(col "a" <% int 3) with
   | Expr.S_col_cmp_const ("a", Expr.Lt, Value.Int 3) -> ()
   | _ -> Alcotest.fail "shape col<const");
  (match Expr.shape_of Expr.(int 3 >% col "a") with
   | Expr.S_col_cmp_const ("a", Expr.Lt, Value.Int 3) -> ()
   | _ -> Alcotest.fail "flipped shape");
  (match Expr.shape_of Expr.(col "t.a" =% col "u.b") with
   | Expr.S_col_eq_col ("t.a", "u.b") -> ()
   | _ -> Alcotest.fail "equi-join shape");
  match Expr.shape_of Expr.(Between (col "a", int 1, int 2)) with
  | Expr.S_col_between ("a", Value.Int 1, Value.Int 2) -> ()
  | _ -> Alcotest.fail "between shape"

let test_to_sql () =
  Alcotest.(check string) "sql" "t.a = 3" (Expr.to_sql Expr.(col "t.a" =% int 3));
  Alcotest.(check string) "between" "a between 1 and 2"
    (Expr.to_sql Expr.(Between (col "a", int 1, int 2)))

let test_resolvable () =
  Alcotest.(check bool) "resolvable" true (Expr.resolvable schema Expr.(col "t.a" =% int 1));
  Alcotest.(check bool) "unresolvable" false
    (Expr.resolvable schema Expr.(col "z.q" =% int 1))

(* --- selectivity --- *)

let no_stats = { Selectivity.stats_of = (fun _ -> None) }

let stats_with values =
  let st = Column_stats.analyze (List.map (fun i -> Value.Int i) values) in
  { Selectivity.stats_of = (fun c -> if c = "t.a" then Some st else None) }

let test_default_selectivities () =
  Alcotest.(check (float 1e-9)) "eq default" Selectivity.default_eq
    (Selectivity.selectivity no_stats Expr.(col "t.a" =% int 1));
  Alcotest.(check (float 1e-9)) "range default" Selectivity.default_range
    (Selectivity.selectivity no_stats Expr.(col "t.a" <% int 1))

let test_histogram_selectivity () =
  let env = stats_with (List.init 1000 (fun i -> i mod 100)) in
  let s = Selectivity.selectivity env Expr.(col "t.a" =% int 7) in
  Alcotest.(check bool) (Printf.sprintf "eq sel %.4f ~ 0.01" s) true
    (Float.abs (s -. 0.01) < 0.005);
  let r = Selectivity.selectivity env Expr.(col "t.a" <% int 50) in
  Alcotest.(check bool) (Printf.sprintf "range sel %.3f ~ 0.5" r) true
    (Float.abs (r -. 0.5) < 0.1)

let test_conjunction_independence () =
  let env = stats_with (List.init 1000 (fun i -> i mod 100)) in
  let s1 = Selectivity.selectivity env Expr.(col "t.a" <% int 50) in
  let s2 = Selectivity.selectivity env Expr.(col "t.a" >=% int 0) in
  let s = Selectivity.selectivity env Expr.((col "t.a" <% int 50) &&% (col "t.a" >=% int 0)) in
  Alcotest.(check (float 1e-6)) "product rule" (s1 *. s2) s

let test_udf_selectivity () =
  let u = Expr.udf ~selectivity:0.42 ~name:"f" (fun _ -> Value.Bool true) [] in
  Alcotest.(check (float 1e-9)) "declared" 0.42
    (Selectivity.selectivity no_stats u);
  let u2 = Expr.udf ~name:"g" (fun _ -> Value.Bool true) [] in
  Alcotest.(check (float 1e-9)) "default udf" Selectivity.default_udf
    (Selectivity.selectivity no_stats u2)

let test_distinct_of_column () =
  let env = stats_with (List.init 1000 (fun i -> i mod 100)) in
  match Selectivity.distinct_of_column env "t.a" with
  | Some d -> Alcotest.(check bool) "~100 distinct" true (Float.abs (d -. 100.) < 2.)
  | None -> Alcotest.fail "expected distinct"

let prop_selectivity_in_unit =
  QCheck.Test.make ~name:"selectivity always in [0,1]" ~count:300
    QCheck.(pair (int_range (-50) 150) (int_range 0 3))
    (fun (v, op) ->
       let env = stats_with (List.init 500 (fun i -> i mod 100)) in
       let e =
         match op with
         | 0 -> Expr.(col "t.a" =% int v)
         | 1 -> Expr.(col "t.a" <% int v)
         | 2 -> Expr.(col "t.a" >=% int v)
         | _ -> Expr.(Between (col "t.a", int (v - 10), int v))
       in
       let s = Selectivity.selectivity env e in
       s >= 0.0 && s <= 1.0)

(* random expression generator over the fixture schema (comparisons and
   boolean combinators over t.a / t.b) *)
let gen_expr =
  let open QCheck.Gen in
  let leaf =
    oneof
      [ map (fun v -> Expr.(col "t.a" =% int v)) (int_range (-5) 15);
        map (fun v -> Expr.(col "t.a" <% int v)) (int_range (-5) 15);
        map (fun v -> Expr.(col "t.b" >=% float (float_of_int v))) (int_range 0 9);
        map2 (fun a b -> Expr.(Between (col "t.a", int (min a b), int (max a b))))
          (int_range 0 9) (int_range 0 9) ]
  in
  let rec tree depth =
    if depth = 0 then leaf
    else
      frequency
        [ (3, leaf);
          (2, map2 (fun a b -> Expr.And (a, b)) (tree (depth - 1)) (tree (depth - 1)));
          (2, map2 (fun a b -> Expr.Or (a, b)) (tree (depth - 1)) (tree (depth - 1)));
          (1, map (fun a -> Expr.Not a) (tree (depth - 1))) ]
  in
  tree 3

(* --- compile_pred against truthy (compile) --- *)

let pred_schema =
  Schema.make
    [ Schema.col ~qualifier:"t" "a" Value.TInt;
      Schema.col ~qualifier:"t" "b" Value.TFloat;
      Schema.col ~qualifier:"t" "s" Value.TString;
      Schema.col ~qualifier:"t" "d" Value.TDate;
      Schema.col ~qualifier:"t" "p" Value.TBool ]

let truthy = function Value.Bool b -> b | _ -> false

let even_udf =
  Expr.udf ~name:"even"
    (function [ Value.Int x ] -> Value.Bool (x mod 2 = 0) | _ -> Value.Null)
    [ Expr.col "t.a" ]

(* The [gen_expr] shapes plus Null constants, Int/Float comparisons in both
   directions, Date and String columns, Null-producing arithmetic, a UDF
   leaf and bare boolean leaves, under And/Or/Not. *)
let gen_pred_expr =
  let open QCheck.Gen in
  let null = return (Expr.Const Value.Null) in
  let num =
    frequency
      [ (3, map Expr.int (int_range (-2) 6));
        (3, map (fun k -> Expr.float (float_of_int k /. 2.0)) (int_range (-4) 12));
        (1, null) ]
  in
  let date =
    frequency [ (4, map (fun k -> Expr.Const (Value.Date (9000 + k))) (int_range 0 6)); (1, null) ]
  in
  let str =
    frequency [ (4, map (fun k -> Expr.str (Printf.sprintf "s%d" k)) (int_range 0 4)); (1, null) ]
  in
  let op = oneofl Expr.[ Eq; Ne; Lt; Le; Gt; Ge ] in
  let num_col =
    oneofl Expr.[ col "t.a"; col "t.b"; Arith (Add, col "t.a", col "t.b") ]
  in
  let leaf =
    oneof
      [ gen_expr;
        map3 (fun op c k -> Expr.Cmp (op, c, k)) op num_col num;
        map3 (fun op c k -> Expr.Cmp (op, k, c)) op num_col num;
        map (fun op -> Expr.(Cmp (op, col "t.a", col "t.b"))) op;
        map2 (fun op k -> Expr.Cmp (op, Expr.col "t.d", k)) op date;
        map2 (fun op k -> Expr.Cmp (op, Expr.col "t.s", k)) op str;
        map3 (fun c lo hi -> Expr.Between (c, lo, hi)) num_col num num;
        map2 (fun lo hi -> Expr.Between (Expr.col "t.d", lo, hi)) date date;
        return even_udf;
        return (Expr.col "t.p");
        map (fun b -> Expr.Const (Value.Bool b)) bool;
        null ]
  in
  let rec tree depth =
    if depth = 0 then leaf
    else
      frequency
        [ (3, leaf);
          (2, map2 (fun a b -> Expr.And (a, b)) (tree (depth - 1)) (tree (depth - 1)));
          (2, map2 (fun a b -> Expr.Or (a, b)) (tree (depth - 1)) (tree (depth - 1)));
          (2, map (fun a -> Expr.Not a) (tree (depth - 1))) ]
  in
  tree 3

let gen_pred_row =
  let open QCheck.Gen in
  let cell mk g = frequency [ (1, return Value.Null); (4, map mk g) ] in
  map2
    (fun (a, b, s, d) p -> [| a; b; s; d; p |])
    (quad
       (cell (fun k -> Value.Int k) (int_range (-2) 6))
       (cell (fun k -> Value.Float (float_of_int k /. 2.0)) (int_range (-4) 12))
       (cell (fun k -> Value.String (Printf.sprintf "s%d" k)) (int_range 0 4))
       (cell (fun k -> Value.Date (9000 + k)) (int_range 0 6)))
    (cell (fun b -> Value.Bool b) bool)

let prop_compile_pred_is_truthy_compile =
  QCheck.Test.make ~name:"compile_pred = truthy (compile)" ~count:500
    (QCheck.make
       ~print:(fun (e, rows) ->
           Printf.sprintf "%s over %s" (Expr.to_sql e)
             (String.concat "; " (List.map Tuple.to_string rows)))
       QCheck.Gen.(pair gen_pred_expr (list_size (int_range 1 12) gen_pred_row)))
    (fun (e, rows) ->
       let p = Expr.compile_pred pred_schema e and f = Expr.compile pred_schema e in
       List.for_all (fun t -> p t = truthy (f t)) rows)

let prop_sql_roundtrip =
  QCheck.Test.make ~name:"to_sql/parse_expr roundtrip preserves semantics"
    ~count:300
    (QCheck.make ~print:Expr.to_sql gen_expr)
    (fun e ->
       let e' = Mqr_sql.Parser.parse_expr (Expr.to_sql e) in
       (* compare by evaluation over a grid of rows *)
       let p = Expr.compile_pred schema e and p' = Expr.compile_pred schema e' in
       List.for_all
         (fun a ->
            List.for_all
              (fun b ->
                 let t = row a (float_of_int b) "x" in
                 p t = p' t)
              [ 0; 3; 7; 12 ])
         [ -2; 0; 5; 9; 14 ])

let prop_conjuncts_preserve_semantics =
  QCheck.Test.make ~name:"conjoin (conjuncts e) = e for AND trees" ~count:200
    (QCheck.make ~print:Expr.to_sql gen_expr)
    (fun e ->
       let e' = Expr.conjoin (Expr.conjuncts e) in
       let p = Expr.compile_pred schema e and p' = Expr.compile_pred schema e' in
       List.for_all
         (fun a ->
            let t = row a 1.0 "x" in
            p t = p' t)
         [ -1; 0; 4; 8; 13 ])

let suite =
  [ Alcotest.test_case "eval arith" `Quick test_eval_arith;
    Alcotest.test_case "eval cmp" `Quick test_eval_cmp;
    Alcotest.test_case "eval between" `Quick test_eval_between;
    Alcotest.test_case "eval bool ops" `Quick test_eval_bool_ops;
    Alcotest.test_case "null semantics" `Quick test_null_semantics;
    Alcotest.test_case "division by zero" `Quick test_division_by_zero_null;
    Alcotest.test_case "udf" `Quick test_udf;
    Alcotest.test_case "conjuncts" `Quick test_conjuncts;
    Alcotest.test_case "columns" `Quick test_columns;
    Alcotest.test_case "shapes" `Quick test_shapes;
    Alcotest.test_case "to_sql" `Quick test_to_sql;
    Alcotest.test_case "resolvable" `Quick test_resolvable;
    Alcotest.test_case "default selectivities" `Quick test_default_selectivities;
    Alcotest.test_case "histogram selectivity" `Quick test_histogram_selectivity;
    Alcotest.test_case "conjunction independence" `Quick test_conjunction_independence;
    Alcotest.test_case "udf selectivity" `Quick test_udf_selectivity;
    Alcotest.test_case "distinct of column" `Quick test_distinct_of_column;
    QCheck_alcotest.to_alcotest prop_selectivity_in_unit;
    QCheck_alcotest.to_alcotest prop_compile_pred_is_truthy_compile;
    QCheck_alcotest.to_alcotest prop_sql_roundtrip;
    QCheck_alcotest.to_alcotest prop_conjuncts_preserve_semantics ]
