open Mqr_storage
module Lexer = Mqr_sql.Lexer
module Parser = Mqr_sql.Parser
module Ast = Mqr_sql.Ast
module Query = Mqr_sql.Query
module Catalog = Mqr_catalog.Catalog
module Expr = Mqr_expr.Expr

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* --- lexer --- *)

let test_lex_basic () =
  let toks = Lexer.tokenize "select a, b from t where a <= 3.5" in
  Alcotest.(check int) "token count" 11 (List.length toks);
  (match toks with
   | Lexer.KW "select" :: Lexer.IDENT "a" :: Lexer.COMMA :: _ -> ()
   | _ -> Alcotest.fail "prefix wrong")

let test_lex_string_escape () =
  match Lexer.tokenize "'it''s'" with
  | [ Lexer.STRING "it's"; Lexer.EOF ] -> ()
  | _ -> Alcotest.fail "string escape"

let test_lex_operators () =
  match Lexer.tokenize "<> <= >= < > = !=" with
  | [ Lexer.NE; Lexer.LE; Lexer.GE; Lexer.LT; Lexer.GT; Lexer.EQ; Lexer.NE;
      Lexer.EOF ] -> ()
  | _ -> Alcotest.fail "operators"

let test_lex_case_insensitive_keywords () =
  match Lexer.tokenize "SELECT From WHERE" with
  | [ Lexer.KW "select"; Lexer.KW "from"; Lexer.KW "where"; Lexer.EOF ] -> ()
  | _ -> Alcotest.fail "keywords"

let test_lex_bad_char () =
  Alcotest.(check bool) "lex error" true
    (try
       ignore (Lexer.tokenize "select #");
       false
     with Lexer.Lex_error _ -> true)

let test_lex_unterminated_string () =
  Alcotest.(check bool) "unterminated" true
    (try
       ignore (Lexer.tokenize "'abc");
       false
     with Lexer.Lex_error _ -> true)

(* An integer literal above max_int is a lex error that names it. *)
let test_lex_int_out_of_range () =
  let lit = "99999999999999999999" in
  match Lexer.tokenize ("select l_orderkey from lineitem where l_orderkey < " ^ lit) with
  | _ -> Alcotest.fail "accepted"
  | exception Lexer.Lex_error m ->
    Alcotest.(check bool) ("names the literal: " ^ m) true
      (contains m lit)

(* The parser reads tokens as it goes, yet a text with a lexical error
   anywhere raises [Lex_error], also behind an earlier parse error. *)
let test_lex_error_first () =
  List.iter
    (fun sql ->
       Alcotest.(check bool) sql true
         (match Parser.parse_statement sql with
          | _ -> false
          | exception Lexer.Lex_error _ -> true))
    [ "select from t where a = #"; "insert into t values (1, 2 3, 'x)";
      "delete t where a < 'open" ]

(* --- parser --- *)

let test_parse_simple () =
  let q = Parser.parse "select a from t" in
  Alcotest.(check int) "one item" 1 (List.length q.Ast.select);
  Alcotest.(check (list (pair string (option string)))) "from" [ ("t", None) ]
    q.Ast.from

let test_parse_full () =
  let q =
    Parser.parse
      "select a, sum(b) as total from t x, u where x.a = u.a and b > 3 \
       group by a order by total desc limit 5"
  in
  Alcotest.(check int) "2 items" 2 (List.length q.Ast.select);
  Alcotest.(check (list (pair string (option string)))) "from"
    [ ("t", Some "x"); ("u", None) ] q.Ast.from;
  Alcotest.(check bool) "has where" true (q.Ast.where <> None);
  Alcotest.(check (list string)) "group" [ "a" ] q.Ast.group_by;
  (match q.Ast.order_by with
   | [ { Ast.key = "total"; asc = false } ] -> ()
   | _ -> Alcotest.fail "order");
  Alcotest.(check (option int)) "limit" (Some 5) q.Ast.limit

let test_parse_precedence () =
  (* a = 1 or b = 2 and c = 3  ==  a = 1 or (b = 2 and c = 3) *)
  let e = Parser.parse_expr "a = 1 or b = 2 and c = 3" in
  match e with
  | Expr.Or (_, Expr.And (_, _)) -> ()
  | _ -> Alcotest.fail "precedence"

let test_parse_parens () =
  let e = Parser.parse_expr "(a = 1 or b = 2) and c = 3" in
  match e with
  | Expr.And (Expr.Or (_, _), _) -> ()
  | _ -> Alcotest.fail "parens"

let test_parse_between () =
  match Parser.parse_expr "a between 1 and 5" with
  | Expr.Between (Expr.Col "a", _, _) -> ()
  | _ -> Alcotest.fail "between"

let test_parse_date_literal () =
  match Parser.parse_expr "d >= date '1994-01-01'" with
  | Expr.Cmp (Expr.Ge, Expr.Col "d", Expr.Const (Value.Date _)) -> ()
  | _ -> Alcotest.fail "date literal"

(* A DATE literal that is no calendar date is a parse error that names
   it. *)
let test_parse_bad_date () =
  let lit = "1994-13-01" in
  match Parser.parse_statement ("select a from t where d < date '" ^ lit ^ "'") with
  | _ -> Alcotest.fail "accepted"
  | exception Parser.Parse_error m ->
    Alcotest.(check bool) ("names the literal: " ^ m) true (contains m lit)

let test_parse_arith () =
  match Parser.parse_expr "a + 2 * b" with
  | Expr.Arith (Expr.Add, Expr.Col "a", Expr.Arith (Expr.Mul, _, _)) -> ()
  | _ -> Alcotest.fail "arith precedence"

let test_parse_count_star () =
  let q = Parser.parse "select count(*) from t" in
  match q.Ast.select with
  | [ Ast.Agg_item (Ast.Count, false, None, None) ] -> ()
  | _ -> Alcotest.fail "count star"

let test_parse_udf () =
  let udfs =
    [ { Parser.name = "myfn"; fn = (fun _ -> Value.Bool true); selectivity = Some 0.5 } ]
  in
  (match Parser.parse_expr ~udfs "myfn(a, 3)" with
   | Expr.Udf { Expr.udf_name = "myfn"; args = [ _; _ ]; declared_selectivity = Some 0.5; _ } -> ()
   | _ -> Alcotest.fail "udf parse");
  Alcotest.(check bool) "unknown fn" true
    (try
       ignore (Parser.parse_expr "nosuch(a)");
       false
     with Parser.Parse_error _ -> true)

let test_parse_errors () =
  List.iter
    (fun sql ->
       Alcotest.(check bool) sql true
         (try
            ignore (Parser.parse sql);
            false
          with Parser.Parse_error _ -> true))
    [ "select from t"; "select a"; "select a from t where"; "select a from t limit x";
      "select a from t where a = 1 2" ]

let test_ast_roundtrip () =
  let sql = "select a, sum(b) as s from t, u where t.a = u.a group by a limit 3" in
  let q = Parser.parse sql in
  let q2 = Parser.parse (Ast.to_sql q) in
  Alcotest.(check string) "stable" (Ast.to_sql q) (Ast.to_sql q2)

(* --- binder --- *)

let fixture_catalog () =
  let catalog = Catalog.create () in
  let t_schema =
    Schema.make [ Schema.col "a" Value.TInt; Schema.col "b" Value.TFloat ]
  in
  let u_schema =
    Schema.make [ Schema.col "a" Value.TInt; Schema.col "c" Value.TString ]
  in
  let t = Heap_file.create t_schema and u = Heap_file.create u_schema in
  for i = 0 to 9 do
    Heap_file.append t [| Value.Int i; Value.Float (float_of_int i) |];
    Heap_file.append u [| Value.Int i; Value.String (string_of_int i) |]
  done;
  ignore (Catalog.add_table catalog "t" t);
  ignore (Catalog.add_table catalog "u" u);
  Catalog.analyze_table catalog "t";
  Catalog.analyze_table catalog "u";
  catalog

let bind sql = Query.bind (fixture_catalog ()) (Parser.parse sql)

let test_bind_qualifies () =
  let q = bind "select b from t, u where t.a = u.a and c = 'x'" in
  Alcotest.(check (list string)) "select qualified" [ "t.b" ] q.Query.select_cols;
  match q.Query.conjuncts with
  | [ j; f ] ->
    Alcotest.(check string) "join conjunct" "t.a = u.a" (Expr.to_sql j);
    Alcotest.(check string) "filter" "u.c = 'x'" (Expr.to_sql f)
  | _ -> Alcotest.fail "conjunct count"

let test_bind_star () =
  let q = bind "select * from t" in
  Alcotest.(check (list string)) "star expands" [ "t.a"; "t.b" ] q.Query.select_cols

let test_bind_ambiguous () =
  Alcotest.(check bool) "ambiguous a" true
    (try
       ignore (bind "select a from t, u");
       false
     with Query.Bind_error _ -> true)

let test_bind_unknown_table () =
  Alcotest.(check bool) "unknown" true
    (try
       ignore (bind "select a from nosuch");
       false
     with Query.Bind_error _ -> true)

let test_bind_group_validation () =
  Alcotest.(check bool) "non-grouped output" true
    (try
       ignore (bind "select b, sum(a) from t group by a");
       false
     with Query.Bind_error _ -> true);
  let q = bind "select b, sum(a) as s from t group by b" in
  Alcotest.(check (list string)) "group ok" [ "t.b" ] q.Query.group_by

let test_bind_alias () =
  let q = bind "select x.a from t x, t y where x.a = y.a" in
  Alcotest.(check int) "2 relations" 2 (List.length q.Query.relations);
  Alcotest.(check int) "1 join" 1 (Query.join_count q)

let test_bind_duplicate_alias () =
  Alcotest.(check bool) "dup alias" true
    (try
       ignore (bind "select a from t, t");
       false
     with Query.Bind_error _ -> true)

let test_output_schema () =
  let catalog = fixture_catalog () in
  let q = Query.bind catalog (Parser.parse "select b, count(*) as n from t group by b") in
  let out = Query.output_schema catalog q in
  Alcotest.(check int) "2 cols" 2 (Schema.arity out);
  Alcotest.(check string) "agg col" "n" (Schema.column out 1).Schema.name

let test_parse_having_distinct () =
  let q = Parser.parse "select distinct a from t where b > 1" in
  Alcotest.(check bool) "distinct flag" true q.Ast.distinct;
  let q2 = Parser.parse "select a, count(*) as n from t group by a having n > 2" in
  Alcotest.(check bool) "having parsed" true (q2.Ast.having <> None)

let test_bind_distinct_rewrites_to_group () =
  let q = bind "select distinct b from t" in
  Alcotest.(check (list string)) "group by = select" [ "t.b" ] q.Query.group_by;
  Alcotest.(check int) "no aggs" 0 (List.length q.Query.aggs)

(* The read set: WHERE, GROUP BY and ORDER BY columns, sorted and
   deduplicated; a column only selected or only aggregated is not read. *)
let test_read_columns () =
  let check name sql expected =
    Alcotest.(check (list string)) name expected
      (Query.read_columns (bind sql))
  in
  check "grouped"
    "select c, sum(b) as s from t, u where t.a = u.a group by c order by s"
    [ "s"; "t.a"; "u.a"; "u.c" ];
  check "plain" "select c from t, u where t.a = u.a and t.a > 2 order by b"
    [ "t.a"; "t.b"; "u.a" ];
  check "no predicates" "select b, c from t, u" []

let test_bind_having () =
  let q = bind "select b, count(*) as n from t group by b having n > 1" in
  (match q.Query.having with
   | Some e -> Alcotest.(check string) "resolved" "n > 1" (Expr.to_sql e)
   | None -> Alcotest.fail "having lost");
  Alcotest.(check bool) "having without group rejected" true
    (try
       ignore (bind "select a from t having a > 1");
       false
     with Query.Bind_error _ -> true)

let test_parse_count_distinct () =
  let q = Parser.parse "select count(distinct a) as n from t" in
  (match q.Ast.select with
   | [ Ast.Agg_item (Ast.Count, true, Some _, Some "n") ] -> ()
   | _ -> Alcotest.fail "count distinct parse");
  Alcotest.(check bool) "distinct star rejected" true
    (try
       ignore (Parser.parse "select count(distinct *) from t");
       false
     with Parser.Parse_error _ -> true)

let test_join_count_classification () =
  Alcotest.(check int) "0 joins" 0 (Query.join_count (bind "select a from t where a < 3"));
  Alcotest.(check int) "1 join" 1
    (Query.join_count (bind "select b from t, u where t.a = u.a"))

let suite =
  [ Alcotest.test_case "lex basic" `Quick test_lex_basic;
    Alcotest.test_case "lex string escape" `Quick test_lex_string_escape;
    Alcotest.test_case "lex operators" `Quick test_lex_operators;
    Alcotest.test_case "lex keywords" `Quick test_lex_case_insensitive_keywords;
    Alcotest.test_case "lex bad char" `Quick test_lex_bad_char;
    Alcotest.test_case "lex unterminated" `Quick test_lex_unterminated_string;
    Alcotest.test_case "lex int out of range" `Quick test_lex_int_out_of_range;
    Alcotest.test_case "lex error before parse error" `Quick test_lex_error_first;
    Alcotest.test_case "parse simple" `Quick test_parse_simple;
    Alcotest.test_case "parse full" `Quick test_parse_full;
    Alcotest.test_case "parse precedence" `Quick test_parse_precedence;
    Alcotest.test_case "parse parens" `Quick test_parse_parens;
    Alcotest.test_case "parse between" `Quick test_parse_between;
    Alcotest.test_case "parse date" `Quick test_parse_date_literal;
    Alcotest.test_case "parse bad date" `Quick test_parse_bad_date;
    Alcotest.test_case "parse arith" `Quick test_parse_arith;
    Alcotest.test_case "parse count star" `Quick test_parse_count_star;
    Alcotest.test_case "parse udf" `Quick test_parse_udf;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "ast roundtrip" `Quick test_ast_roundtrip;
    Alcotest.test_case "bind qualifies" `Quick test_bind_qualifies;
    Alcotest.test_case "bind star" `Quick test_bind_star;
    Alcotest.test_case "bind ambiguous" `Quick test_bind_ambiguous;
    Alcotest.test_case "bind unknown table" `Quick test_bind_unknown_table;
    Alcotest.test_case "bind group validation" `Quick test_bind_group_validation;
    Alcotest.test_case "bind alias self-join" `Quick test_bind_alias;
    Alcotest.test_case "bind duplicate alias" `Quick test_bind_duplicate_alias;
    Alcotest.test_case "output schema" `Quick test_output_schema;
    Alcotest.test_case "join count" `Quick test_join_count_classification;
    Alcotest.test_case "parse having/distinct" `Quick test_parse_having_distinct;
    Alcotest.test_case "bind distinct" `Quick test_bind_distinct_rewrites_to_group;
    Alcotest.test_case "bind having" `Quick test_bind_having;
    Alcotest.test_case "read columns" `Quick test_read_columns;
    Alcotest.test_case "parse count distinct" `Quick test_parse_count_distinct ]
