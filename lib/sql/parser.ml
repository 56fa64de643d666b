module Expr = Mqr_expr.Expr
module Value = Mqr_storage.Value

type udf_def = {
  name : string;
  fn : Value.t list -> Value.t;
  selectivity : float option;
}

exception Parse_error of string

(* The parser reads the text one token ahead of where it stands: [tok] is
   the token at the cursor, and the lexer's position is just past it. *)
type state = {
  lb : Lexer.lexbuf;
  mutable tok : Lexer.token;
  udfs : udf_def list;
}

let peek st = st.tok
let advance st = st.tok <- Lexer.next st.lb

let fail st msg =
  raise
    (Parse_error
       (Printf.sprintf "%s (at token %s)" msg
          (Lexer.token_to_string (peek st))))

let expect st tok msg =
  if Lexer.equal (peek st) tok then advance st else fail st msg

let accept st tok =
  if Lexer.equal (peek st) tok then begin
    advance st;
    true
  end
  else false

let accept_kw st kw =
  match peek st with
  | Lexer.KW k when String.equal k kw ->
    advance st;
    true
  | _ -> false

let expect_kw st kw = if not (accept_kw st kw) then fail st ("expected " ^ kw)

let ident st =
  match peek st with
  | Lexer.IDENT s ->
    advance st;
    s
  | _ -> fail st "expected identifier"

(* A column reference: ident or ident.ident *)
let column_ref st =
  let first = ident st in
  if accept st Lexer.DOT then first ^ "." ^ ident st else first

(* The value of the literal at the cursor, consumed: a number, a string
   or DATE 'yyyy-mm-dd'.  At anything else it consumes nothing and returns
   [Value.Null], which no literal denotes (SQL text has no NULL). *)
let literal st =
  match peek st with
  | Lexer.INT i -> advance st; Value.Int i
  | Lexer.FLOAT f -> advance st; Value.Float f
  | Lexer.STRING s -> advance st; Value.String s
  | Lexer.KW "date" -> (
    advance st;
    match peek st with
    | Lexer.STRING s -> (
      advance st;
      try Value.date_of_string s
      with Invalid_argument _ ->
        raise (Parse_error (Printf.sprintf "bad date literal '%s'" s)))
    | _ -> fail st "expected date literal string")
  | _ -> Value.Null

let rec parse_or st =
  let left = parse_and st in
  if accept_kw st "or" then Expr.Or (left, parse_or st) else left

and parse_and st =
  let left = parse_not st in
  if accept_kw st "and" then Expr.And (left, parse_and st) else left

and parse_not st =
  if accept_kw st "not" then Expr.Not (parse_not st) else parse_cmp st

and parse_cmp st =
  let left = parse_sum st in
  match peek st with
  | Lexer.EQ -> advance st; Expr.Cmp (Expr.Eq, left, parse_sum st)
  | Lexer.NE -> advance st; Expr.Cmp (Expr.Ne, left, parse_sum st)
  | Lexer.LT -> advance st; Expr.Cmp (Expr.Lt, left, parse_sum st)
  | Lexer.LE -> advance st; Expr.Cmp (Expr.Le, left, parse_sum st)
  | Lexer.GT -> advance st; Expr.Cmp (Expr.Gt, left, parse_sum st)
  | Lexer.GE -> advance st; Expr.Cmp (Expr.Ge, left, parse_sum st)
  | Lexer.KW "between" ->
    advance st;
    let lo = parse_sum st in
    expect_kw st "and";
    let hi = parse_sum st in
    Expr.Between (left, lo, hi)
  | _ -> left

and parse_sum st =
  let left = parse_prod st in
  match peek st with
  | Lexer.PLUS -> advance st; Expr.Arith (Expr.Add, left, parse_sum st)
  | Lexer.MINUS -> advance st; Expr.Arith (Expr.Sub, left, parse_sum st)
  | _ -> left

and parse_prod st =
  let left = parse_unary st in
  match peek st with
  | Lexer.STAR -> advance st; Expr.Arith (Expr.Mul, left, parse_prod st)
  | Lexer.SLASH -> advance st; Expr.Arith (Expr.Div, left, parse_prod st)
  | _ -> left

and parse_unary st =
  if accept st Lexer.MINUS then
    Expr.Arith (Expr.Sub, Expr.Const (Value.Int 0), parse_primary st)
  else parse_primary st

and parse_primary st =
  match peek st with
  | Lexer.LPAREN ->
    advance st;
    let e = parse_or st in
    expect st Lexer.RPAREN "expected )";
    e
  | Lexer.IDENT _ ->
    let name = column_ref st in
    if accept st Lexer.LPAREN then begin
      let args = parse_args st in
      expect st Lexer.RPAREN "expected )";
      match List.find_opt (fun u -> String.equal u.name name) st.udfs with
      | Some u ->
        Expr.udf ?selectivity:u.selectivity ~name:u.name u.fn args
      | None -> raise (Parse_error ("unknown function " ^ name))
    end
    else Expr.Col name
  | _ -> (
    match literal st with
    | Value.Null -> fail st "expected expression"
    | v -> Expr.Const v)

and parse_args st =
  if Lexer.equal (peek st) Lexer.RPAREN then []
  else begin
    let rec go acc =
      let e = parse_or st in
      if accept st Lexer.COMMA then go (e :: acc) else List.rev (e :: acc)
    in
    go []
  end

let agg_of_kw = function
  | "count" -> Some Ast.Count
  | "sum" -> Some Ast.Sum
  | "avg" -> Some Ast.Avg
  | "min" -> Some Ast.Min
  | "max" -> Some Ast.Max
  | _ -> None

let parse_alias st =
  if accept_kw st "as" then Some (ident st)
  else
    match peek st with
    | Lexer.IDENT s -> advance st; Some s
    | _ -> None

let parse_select_item st =
  match peek st with
  | Lexer.STAR -> advance st; Ast.Star
  | Lexer.KW kw when agg_of_kw kw <> None ->
    let fn = Option.get (agg_of_kw kw) in
    advance st;
    expect st Lexer.LPAREN "expected ( after aggregate";
    let distinct = accept_kw st "distinct" in
    let arg =
      if accept st Lexer.STAR then None else Some (parse_or st)
    in
    if distinct && Option.is_none arg then fail st "DISTINCT * is not valid";
    expect st Lexer.RPAREN "expected ) after aggregate";
    Ast.Agg_item (fn, distinct, arg, parse_alias st)
  | _ ->
    let e = parse_or st in
    Ast.Expr_item (e, parse_alias st)

let parse_from_item st =
  let table = ident st in
  let alias =
    match peek st with
    | Lexer.IDENT s -> advance st; Some s
    | _ -> None
  in
  (table, alias)

let comma_list st parse_item =
  let rec go acc =
    let item = parse_item st in
    if accept st Lexer.COMMA then go (item :: acc) else List.rev (item :: acc)
  in
  go []

let parse_query st =
  expect_kw st "select";
  let distinct = accept_kw st "distinct" in
  let select = comma_list st parse_select_item in
  expect_kw st "from";
  let from = comma_list st parse_from_item in
  let where = if accept_kw st "where" then Some (parse_or st) else None in
  let group_by =
    if accept_kw st "group" then begin
      expect_kw st "by";
      comma_list st column_ref
    end
    else []
  in
  let having = if accept_kw st "having" then Some (parse_or st) else None in
  let order_by =
    if accept_kw st "order" then begin
      expect_kw st "by";
      comma_list st (fun st ->
          let key = column_ref st in
          let asc =
            if accept_kw st "desc" then false
            else begin
              ignore (accept_kw st "asc");
              true
            end
          in
          { Ast.key; asc })
    end
    else []
  in
  let limit =
    if accept_kw st "limit" then begin
      match peek st with
      | Lexer.INT n -> advance st; Some n
      | _ -> fail st "expected integer after limit"
    end
    else None
  in
  expect st Lexer.EOF "trailing tokens after query";
  { Ast.select; distinct; from; where; group_by; having; order_by; limit }

type insert_row = { values : Value.t array; exprs : (int * Expr.t) list }

type statement =
  | Select of Ast.query
  | Insert of { table : string; rows : insert_row list }
  | Delete of { table : string; where : Expr.t option }
  | Create_table of {
      table : string;
      columns : (string * Mqr_storage.Value.ty * int option) list;
    }
  | Create_index of { table : string; column : string }
  | Copy of { table : string; file : string }
  | Analyze of string

(* One VALUES item that needs no evaluation: a literal, or a negated
   number, followed by [,] or [)].  A negated number is [0 - x] as [Expr]
   computes it, so [-0.0] is +0.0.  At any other item the cursor is left
   where it was and the result is [Value.Null]. *)
let insert_value st =
  let pos = Lexer.position st.lb and tok = st.tok in
  let v =
    match peek st with
    | Lexer.MINUS -> (
      advance st;
      match peek st with
      | Lexer.INT _ | Lexer.FLOAT _ ->
        Expr.arith_eval Expr.Sub (Value.Int 0) (literal st)
      | _ -> Value.Null)
    | _ -> literal st
  in
  match peek st with
  | (Lexer.COMMA | Lexer.RPAREN) when v != Value.Null -> v
  | _ ->
    Lexer.rewind st.lb pos;
    st.tok <- tok;
    Value.Null

(* A row's items go into [buf], grown as needed and shared by the rows,
   then into one array of the row's length. *)
let parse_row buf st =
  expect st Lexer.LPAREN "expected ( before row";
  let n = ref 0 and exprs = ref [] in
  if not (Lexer.equal (peek st) Lexer.RPAREN) then begin
    let more = ref true in
    while !more do
      if !n = Array.length !buf then begin
        let bigger = Array.make (2 * !n) Value.Null in
        Array.blit !buf 0 bigger 0 !n;
        buf := bigger
      end;
      let v = insert_value st in
      if v == Value.Null then exprs := (!n, parse_or st) :: !exprs;
      !buf.(!n) <- v;
      incr n;
      more := accept st Lexer.COMMA
    done
  end;
  expect st Lexer.RPAREN "expected ) after row";
  { values = Array.sub !buf 0 !n; exprs = List.rev !exprs }

let parse_insert st =
  expect_kw st "insert";
  expect_kw st "into";
  let table = ident st in
  expect_kw st "values";
  let rows = comma_list st (parse_row (ref (Array.make 16 Value.Null))) in
  expect st Lexer.EOF "trailing tokens after insert";
  Insert { table; rows }

let parse_delete st =
  expect_kw st "delete";
  expect_kw st "from";
  let table = ident st in
  let where = if accept_kw st "where" then Some (parse_or st) else None in
  expect st Lexer.EOF "trailing tokens after delete";
  Delete { table; where }

let parse_type st =
  match ident st with
  | "int" | "integer" -> Value.TInt
  | "float" | "double" | "real" -> Value.TFloat
  | "bool" | "boolean" -> Value.TBool
  | ty -> (match ty with
           | "string" | "text" | "varchar" | "char" -> Value.TString
           | _ -> fail st ("unknown type " ^ ty))

let parse_type_with_width st =
  (* DATE is a keyword, so handle it before the identifier path *)
  if accept_kw st "date" then (Value.TDate, None)
  else begin
    let ty = parse_type st in
    if accept st Lexer.LPAREN then begin
      match peek st with
      | Lexer.INT w ->
        advance st;
        expect st Lexer.RPAREN "expected ) after width";
        (ty, Some w)
      | _ -> fail st "expected width"
    end
    else (ty, None)
  end

let parse_create st =
  expect_kw st "create";
  if accept_kw st "table" then begin
    let table = ident st in
    expect st Lexer.LPAREN "expected ( after table name";
    let parse_column st =
      let cname = ident st in
      let ty, width = parse_type_with_width st in
      (cname, ty, width)
    in
    let columns = comma_list st parse_column in
    expect st Lexer.RPAREN "expected ) after columns";
    expect st Lexer.EOF "trailing tokens after create table";
    Create_table { table; columns }
  end
  else begin
    expect_kw st "index";
    expect_kw st "on";
    let table = ident st in
    expect st Lexer.LPAREN "expected ( before column";
    let column = ident st in
    expect st Lexer.RPAREN "expected ) after column";
    expect st Lexer.EOF "trailing tokens after create index";
    Create_index { table; column }
  end

let parse_copy st =
  expect_kw st "copy";
  let table = ident st in
  expect_kw st "from";
  match peek st with
  | Lexer.STRING file ->
    advance st;
    expect st Lexer.EOF "trailing tokens after copy";
    Copy { table; file }
  | _ -> fail st "expected file name string"

(* Run [parse] over [src].  A text with a lexical error anywhere raises
   [Lex_error], even where [parse] fails earlier: at a [Parse_error] the
   rest of the text is lexed before it is raised. *)
let run ?(udfs = []) src parse =
  let lb = Lexer.lexbuf src in
  let st = { lb; tok = Lexer.next lb; udfs } in
  try parse st
  with Parse_error _ as e ->
    while not (Lexer.equal (Lexer.next lb) Lexer.EOF) do () done;
    raise e

let parse ?udfs src = run ?udfs src parse_query

let parse_statement ?udfs src =
  run ?udfs src (fun st ->
      match peek st with
      | Lexer.KW "insert" -> parse_insert st
      | Lexer.KW "delete" -> parse_delete st
      | Lexer.KW "create" -> parse_create st
      | Lexer.KW "copy" -> parse_copy st
      | Lexer.KW "analyze" ->
        advance st;
        let table = ident st in
        expect st Lexer.EOF "trailing tokens after analyze";
        Analyze table
      | _ -> Select (parse_query st))

let parse_expr ?udfs src =
  run ?udfs src (fun st ->
      let e = parse_or st in
      expect st Lexer.EOF "trailing tokens after expression";
      e)
