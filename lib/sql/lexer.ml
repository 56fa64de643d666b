type token =
  | IDENT of string
  | INT of int
  | FLOAT of float
  | STRING of string
  | KW of string
  | LPAREN | RPAREN | COMMA | DOT | STAR
  | EQ | NE | LT | LE | GT | GE
  | PLUS | MINUS | SLASH
  | EOF

exception Lex_error of string

let is_keyword = function
  | "select" | "from" | "where" | "group" | "order" | "by" | "having"
  | "limit" | "and" | "or" | "not" | "between" | "as" | "asc" | "desc"
  | "date" | "insert" | "into" | "values" | "delete" | "create" | "table"
  | "index" | "on" | "copy" | "analyze" | "count" | "sum" | "avg" | "min"
  | "max" | "distinct" -> true
  | _ -> false

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

let tokenize src =
  let n = String.length src in
  let out = ref [] in
  let emit tk = out := tk :: !out in
  let i = ref 0 in
  while !i < n do
    let c = src.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if is_ident_start c then begin
      let j = ref !i in
      while !j < n && is_ident_char src.[!j] do incr j done;
      let word = String.lowercase_ascii (String.sub src !i (!j - !i)) in
      if is_keyword word then emit (KW word) else emit (IDENT word);
      i := !j
    end
    else if is_digit c then begin
      let j = ref !i in
      while !j < n && is_digit src.[!j] do incr j done;
      if !j < n && src.[!j] = '.' && !j + 1 < n && is_digit src.[!j + 1] then begin
        incr j;
        while !j < n && is_digit src.[!j] do incr j done;
        emit (FLOAT (float_of_string (String.sub src !i (!j - !i))))
      end
      else emit (INT (int_of_string (String.sub src !i (!j - !i))));
      i := !j
    end
    else if c = '\'' then begin
      let j = ref (!i + 1) in
      let buf = Buffer.create 16 in
      let closed = ref false in
      while not !closed do
        if !j >= n then raise (Lex_error "unterminated string literal")
        else if src.[!j] = '\'' then
          if !j + 1 < n && src.[!j + 1] = '\'' then begin
            Buffer.add_char buf '\'';
            j := !j + 2
          end
          else begin
            closed := true;
            incr j
          end
        else begin
          Buffer.add_char buf src.[!j];
          incr j
        end
      done;
      emit (STRING (Buffer.contents buf));
      i := !j
    end
    else begin
      let two =
        if !i + 1 < n then Some (String.sub src !i 2) else None
      in
      match two with
      | Some "<>" -> emit NE; i := !i + 2
      | Some "!=" -> emit NE; i := !i + 2
      | Some "<=" -> emit LE; i := !i + 2
      | Some ">=" -> emit GE; i := !i + 2
      | _ ->
        (match c with
         | '(' -> emit LPAREN | ')' -> emit RPAREN
         | ',' -> emit COMMA | '.' -> emit DOT | '*' -> emit STAR
         | '=' -> emit EQ | '<' -> emit LT | '>' -> emit GT
         | '+' -> emit PLUS | '-' -> emit MINUS | '/' -> emit SLASH
         | ';' -> ()
         | c -> raise (Lex_error (Printf.sprintf "unexpected character %C" c)));
        incr i
    end
  done;
  List.rev (EOF :: !out)

let token_to_string = function
  | IDENT s -> s
  | INT i -> string_of_int i
  | FLOAT f -> string_of_float f
  | STRING s -> "'" ^ s ^ "'"
  | KW k -> String.uppercase_ascii k
  | LPAREN -> "(" | RPAREN -> ")" | COMMA -> "," | DOT -> "." | STAR -> "*"
  | EQ -> "=" | NE -> "<>" | LT -> "<" | LE -> "<=" | GT -> ">" | GE -> ">="
  | PLUS -> "+" | MINUS -> "-" | SLASH -> "/"
  | EOF -> "<eof>"
