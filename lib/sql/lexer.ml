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

let is_ident_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '_' | '0' .. '9' -> true
  | _ -> false

let is_digit = function '0' .. '9' -> true | _ -> false

let equal a b =
  match a, b with
  | IDENT x, IDENT y | STRING x, STRING y | KW x, KW y -> String.equal x y
  | INT x, INT y -> Int.equal x y
  | FLOAT x, FLOAT y -> Float.equal x y
  | LPAREN, LPAREN | RPAREN, RPAREN | COMMA, COMMA | DOT, DOT | STAR, STAR
  | EQ, EQ | NE, NE | LT, LT | LE, LE | GT, GT | GE, GE
  | PLUS, PLUS | MINUS, MINUS | SLASH, SLASH | EOF, EOF -> true
  | ( IDENT _ | INT _ | FLOAT _ | STRING _ | KW _ | LPAREN | RPAREN | COMMA
    | DOT | STAR | EQ | NE | LT | LE | GT | GE | PLUS | MINUS | SLASH | EOF ),
    _ -> false

(* The word src.[i .. j-1], lower-cased into one fresh string. *)
let lower_word src i j =
  let b = Bytes.create (j - i) in
  for k = i to j - 1 do
    Bytes.unsafe_set b (k - i) (Char.lowercase_ascii (String.unsafe_get src k))
  done;
  Bytes.unsafe_to_string b

(* The decimal digits src.[i .. j-1] as an int, or [Lex_error] naming the
   literal when it exceeds [max_int]. *)
let int_literal src i j =
  let v = ref 0 in
  for k = i to j - 1 do
    let d = Char.code (String.unsafe_get src k) - Char.code '0' in
    if !v > (max_int - d) / 10 then
      raise
        (Lex_error
           (Printf.sprintf "integer literal %s out of range" (String.sub src i (j - i))));
    v := (10 * !v) + d
  done;
  !v

(* The index of the quote closing a string literal whose contents start
   at src.[j]; a doubled quote [''] does not close it. *)
let rec string_close src j =
  if j >= String.length src then raise (Lex_error "unterminated string literal")
  else if src.[j] <> '\'' then string_close src (j + 1)
  else if j + 1 < String.length src && src.[j + 1] = '\'' then
    string_close src (j + 2)
  else j

(* The contents src.[i .. j-1] of a string literal, each [''] read as one
   quote: one [String.sub] when there is none, else one copy into a
   string of the exact length. *)
let string_contents src i j =
  let quotes = ref 0 in
  for k = i to j - 1 do
    if String.unsafe_get src k = '\'' then incr quotes
  done;
  if !quotes = 0 then String.sub src i (j - i)
  else begin
    let b = Bytes.create (j - i - (!quotes / 2)) in
    let k = ref i in
    for o = 0 to Bytes.length b - 1 do
      Bytes.unsafe_set b o (String.unsafe_get src !k);
      k := !k + if String.unsafe_get src !k = '\'' then 2 else 1
    done;
    Bytes.unsafe_to_string b
  end

(* The lexer reads one token per [next] call, so a parser holds only the
   token it is looking at: nothing is kept but what a token carries. *)
type lexbuf = { src : string; mutable pos : int }

let lexbuf src = { src; pos = 0 }
let position lb = lb.pos
let rewind lb pos = lb.pos <- pos

let rec ident_end src i =
  if i < String.length src && is_ident_char (String.unsafe_get src i) then
    ident_end src (i + 1)
  else i

let rec digits_end src i =
  if i < String.length src && is_digit (String.unsafe_get src i) then
    digits_end src (i + 1)
  else i

(* [tk], the [width] characters at [i] *)
let punct lb i width tk =
  lb.pos <- i + width;
  tk

(* The token at [lb.pos] (whitespace and [;] skipped), with [lb.pos] moved
   past it; [EOF] at the end of the text, as often as asked. *)
let rec next lb =
  let src = lb.src and i = lb.pos in
  let n = String.length src in
  if i >= n then EOF
  else
    let c = String.unsafe_get src i in
    let after = if i + 1 < n then String.unsafe_get src (i + 1) else ' ' in
    match c with
    | ' ' | '\t' | '\n' | '\r' | ';' ->
      lb.pos <- i + 1;
      next lb
    | 'a' .. 'z' | 'A' .. 'Z' | '_' ->
      let j = ident_end src (i + 1) in
      lb.pos <- j;
      let word = lower_word src i j in
      if is_keyword word then KW word else IDENT word
    | '0' .. '9' ->
      let j = digits_end src (i + 1) in
      if j + 1 < n && src.[j] = '.' && is_digit src.[j + 1] then begin
        let k = digits_end src (j + 1) in
        lb.pos <- k;
        FLOAT (float_of_string (String.sub src i (k - i)))
      end
      else begin
        lb.pos <- j;
        INT (int_literal src i j)
      end
    | '\'' ->
      let j = string_close src (i + 1) in
      lb.pos <- j + 1;
      STRING (string_contents src (i + 1) j)
    | '<' when after = '>' -> punct lb i 2 NE
    | '!' when after = '=' -> punct lb i 2 NE
    | '<' when after = '=' -> punct lb i 2 LE
    | '>' when after = '=' -> punct lb i 2 GE
    | '(' -> punct lb i 1 LPAREN
    | ')' -> punct lb i 1 RPAREN
    | ',' -> punct lb i 1 COMMA
    | '.' -> punct lb i 1 DOT
    | '*' -> punct lb i 1 STAR
    | '=' -> punct lb i 1 EQ
    | '<' -> punct lb i 1 LT
    | '>' -> punct lb i 1 GT
    | '+' -> punct lb i 1 PLUS
    | '-' -> punct lb i 1 MINUS
    | '/' -> punct lb i 1 SLASH
    | c -> raise (Lex_error (Printf.sprintf "unexpected character %C" c))

let tokenize src =
  let lb = lexbuf src in
  let rec go acc =
    match next lb with
    | EOF -> List.rev (EOF :: acc)
    | tk -> go (tk :: acc)
  in
  go []

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
