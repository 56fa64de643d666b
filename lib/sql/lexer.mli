(** Hand-written SQL lexer for the engine's SPJA subset. *)

type token =
  | IDENT of string      (** lower-cased identifier, possibly qualified later *)
  | INT of int
  | FLOAT of float
  | STRING of string
  | KW of string         (** lower-cased keyword (select, from, ...) *)
  | LPAREN | RPAREN | COMMA | DOT | STAR
  | EQ | NE | LT | LE | GT | GE
  | PLUS | MINUS | SLASH
  | EOF

exception Lex_error of string

(** A cursor over a statement's text. *)
type lexbuf

val lexbuf : string -> lexbuf

(** The next token, the cursor moved past it; [EOF] at the end of the
    text, as often as asked.  A token allocates its own block and its
    payload, nothing more: each word is lower-cased into one string, a
    string literal without [''] is one [String.sub] of the text,
    punctuation is an immediate constructor.  @raise Lex_error on bad
    input, naming an integer literal above [max_int]. *)
val next : lexbuf -> token

(** The cursor's offset in the text, and a way back to it: [next] after
    [rewind lb (position lb)] reads what it read then. *)
val position : lexbuf -> int

val rewind : lexbuf -> int -> unit

(** Tokenize an entire statement with {!next}, ending with one [EOF].
    @raise Lex_error on bad input. *)
val tokenize : string -> token list

(** Token equality by constructor and payload ([Float.equal] on floats),
    without a call into the runtime's polymorphic compare. *)
val equal : token -> token -> bool

val token_to_string : token -> string
