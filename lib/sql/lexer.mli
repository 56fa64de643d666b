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

(** Tokenize an entire statement. @raise Lex_error on bad input. *)
val tokenize : string -> token list

val token_to_string : token -> string
