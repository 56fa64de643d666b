(** Recursive-descent parser for the SQL subset.

    User-defined functions appearing in predicates are resolved against the
    [udfs] registry at parse time so the resulting expression carries the
    executable closure (and its declared selectivity, if any). *)

type udf_def = {
  name : string;
  fn : Mqr_storage.Value.t list -> Mqr_storage.Value.t;
  selectivity : float option;
}

exception Parse_error of string

(** The parser pulls tokens from {!Lexer.next} as it goes and keeps none
    behind it.  @raise Parse_error or {!Lexer.Lex_error} on malformed
    input: [Lex_error] whenever the text holds a lexical error, even
    after the point where parsing failed, and a [Parse_error] naming a
    DATE literal that is no calendar date. *)
val parse : ?udfs:udf_def list -> string -> Ast.query

(** One row of INSERT ... VALUES, its items in order.  An item that is a
    literal, or a negated number (read as [0 - x], so [-0.0] is +0.0), is
    its value in [values]; any other item is parsed as an expression and
    listed in [exprs] with its position, ascending, leaving [Value.Null]
    at that position in [values] (no SQL literal is NULL).  The engine
    coerces [values] in place and stores the array as the row's tuple,
    so a parsed INSERT runs once. *)
type insert_row = {
  values : Mqr_storage.Value.t array;
  exprs : (int * Mqr_expr.Expr.t) list;
}

type statement =
  | Select of Ast.query
  | Insert of { table : string; rows : insert_row list }
      (** INSERT INTO t VALUES (..), (..), ... *)
  | Delete of { table : string; where : Mqr_expr.Expr.t option }
  | Create_table of {
      table : string;
      columns : (string * Mqr_storage.Value.ty * int option) list;
          (** (name, type, optional width for strings) *)
    }
  | Create_index of { table : string; column : string }
  | Copy of { table : string; file : string }
      (** COPY t FROM 'file.csv' *)
  | Analyze of string  (** ANALYZE t *)

val parse_statement : ?udfs:udf_def list -> string -> statement

(** Parse a scalar/boolean expression on its own (for tests). *)
val parse_expr : ?udfs:udf_def list -> string -> Mqr_expr.Expr.t
