(** Scalar expressions and predicates.

    Columns are referenced by (possibly qualified) name and resolved
    against a {!Mqr_storage.Schema.t} at compile time.  User-defined
    functions carry an opaque OCaml closure plus an optional declared
    selectivity — the paper's "predicate with a user-defined method whose
    selectivity the system cannot estimate". *)

open Mqr_storage

type arith_op = Add | Sub | Mul | Div
type cmp_op = Eq | Ne | Lt | Le | Gt | Ge

type t =
  | Col of string
  | Const of Value.t
  | Arith of arith_op * t * t
  | Cmp of cmp_op * t * t
  | Between of t * t * t  (** [Between (e, lo, hi)] — inclusive bounds *)
  | And of t * t
  | Or of t * t
  | Not of t
  | Udf of udf

and udf = {
  udf_name : string;
  args : t list;
  fn : Value.t list -> Value.t;
  declared_selectivity : float option;
}

(** Convenience constructors. *)
val col : string -> t
val int : int -> t
val float : float -> t
val str : string -> t
val ( =% ) : t -> t -> t
val ( <% ) : t -> t -> t
val ( <=% ) : t -> t -> t
val ( >% ) : t -> t -> t
val ( >=% ) : t -> t -> t
val ( &&% ) : t -> t -> t
val ( ||% ) : t -> t -> t

val udf :
  ?selectivity:float -> name:string -> (Value.t list -> Value.t) -> t list -> t

(** All column names referenced. *)
val columns : t -> string list

(** Whether the expression calls a user-defined function. *)
val has_udf : t -> bool

(** Split a predicate into its top-level AND conjuncts. *)
val conjuncts : t -> t list

(** Rebuild a conjunction ([Const true] for the empty list). *)
val conjoin : t list -> t

(** The value of [Arith (op, Const a, Const b)]: what a compiled
    expression computes for one arithmetic node. *)
val arith_eval : arith_op -> Value.t -> Value.t -> Value.t

(** [compile schema e] resolves columns and returns an evaluator.
    @raise Not_found on unresolvable columns. *)
val compile : Schema.t -> t -> Tuple.t -> Value.t

(** [compile_pred schema e] evaluates to a boolean; [Null] comparisons are
    false (SQL-style rejection). *)
val compile_pred : Schema.t -> t -> Tuple.t -> bool

(** Whether every column the expression mentions resolves in [schema]. *)
val resolvable : Schema.t -> t -> bool

(** Result type of an expression under a schema. *)
val type_of : Schema.t -> t -> Value.ty

(** Shapes the optimizer pattern-matches on. *)
type shape =
  | S_col_cmp_const of string * cmp_op * Value.t
  | S_col_between of string * Value.t * Value.t
  | S_col_eq_col of string * string        (** equi-join conjunct *)
  | S_col_cmp_col of cmp_op * string * string  (** non-equi join conjunct *)
  | S_udf of udf
  | S_other

val shape_of : t -> shape

(** SQL text, used when the dispatcher re-submits the remainder of a query
    against a temp table. *)
val to_sql : t -> string

