(** Bound query blocks.

    The binder resolves table names against the catalog, qualifies every
    column reference with its relation alias, and validates the aggregate
    structure.  The optimizer consumes this normal form directly: a set of
    relations plus a bag of WHERE conjuncts. *)

open Mqr_storage

exception Bind_error of string

type relation = {
  table : string;
  alias : string;
  rel_schema : Schema.t;  (** columns qualified with [alias] *)
}

type agg = {
  fn : Ast.agg_fn;
  distinct_arg : bool;  (** e.g. count(distinct c) *)
  arg : Mqr_expr.Expr.t option;  (** [None] only for count-star *)
  out_name : string;
}

type t = {
  relations : relation list;
  conjuncts : Mqr_expr.Expr.t list;  (** fully-qualified WHERE conjuncts *)
  select_cols : string list;         (** qualified non-aggregate outputs *)
  aggs : agg list;
  group_by : string list;            (** qualified *)
  having : Mqr_expr.Expr.t option;
      (** over the aggregate output: group columns and aggregate names *)
  order_by : (string * bool) list;   (** output-column name, ascending? *)
  limit : int option;
}

(** Bind an AST query against the catalog.
    @raise Bind_error on unknown tables/columns, ambiguity, or invalid
    aggregate structure. *)
val bind : Mqr_catalog.Catalog.t -> Ast.query -> t

(** Schema of the query result. *)
val output_schema : Mqr_catalog.Catalog.t -> t -> Schema.t

(** The columns whose statistics the re-optimizer can ask about: those
    of the WHERE conjuncts, the GROUP BY columns and the ORDER BY names,
    sorted and deduplicated.  Every reader of an intermediate result's
    catalog statistics asks only about these: a replan's [Stats_env] and
    [Selectivity] (through [Reopt_policy.remainder_query], whose
    predicates are a subset of the conjuncts), [Bounds] (the bound check,
    progress and the sanitizer) and SCIA on a switched-to plan.  So a temp
    table needs its free min/max only for these columns. *)
val read_columns : t -> string list

(** Every input column the block reads: those of the WHERE conjuncts,
    the SELECT list, the GROUP BY, the aggregate arguments, the ORDER BY
    and HAVING, sorted and deduplicated (the aggregate outputs that ORDER
    BY and HAVING may name are no input's).  A join outputs only these
    columns of its inputs. *)
val needed_columns : t -> string list

(** Number of join operators any plan for this block will contain
    (relations - 1); the paper classifies queries as simple/medium/complex
    by this count. *)
val join_count : t -> int
