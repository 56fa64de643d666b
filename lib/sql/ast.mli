(** Abstract syntax for the SQL subset. *)

type agg_fn = Count | Sum | Avg | Min | Max

val agg_fn_to_string : agg_fn -> string

type select_item =
  | Star
  | Expr_item of Mqr_expr.Expr.t * string option      (** expr [AS alias] *)
  | Agg_item of agg_fn * bool * Mqr_expr.Expr.t option * string option
      (** function, DISTINCT flag, argument ([None] = count-star), alias *)

type order_item = { key : string; asc : bool }

type query = {
  select : select_item list;
  distinct : bool;  (** SELECT DISTINCT *)
  from : (string * string option) list;  (** (table, alias) *)
  where : Mqr_expr.Expr.t option;
  group_by : string list;
  having : Mqr_expr.Expr.t option;
  order_by : order_item list;
  limit : int option;
}

(** Render back to SQL text (used for remainder-query resubmission). *)
val to_sql : query -> string
