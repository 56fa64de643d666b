(** Inaccuracy-potential levels (paper Section 2.5).

    A level of [High] for a statistic means the corresponding optimizer
    estimate is likely wrong, making run-time observation of that statistic
    valuable.  Levels start from what the catalog knows about base-table
    columns and are propagated up the plan by the paper's rules:

    - base histogram: serial (or MaxDiff) -> Low, equi-width/equi-depth ->
      Medium, none -> High; one level worse if the statistics are stale;
    - distinct counts: Low on base tables when known, High at any
      intermediate point;
    - selection with a single-attribute simple predicate: unchanged;
      with predicates over two or more attributes of the relation: one
      level worse (possible correlation); with a user-defined predicate:
      High;
    - equi-join on key attributes: max of the inputs; on non-key
      attributes: one level worse; non-equi join: High;
    - aggregate output: the level of the grouping columns' distinct-count
      estimate in its input. *)

type level = Low | Medium | High

val bump : level -> level
val compare_level : level -> level -> int
val level_to_string : level -> string

(** Level of the catalog histogram for a qualified column. *)
val base_histogram_level :
  Mqr_opt.Stats_env.t -> column:string -> level

(** Level of a pushed-down selection's output-cardinality estimate
    ([None] = no filter = exact). *)
val filter_level :
  Mqr_opt.Stats_env.t -> Mqr_expr.Expr.t option -> level

(** Level of the optimizer's *cardinality* estimate for a plan node's
    output. *)
val cardinality_level : Mqr_opt.Stats_env.t -> Mqr_opt.Plan.t -> level

(** Level of the optimizer's knowledge of [column]'s distribution at the
    output of [plan] (for deciding whether to histogram it there). *)
val histogram_level :
  Mqr_opt.Stats_env.t -> Mqr_opt.Plan.t -> column:string -> level

(** Level for the distinct-value count of [column] at the output of
    [plan]. *)
val distinct_level :
  Mqr_opt.Stats_env.t -> Mqr_opt.Plan.t -> column:string -> level
