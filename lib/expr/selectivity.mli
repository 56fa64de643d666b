(** Selectivity estimation for predicates.

    Estimates are computed against whatever statistics are available
    through [stats_of] (the optimizer passes catalog statistics for base
    tables and *observed* statistics once collectors have reported).
    When no statistics help, the classic System-R magic numbers apply. *)

(** Defaults used when statistics are missing: equality 1/10, range 1/3,
    user-defined predicate 1/10, anything else 1/4. *)
val default_eq : float
val default_range : float
val default_udf : float

type env = {
  stats_of : string -> Mqr_catalog.Column_stats.t option;
  (** statistics for a (qualified or bare) column name, if known *)
}

(** [selectivity env pred] estimates the fraction of input rows (or of the
    cross product, for join predicates) satisfying [pred].  Conjunctions
    multiply (attribute-value independence); disjunctions use
    inclusion–exclusion.  [equijoin], when given, replaces
    [equijoin_selectivity env] for column-equality conjuncts (the
    optimizer passes a memoized one); it must return the same estimate. *)
val selectivity :
  ?equijoin:(left:string -> right:string -> float) -> env -> Expr.t -> float

(** Estimated number of distinct values of a column, if statistics allow. *)
val distinct_of_column : env -> string -> float option

(** Join selectivity between two named columns given both sides' stats. *)
val equijoin_selectivity :
  env -> left:string -> right:string -> float
