(** Estimation environment for one optimization run.

    Wraps the relations of a query block with their believed sizes, column
    statistics and indexes.  Observed statistics (from run-time collectors)
    can be layered on top as overrides keyed by qualified column name —
    this is how the re-optimizer feeds improved estimates to the
    optimizer without touching the catalog. *)

open Mqr_storage

type rel_info = {
  alias : string;
  table : string;
  rows : float;      (** catalog's believed cardinality *)
  pages : float;
  rel_schema : Schema.t;
  col_stats : (string * Mqr_catalog.Column_stats.t) list;
      (** by qualified column name as it appears in the query *)
  indexed_cols : string list;  (** qualified columns with a B+-tree *)
}

type t

(** Build from the bound query's relations.  Temp tables (whose heap
    schemas already carry original qualifiers) are handled identically. *)
val create :
  Mqr_catalog.Catalog.t -> Mqr_sql.Query.relation list -> t

val relations : t -> rel_info list
val rel : t -> alias:string -> rel_info

(** Add/replace observed statistics for a qualified column. *)
val override : t -> column:string -> Mqr_catalog.Column_stats.t -> unit

(** Override the believed cardinality of a relation (improved estimate). *)
val override_rows : t -> alias:string -> rows:float -> unit

(** Estimation hook for {!Mqr_expr.Selectivity}. *)
val selectivity_env : t -> Mqr_expr.Selectivity.env

val stats_of : t -> string -> Mqr_catalog.Column_stats.t option

(** Does the relation own this qualified column? *)
val owns : rel_info -> string -> bool

(** Install a measured selectivity for a relation's combined local
    predicate (start-time sampling probes); the optimizer prefers it over
    histogram-based estimation of the scan's output. *)
val override_local_selectivity : t -> alias:string -> selectivity:float -> unit

val local_selectivity : t -> alias:string -> float option
