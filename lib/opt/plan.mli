(** Annotated physical query execution plans.

    Every node carries the optimizer's estimates (rows, bytes, per-operator
    and cumulative cost) — the paper's *annotated query execution plan* —
    plus its memory demands and the memory actually granted by the Memory
    Manager. *)

open Mqr_storage

type bound = (Value.t * bool) option  (** (value, inclusive?) *)

type est = {
  rows : float;
  width : float;    (** average output tuple bytes *)
  op_ms : float;    (** this operator's own estimated time at granted memory *)
  total_ms : float; (** cumulative, children included *)
}

(** A candidate runtime-filter site attached to a join by the optimizer:
    the build/left side's key values, published at run time as a bloom
    filter plus min-max bounds (see {!Mqr_exec.Runtime_filter}), prune the
    probe/right-side scans that own [rf_probe_col]. *)
type rf = {
  rf_build_col : string;
  rf_probe_col : string;
  rf_sel : float;  (** estimated fraction of probe rows passing *)
  rf_sites : string list;
      (** aliases of probe-side scans owning the column *)
}

type node =
  | Seq_scan of { table : string; alias : string; filter : Mqr_expr.Expr.t option }
  | Index_scan of {
      table : string;
      alias : string;
      index_col : string;  (** qualified *)
      lo : bound;
      hi : bound;
      filter : Mqr_expr.Expr.t option;  (** residual, includes the bounds *)
    }
  | Hash_join of {
      build : t;
      probe : t;
      keys : (string * string) list;  (** (probe column, build column) *)
      extra : Mqr_expr.Expr.t option;
      rf : rf list;  (** runtime-filter annotations, empty when disabled *)
    }
  | Index_nl_join of {
      outer : t;
      table : string;   (** inner base table *)
      alias : string;
      outer_col : string;
      inner_col : string;  (** qualified inner join column (indexed) *)
      inner_filter : Mqr_expr.Expr.t option;
      extra : Mqr_expr.Expr.t option;
    }
  | Block_nl_join of { outer : t; inner : t; pred : Mqr_expr.Expr.t option }
  | Merge_join of {
      left : t;
      right : t;
      keys : (string * string) list;  (** (left column, right column) *)
      extra : Mqr_expr.Expr.t option;
      left_sorted : bool;   (** input already ordered on its key: no sort *)
      right_sorted : bool;
      rf : rf list;  (** left-side filters pruning the right side *)
    }
  | Aggregate of {
      input : t;
      group_by : string list;
      aggs : Mqr_exec.Aggregate.spec list;
      pre_sorted : bool;
          (** input ordered on the grouping column: streaming aggregation *)
    }
  | Filter of { input : t; pred : Mqr_expr.Expr.t }
      (** standalone filter, e.g. a HAVING predicate over aggregate output *)
  | Sort of { input : t; keys : (string * bool) list }
  | Project of { input : t; cols : string list }
  | Limit of { input : t; n : int }
  | Collect of { input : t; spec : Mqr_exec.Collector.spec; cid : int }
      (** statistics-collector; [cid] identifies the collection point *)
  | Materialized of { name : string; covers : string list; on_disk : bool }
      (** placeholder for an already-computed intermediate result: [covers]
          lists the base-relation aliases folded into it.  In-memory
          intermediates cost nothing to re-consume (they stay pipelined);
          on-disk ones pay a scan.  Only the dispatcher creates these. *)

and t = {
  id : int;
  node : node;
  schema : Schema.t;
  est : est;
  min_mem : int;  (** pages *)
  max_mem : int;  (** pages *)
  mutable mem : int;  (** granted pages; meaningful for memory consumers *)
  dop : int;
      (** degree of parallelism: partitions the operator splits its work
          into (1 = serial).  A plan property — deterministic, re-chosen on
          re-optimization. *)
}

(** Children in execution order (left/build/outer first). *)
val children : t -> t list

(** Rebuild a node with new children (same order and count as [children]).
    @raise Invalid_argument on a count mismatch. *)
val with_children : t -> t list -> t

(** Does this operator consume working memory (join/sort/aggregate)? *)
val is_memory_consumer : t -> bool

(** Pre-order fold. *)
val fold : ('a -> t -> 'a) -> 'a -> t -> 'a

(** All nodes, pre-order. *)
val nodes : t -> t list

val find : t -> int -> t option

(** Base-relation aliases mentioned under this node. *)
val aliases : t -> string list

(** Columns by which the node's output arrives in ascending order
    (interesting orders). *)
val orders_of : t -> string list

(** Total number of join operators in the plan. *)
val join_count : t -> int

(** One-line operator name for display. *)
val op_name : t -> string

(** Pretty tree with annotations. *)
val pp : Format.formatter -> t -> unit

val to_string : t -> string
