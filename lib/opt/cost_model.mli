(** Operator cost formulas, shared between the optimizer (estimation) and
    the re-optimizer (re-costing a running plan with improved estimates).
    Rates come from the same {!Mqr_storage.Sim_clock.model} the executor
    charges against: estimation error is cardinality error, not rate
    error. *)

open Mqr_storage

(** Pages occupied by [rows] tuples of [width] bytes. *)
val pages : rows:float -> width:float -> float

val seq_scan_ms : Sim_clock.model -> pages:float -> rows:float -> float

(** Unclustered index scan fetching [match_rows] of a table with
    [table_pages] pages: B+-tree descent, leaf walk, then a random read
    per fetched row capped by the table size. *)
val index_scan_ms :
  Sim_clock.model -> match_rows:float -> table_pages:float -> float

val hash_join_ms :
  Sim_clock.model -> build_rows:float -> build_pages:float ->
  probe_rows:float -> probe_pages:float -> out_rows:float -> mem_pages:int ->
  float

val index_nl_join_ms :
  Sim_clock.model -> outer_rows:float -> out_rows:float -> float

val block_nl_join_ms :
  Sim_clock.model -> outer_rows:float -> outer_pages:float ->
  inner_rows:float -> inner_pages:float -> out_rows:float -> mem_pages:int ->
  float

val aggregate_ms :
  Sim_clock.model -> in_rows:float -> in_pages:float -> groups:float ->
  group_pages:float -> mem_pages:int -> float

val sort_ms :
  Sim_clock.model -> rows:float -> data_pages:float -> mem_pages:int -> float

(** Sort-merge join: sort both sides (half the grant each, skipped for a
    pre-sorted side) + merge. *)
val merge_join_ms :
  Sim_clock.model -> left_rows:float -> left_pages:float ->
  right_rows:float -> right_pages:float -> out_rows:float -> mem_pages:int ->
  left_sorted:bool -> right_sorted:bool -> float

(** Streaming aggregation over pre-grouped input: one CPU pass. *)
val aggregate_sorted_ms :
  Sim_clock.model -> in_rows:float -> groups:float -> float

val project_ms : Sim_clock.model -> rows:float -> float
val limit_ms : Sim_clock.model -> rows:float -> float

(** Overhead of one runtime filter: build from [build_rows], probe every
    one of [probe_rows] (rates from {!Mqr_exec.Runtime_filter}).  The
    benefit side is modelled by costing the join over the filtered probe
    cardinality instead. *)
val runtime_filter_ms : build_rows:float -> probe_rows:float -> float

(** Parallel (partitioned) execution, priced with the same three terms the
    executor charges (slowest worker + exchange + startup) so estimated
    and actual parallel costs diverge only through cardinality error. *)

(** Interconnect cost of repartitioning [pages] across workers. *)
val exchange_ms : pages:float -> float

(** Forking [dop] worker closures and merging their results back. *)
val startup_ms : dop:int -> float

(** [parallel_ms ~dop ~exchange_pages ~per_worker] prices an operator
    split [dop] ways, where [per_worker] is the cost of one (even)
    partition's share. *)
val parallel_ms : dop:int -> exchange_pages:float -> per_worker:float -> float

(** Memory demands in pages: [(minimum, maximum)]. *)
val hash_join_mem : build_pages:float -> int * int
val sort_mem : data_pages:float -> int * int
val aggregate_mem : group_pages:float -> int * int
val block_nl_join_mem : outer_pages:float -> int * int
val merge_join_mem : left_pages:float -> right_pages:float -> int * int
