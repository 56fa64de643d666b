(** Operator prices: one function per plan-node shape, and the only place
    outside the executor that prices work at the {!Mqr_storage.Sim_clock}
    rate card's I/O, tuple, parallel and runtime-filter rates.  Each
    function takes the node's quantities — input, output and fetched
    rows, pages, the memory grant, the degree of parallelism, the rows a
    residual or inner filter evaluates, the runtime filters it runs — and
    returns the node's own cost in simulated ms, with every term the
    executor charges for that node: the filter CPU, the runtime-filter
    overhead and, at [dop > 1], one worker's even share plus the exchange
    and the startup fee (and a sort's serial merge).

    Three readers call the same functions, so they price an operator
    alike and disagree only through the quantities they pass:
    - {!Optimizer} ([price_*], [mk_*], [recost], the degree choice) with
      point estimates — Eq. 2's [T_cur,improved] is this price at the
      observed statistics;
    - {!Mqr_analysis.Bounds.cost_interval} at the two corners of each
      node's provable intervals;
    - {!Mqr_analysis.Bounds.dominated_scan} and the re-optimizer's
      materialization charge.

    Contract, on which the soundness of [cost_interval] rests: for
    non-negative quantities every price is finite, non-negative, monotone
    (non-decreasing) in each row and page quantity and antitone
    (non-increasing) in the memory grant; an infinite quantity yields
    [infinity].  test_opt checks this with a qcheck property. *)

(** Pages occupied by [rows] tuples of [width] bytes. *)
val pages : rows:float -> width:float -> float

(** [rows] when the node runs a residual (or inner) filter, else 0. *)
val filter_rows : 'a option -> rows:float -> float

(** Full heap scan, striped over [dop] workers (each reads its own rid
    range, no exchange); the filter runs on the parent over
    [filter_rows]. *)
val seq_scan_ms :
  dop:int -> pages:float -> rows:float -> filter_rows:float -> float

(** Unclustered index scan fetching [match_rows] of a table with
    [table_pages] pages: B+-tree descent, leaf walk, then a random read
    per fetched row capped by the table size, and the residual filter
    over [filter_rows]. *)
val index_scan_ms :
  match_rows:float -> table_pages:float -> filter_rows:float -> float

(** Hash join, both inputs hash-exchanged at [dop > 1] so each worker
    joins a co-partition pair, plus [rf] serial runtime filters built from
    [build_rows] and probed by [rf_probe_rows] (the probe rows before
    filtering; [probe_rows] are those the join sees). *)
val hash_join_ms :
  dop:int -> build_rows:float -> build_pages:float ->
  probe_rows:float -> probe_pages:float -> out_rows:float -> mem_pages:int ->
  rf:int -> rf_probe_rows:float -> float

(** Index nested-loop join: a leaf probe per outer row (upper levels
    cached), a fetch per [fetched] inner row, the inner filter over
    [filter_rows]. *)
val index_nl_join_ms :
  outer_rows:float -> fetched:float -> filter_rows:float -> float

val block_nl_join_ms :
  outer_rows:float -> outer_pages:float ->
  inner_rows:float -> inner_pages:float -> out_rows:float -> mem_pages:int ->
  float

(** Sort-merge join: sort both sides (half the grant each, skipped for a
    pre-sorted side), merge, and [rf] runtime filters built from the left
    side and probed by [rf_probe_rows]. *)
val merge_join_ms :
  left_rows:float -> left_pages:float ->
  right_rows:float -> right_pages:float -> out_rows:float -> mem_pages:int ->
  left_sorted:bool -> right_sorted:bool -> rf:int -> rf_probe_rows:float ->
  float

(** One side's sort in a merge join granted [mem_pages]: half the grant
    (at least 2 pages), as {!merge_join_ms} prices it. *)
val merge_sort_ms : rows:float -> data_pages:float -> mem_pages:int -> float

(** The merge pass over both inputs and the output, the one term of
    {!merge_join_ms} that is there whatever the grant and the inputs'
    order.  Every other term is non-negative, so a merge join's price is
    never below it. *)
val merge_pass_ms : left_rows:float -> right_rows:float -> out_rows:float -> float

(** {!merge_join_ms} from the sides' sort prices ([0.0] for a pre-sorted
    side, otherwise {!merge_sort_ms}), for a caller that keeps them. *)
val merge_join_of_sorts_ms :
  left_sort_ms:float -> right_sort_ms:float ->
  left_rows:float -> left_pages:float ->
  right_rows:float -> right_pages:float -> out_rows:float ->
  rf:int -> rf_probe_rows:float -> float

(** Hash aggregation, partitioned on the first grouping column at
    [dop > 1] (every group lands wholly on one worker). *)
val aggregate_ms :
  dop:int -> in_rows:float -> in_pages:float ->
  groups:float -> group_pages:float -> mem_pages:int -> float

(** External sort; at [dop > 1] a round-robin exchange, per-worker sorts
    and a serial merge of all [rows] on the parent. *)
val sort_ms :
  dop:int -> rows:float -> data_pages:float -> mem_pages:int -> float

(** One CPU unit per row: Filter (per input row), Project and Limit. *)
val cpu_ms : rows:float -> float

(** Writing [pages] of an in-memory intermediate to disk. *)
val materialize_ms : pages:float -> float

(** Interconnect cost of repartitioning [pages] across workers. *)
val exchange_ms : pages:float -> float

(** Forking [dop] worker closures and merging their results back. *)
val startup_ms : dop:int -> float

(** [n] runtime filters, each built from [build_rows] and probed by
    [probe_rows]: the overhead a hash or merge join with filters adds. *)
val runtime_filters_ms : n:int -> build_rows:float -> probe_rows:float -> float

(** Memory demands in pages: [(minimum, maximum)]. *)
val hash_join_mem : build_pages:float -> int * int
val sort_mem : data_pages:float -> int * int
val aggregate_mem : group_pages:float -> int * int
val block_nl_join_mem : outer_pages:float -> int * int

(** [snd (block_nl_join_mem ~outer_pages)] without the pair, which the
    join enumeration would allocate for every block nested-loops
    candidate it prices. *)
val block_nl_join_max_mem : outer_pages:float -> int
val merge_join_mem : left_pages:float -> right_pages:float -> int * int
