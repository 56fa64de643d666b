(** Rows as operators hand them to each other: an array of rows, the
    positions in it that the leaf holds, and the array's dictionary
    codes, unboxed Int payloads and unboxed Float payloads when a scan
    read them (each column has codes, Int payloads, Float payloads or
    none).

    A scan's leaf is the file's own rows ({!Mqr_storage.Heap_file.rows})
    with what each column keeps beside them
    ({!Mqr_storage.Heap_file.view}: its codes while its dictionary is
    kept, else its payloads if it keeps them); a full or
    striped scan holds every position in rid order, an index scan the
    probed rids in probe order, and a filter the positions that pass.
    Nothing copies a row, a code or a payload on the way: an operator
    that needs a plain array ({!rows}: a sort, a projection, a runtime
    filter, a temp, a join's input, except a hash join's probe side
    unless the join partitions or spills) gathers it once, on first use,
    and the filter, the collector, the hash GROUP BY and the hash join's
    probe read through the positions ({!iter}, {!position}).

    Equal codes mean cells of the same constructor and bits, so an
    operator that receives a coded leaf may work once per code where its
    result for a cell depends on nothing else — the scan filter's
    single-column conjuncts, a collector's min/max and distinct counters,
    a GROUP BY's hash lookup — and keep the result in a per-code memo.
    The memo is always filled by the operator's own row path, at the
    first row of each code.  Equal payloads of a column likewise mean
    equal cells, so the collector and the hash join's probe, which meet
    a column's keys in runs, work once per run of equal payloads.  A
    GROUP BY over coded group columns counts its rows, and sums a column
    of Float codes or Float payloads, without reading a row.

    A leaf's codes and payloads always describe its own array: only the
    scans attach them, {!filter} keeps them with the same array, and
    every other operator's output is {!of_rows}, which has none. *)

open Mqr_storage

type t

(** The leaf's rows, in order: the array itself when the leaf holds all
    of it, else gathered through the positions on the first call. *)
val rows : t -> Tuple.t array

(** [length leaf] is [Array.length (rows leaf)], without gathering. *)
val length : t -> int

(** The array the leaf's positions index, and its codes and payloads
    index. *)
val base : t -> Tuple.t array

(** [iter leaf f] calls [f r] for each row of the leaf, in order, with
    [r] its position in [base leaf] (and in each column's codes). *)
val iter : t -> (int -> unit) -> unit

(** [position leaf k] is the position in [base leaf] of the leaf's
    [k]th row (0-based, [k < length leaf]): the [k]th that {!iter}
    visits. *)
val position : t -> int -> int

(** [view leaf i] is what column [i] keeps beside the rows, by position
    in [base leaf]: its codes, its Int payloads, its Float payloads,
    or [Plain] for none. *)
val view : t -> int -> Heap_file.view

(** [column leaf i] is column [i]'s codes, the [Codes] case of
    [view leaf i], or [None] when the column has none. *)
val column : t -> int -> Heap_file.codes option

(** [of_rows rows] is every row of [rows], without codes or payloads. *)
val of_rows : Tuple.t array -> t

(** [of_heap heap] is every row of [heap] in rid order, the file's own
    array, with each column's codes and payloads, read now; nothing is
    charged. *)
val of_heap : Heap_file.t -> t

(** [charge_stripe ctx heap ~stripe ~degree] charges [ctx] a sequential
    read of the [stripe]th of [degree] equal rid ranges of [heap]
    ({!Mqr_storage.Heap_file.charge_scan}: per page that misses the pool,
    and CPU per tuple).  A striped parallel scan charges one stripe per
    worker, then hands on {!of_heap}. *)
val charge_stripe : Exec_ctx.t -> Heap_file.t -> stripe:int -> degree:int -> unit

(** [scan ctx heap] is a full scan: the charge of its one stripe, then
    {!of_heap}. *)
val scan : Exec_ctx.t -> Heap_file.t -> t

(** [index_scan ctx heap btree ?lo ?hi ()] is an index range scan: it
    probes [btree] for the rids in the interval (its bounds taken as
    inclusive whatever their flag, so the scan's filter must drop the
    boundary rows of a strict bound), then fetches each row through the
    buffer pool in the order the probe returns them (a random read per
    miss: the index is unclustered).  Its rows are the file's, at the
    probed rids, in probe order, with the file's codes and payloads. *)
val index_scan :
  Exec_ctx.t -> Heap_file.t -> Btree.t ->
  ?lo:Value.t * bool -> ?hi:Value.t * bool -> unit -> t

(** [filter ctx schema pred leaf] is [Rows_ops.filter ctx schema pred
    (rows leaf)] (rows, charges, UDF calls and exceptions), as positions
    in the same array with the same codes and payloads: [leaf] itself
    when every row passed.  Each conjunct that reads exactly one coded column and calls
    no UDF is evaluated at the first row of each code that reaches it,
    and its verdict is kept for the code's later rows.  When [pred]
    calls no UDF, the conjuncts run one at a time, each over the rows
    the ones before it kept, so they keep their left-to-right
    short-circuit order; if one raises, the filter runs again row by
    row, so the exception is the one the row path raises.  With a UDF,
    each row runs the conjuncts left to right. *)
val filter : Exec_ctx.t -> Schema.t -> Mqr_expr.Expr.t -> t -> t
