(** Rows as operators hand them to each other, with their columns'
    dictionary codes when a full scan read them.

    A full scan reads the file's rows in rid order, and with them the
    codes of each column whose dictionary is kept
    ({!Mqr_storage.Heap_file.codes}).  Equal codes mean cells of the same
    constructor and bits, so an operator that receives a coded leaf may
    work once per code where its result for a cell depends on nothing
    else — the scan filter's single-column conjuncts, a collector's
    min/max and distinct counters, a GROUP BY's hash lookup — and keep
    the result in a per-code memo.  The memo is always filled by the
    operator's own row path, at the first row of each code.

    A leaf's codes always describe its own rows: only {!scan} and
    {!of_heap} attach them, {!filter} keeps them in step with the
    survivors, and every other operator's output is {!of_rows}, which
    has none. *)

open Mqr_storage

type t

val rows : t -> Tuple.t array

(** [of_rows rows] is [rows] without codes. *)
val of_rows : Tuple.t array -> t

(** [of_heap heap rows] is [rows] with each column's codes, read now.
    [rows] must be every row of [heap] in rid order, as a full scan
    returns them, serial or striped; raises [Invalid_argument] when their
    number is not the file's. *)
val of_heap : Heap_file.t -> Tuple.t array -> t

(** [scan ctx heap] is a full scan: every row of [heap] in rid order
    ({!Mqr_storage.Heap_file.read}, a sequential read charged per page
    that misses the pool and CPU per tuple), with its codes. *)
val scan : Exec_ctx.t -> Heap_file.t -> t

(** [index_scan ctx heap btree ?lo ?hi ()] is an index range scan: it
    probes [btree] for the rids in the interval (its bounds taken as
    inclusive whatever their flag, so the scan's filter must drop the
    boundary rows of a strict bound), then fetches each row through the
    buffer pool in the order the probe returns them (a random read per
    miss: the index is unclustered).  Its rows have no codes. *)
val index_scan :
  Exec_ctx.t -> Heap_file.t -> Btree.t ->
  ?lo:Value.t * bool -> ?hi:Value.t * bool -> unit -> t

(** [filter ctx schema pred leaf] is [Rows_ops.filter ctx schema pred
    (rows leaf)] (rows, charges, UDF calls and exceptions), with the
    survivors' codes: [leaf] itself when every row passed.  Each
    conjunct that reads exactly one coded column and calls no UDF is
    evaluated at the first row of each code that reaches it, and its
    verdict is kept for the code's later rows; conjuncts keep their
    left-to-right short-circuit order. *)
val filter : Exec_ctx.t -> Schema.t -> Mqr_expr.Expr.t -> t -> t

(** [column leaf i] is column [i]'s codes in the order of [rows leaf]
    (gathered once, on the first call, after a filter dropped rows), or
    [None] when the column has none. *)
val column : t -> int -> Heap_file.codes option
