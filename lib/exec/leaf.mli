(** A dop-1 scan leaf's rows with their columns' dictionary codes.

    A full scan reads the file's own storage, and with it the codes of
    each column whose dictionary is kept ({!Mqr_storage.Heap_file.codes}).
    Equal codes mean cells of the same constructor and bits, so an
    operator next to the leaf may work once per code where its result for
    a cell depends on nothing else — the scan filter's single-column
    conjuncts, a collector's min/max and distinct counters, a GROUP BY's
    hash lookup — and keep the result in a per-code memo.  The memo is
    always filled by the operator's own row path, at the first row of
    each code.

    The codes describe exactly the array [rows], physically: a consumer
    handed any other array (a copy, a join's output, a temp table) sees
    none ({!describing}). *)

open Mqr_storage

type t

val rows : t -> Tuple.t array

(** [scan ctx heap] is [Scan.seq_scan ctx heap] with each column's codes,
    read at the same moment. *)
val scan : Exec_ctx.t -> Heap_file.t -> t

(** [filter ctx schema pred leaf] is [Rows_ops.filter ctx schema pred
    (rows leaf)] (rows, charges, UDF calls and exceptions), with the
    survivors' rids (a flag per row of [leaf]; none when every row
    passed).  Each conjunct that reads exactly one coded column
    and calls no UDF is evaluated at the first row of each code that
    reaches it, and its verdict is kept for the code's later rows;
    conjuncts keep their left-to-right short-circuit order. *)
val filter : Exec_ctx.t -> Schema.t -> Mqr_expr.Expr.t -> t -> t

(** [describing leaf rows] is [leaf] when its codes describe [rows]
    (the same non-empty array, physically: every empty array is the same
    value), else [None]. *)
val describing : t option -> Tuple.t array -> t option

(** [column leaf i] is column [i]'s codes in the order of [rows leaf]
    (gathered once, on the first call, after a filter dropped rows), or
    [None] when the column has none. *)
val column : t -> int -> Heap_file.codes option
