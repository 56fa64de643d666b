(** Join algorithms.

    All joins are inner joins over in-memory row sets; what the memory
    grant changes is the *cost* charged: a hash join whose build side does
    not fit in its allocation runs as a Grace (partitioned) join, paying a
    write+read of both inputs per extra pass — the 2-pass behaviour that
    the paper's memory-reallocation example (Figure 3) avoids. *)

open Mqr_storage

(** Number of passes a hash join needs: 1 if [fudge * build_pages] fits in
    [mem_pages], otherwise 1 + levels of recursive partitioning. *)
val hash_join_passes : mem_pages:int -> build_pages:int -> int

val hash_join_fudge : float

type result = {
  rows : Tuple.t array;  (** over [out], the join node's schema *)
  passes : int;  (** 1 = in-memory; >1 = partitioned *)
}

(** Every join takes [~out], its output schema, which the plan node
    records: an order-preserving subsequence of its inputs' columns
    (outer, probe or left side first; [Schema.concat] of the two keeps
    them all).  Each output row holds just those columns, and a residual
    predicate is evaluated over it, so [out] must keep every column the
    residual reads.  No join works its schema out or returns it.
    @raise Invalid_argument when [out] is not such a subsequence. *)

(** [hash_join ctx ~mem_pages ~build ~probe ~keys ~extra] joins on the
    column pairs [keys] (probe column, build column); [extra] is a residual
    predicate over the output.  The
    output holds each probe row, in leaf order, joined with each build row
    of an equal key, the last-built first.  The probe side is read through
    its leaf's positions, gathered only for a partitioned (multi-pass)
    join's size.  A one-key probe over a column with payloads looks each
    run of equal payloads up once; any other probe hashes each row. *)
val hash_join :
  Exec_ctx.t -> mem_pages:int ->
  build:Tuple.t array * Schema.t -> probe:Leaf.t * Schema.t ->
  keys:(string * string) list -> ?extra:Mqr_expr.Expr.t -> out:Schema.t ->
  unit -> result

(** Indexed nested-loops join: for each outer row, probe the inner table's
    B+-tree on [inner_col = outer value of outer_col] and fetch matches.
    Output columns: [out], drawn from the outer's, then the inner's. *)
val index_nl_join :
  Exec_ctx.t ->
  outer:Tuple.t array * Schema.t ->
  inner_heap:Heap_file.t -> inner_schema:Schema.t -> inner_index:Btree.t ->
  outer_col:string -> ?extra:Mqr_expr.Expr.t -> out:Schema.t -> unit ->
  result

(** Block nested-loops fallback for joins with no equality conjunct. *)
val block_nl_join :
  Exec_ctx.t -> mem_pages:int ->
  outer:Tuple.t array * Schema.t -> inner:Tuple.t array * Schema.t ->
  ?pred:Mqr_expr.Expr.t -> out:Schema.t -> unit -> result
