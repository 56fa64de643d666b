(** Hash aggregation with grouping.

    The executor keeps its own aggregate-function type so it does not
    depend on the SQL front end; the dispatcher maps the bound query's
    aggregates onto these specs. *)

open Mqr_storage

type agg_fn = Count | Sum | Avg | Min | Max

type spec = {
  fn : agg_fn;
  distinct_arg : bool;
      (** aggregate over the distinct argument values (COUNT/SUM/AVG
          DISTINCT); ignored for MIN/MAX where it changes nothing *)
  arg : Mqr_expr.Expr.t option;  (** [None] only for count-star *)
  out_name : string;
}

type result = {
  rows : Tuple.t array;
  schema : Schema.t;  (** group columns followed by aggregate outputs *)
  passes : int;       (** >1 when the group table exceeded its memory *)
}

(** Output schema without executing (for plan annotation). *)
val output_schema : Schema.t -> group_by:string list -> aggs:spec list -> Schema.t

(** Groups come out in first-seen order: the order in which each group's
    first row arrived.  When the input leaf's codes cover every group
    column, and there are no more code tuples than input rows (nor than
    2^16), a dense code-tuple → group memo sits in front of the hash
    lookup, which fills it at each tuple's first row: groups and their
    order are those of [Leaf.of_rows (Leaf.rows leaf)].

    Such a GROUP BY then runs column at a time.  One pass writes each
    row's group id (2 bytes a row: the memo caps groups at 2^16) and
    feeds the aggregates that are not kernels row by row, in spec order,
    so UDF calls and the first exception raised are the row path's.
    Then each kernel runs one loop over the ids and its column's codes
    or payloads, reading no row.  The kernels, without DISTINCT:
    count-star, and SUM and AVG of a plain column whose every value is a
    [Float], either coded with a [Float] box for every code (through a
    per-code table; [Null]'s code is skipped) or kept as [Float]
    payloads.  COUNT of a column, MIN, MAX, DISTINCT, expression
    arguments, [Int] and [Date] columns and mixed dictionaries take the
    row path.

    Exactness: each group's sum is added in row order, from its first
    value, which is assigned (so [-0.0] and nan payloads keep their
    bits).  Every accumulator ends as the row path leaves it, so rows,
    their order and every charge are those of
    [Leaf.of_rows (Leaf.rows leaf)]. *)
val hash_aggregate :
  Exec_ctx.t -> mem_pages:int -> Schema.t ->
  group_by:string list -> aggs:spec list -> Leaf.t -> result

(** Raised by {!stage} and its second stage: the exception the serial
    operator raises, and the leaf index (0-based, in {!Leaf.iter} order)
    of the input row it is tied to: the row being fed, or the first row
    of the group being finalized. *)
exception At of int * exn

(** [stage] is {!hash_aggregate} in two steps: it feeds every input row,
    and returns the step that finalizes the groups and charges for them.
    [hash_aggregate ... leaf] is [stage ... leaf ()] with [At]'s
    exception re-raised.  {!Parallel.aggregate} feeds every worker
    before any worker finalizes, as the serial operator feeds every row
    before it finalizes a group. *)
val stage :
  Exec_ctx.t -> mem_pages:int -> Schema.t ->
  group_by:string list -> aggs:spec list -> Leaf.t -> unit -> result
