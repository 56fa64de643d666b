(** Partitioned (shared-nothing) parallel execution, Paradise-style.

    The paper's testbed was a 4-node parallel DBMS.  This module provides
    that substrate: work is hash- or round-robin-partitioned across
    [degree] workers, each worker runs the ordinary serial operator
    against its own clock and its own slice of the buffer pool, and the
    parent clock absorbs the ledger of the slowest worker (workers
    proceed in parallel; its pages stay pages in the parent's counters)
    plus the network cost of any repartitioning
    exchange ({!Mqr_storage.Sim_clock.exchange_ms_per_page}) and a small
    per-worker startup fee ({!Mqr_storage.Sim_clock.parallel_startup_ms});
    the cost model prices both at the same rates.

    [degree] is the {e plan} degree of parallelism: how many partitions
    the data is split into, and therefore what the simulated clock is
    charged.  It is part of the plan and fully deterministic.  The
    workers run inline, one after another in worker-index order, each on
    its own [Exec_ctx] ({!Exec_ctx.worker}: a fresh clock and a
    fresh-behaving pool slice borrowed for the step); the parallel
    machine exists only on the simulated clock.  Every function raises [Invalid_argument] when [degree < 1].

    Skew matters exactly as on a real cluster: a heavy hash partition
    dominates the max.  Per-worker simulated and wall-clock elapsed are
    reported through [on_worker] so callers can trace each lane and
    detect that skew. *)

open Mqr_storage

(** Hash-partition rows on a column; charges the exchange (all pages cross
    the interconnect under hash repartitioning). *)
val partition_by :
  Exec_ctx.t -> degree:int -> Schema.t -> column:string -> Tuple.t array ->
  Tuple.t array array

(** Round-robin partitioning (no key): the rows still cross the
    interconnect, so the exchange is charged exactly like
    {!partition_by}. *)
val partition_round_robin :
  Exec_ctx.t -> degree:int -> Tuple.t array -> Tuple.t array array

(** Parallel operators built from the serial ones.  All return exactly the
    serial result multiset, merged in worker-index order.  At degree 1
    each one {e is} its serial operator ({!Leaf.scan}, {!Join.hash_join},
    {!Aggregate.hash_aggregate}, {!Sort.sort}) on [ctx] itself: no
    worker runs, no exchange or startup fee is charged, and [slice_pages]
    and [on_worker] are unused.  The executor calls them at every degree,
    so this is the only serial path of the four operators. *)

(** Striped full scan: worker [w] charges the read of the [w]th of
    [degree] equal rid ranges ({!Leaf.charge_stripe}); the stripes, in
    order, are the file's own rows, so the leaf is {!Leaf.of_heap}: no
    stripe is copied. *)
val scan :
  Exec_ctx.t -> degree:int -> ?slice_pages:int ->
  ?on_worker:(int -> sim_ms:float -> wall_ms:float -> unit) ->
  Heap_file.t -> Leaf.t

(** Co-partitioned hash join: both inputs are hash-exchanged on the first
    join key, each worker joins its partition pair with
    [mem_pages / degree] pages.  A keyless join (a cross product, which no
    key can partition) runs serially at any degree.  At degree 1 the
    probe leaf goes to {!Join.hash_join} as it is, codes and payloads and
    all; the exchange gathers its rows and hands each worker its
    partition without them.  [out] is the join node's schema, as in
    {!Join}; the result is its rows. *)
val hash_join :
  Exec_ctx.t -> degree:int -> ?slice_pages:int ->
  ?on_worker:(int -> sim_ms:float -> wall_ms:float -> unit) ->
  mem_pages:int ->
  build:Tuple.t array * Schema.t -> probe:Leaf.t * Schema.t ->
  keys:(string * string) list -> ?extra:Mqr_expr.Expr.t -> out:Schema.t ->
  unit -> Tuple.t array

(** Partitioned aggregation: input exchanged on the first grouping column,
    so every group is computed wholly on one worker.  At degree 1, and for
    an ungrouped aggregate at any degree, the input leaf goes to
    {!Aggregate.hash_aggregate} as it is, codes and all; the exchange
    hands each worker its partition's rows without codes.  Every worker
    feeds its partition ({!Aggregate.stage}) before any worker
    finalizes its groups, and a failure re-raises the exception tied to
    the earliest input row, so every degree raises what the serial
    operator raises.  The result is the rows, over
    {!Aggregate.output_schema}. *)
val aggregate :
  Exec_ctx.t -> degree:int -> ?slice_pages:int ->
  ?on_worker:(int -> sim_ms:float -> wall_ms:float -> unit) ->
  mem_pages:int -> Schema.t -> group_by:string list ->
  aggs:Aggregate.spec list -> Leaf.t -> Tuple.t array

(** Partitioned sort: round-robin exchange, per-worker external sort, then
    a deterministic k-way merge on the parent (ties broken by worker
    index, so the output is a pure function of the input and [degree]). *)
val sort :
  Exec_ctx.t -> degree:int -> ?slice_pages:int ->
  ?on_worker:(int -> sim_ms:float -> wall_ms:float -> unit) ->
  mem_pages:int -> Schema.t -> keys:(string * bool) list ->
  Tuple.t array -> Tuple.t array
