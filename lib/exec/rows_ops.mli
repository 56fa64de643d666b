(** Streamed row operators: filter, project, limit.

    These run inside a pipeline, so they charge only CPU. *)

open Mqr_storage

(** [filter ctx schema pred rows] keeps the rows satisfying [pred], in
    order: [rows] itself when every row passes, else a fresh array of
    exactly the survivors.  Like every operator it never writes [rows]. *)
val filter : Exec_ctx.t -> Schema.t -> Mqr_expr.Expr.t -> Tuple.t array -> Tuple.t array

(** [project ctx schema cols rows] keeps the named columns, in order.
    Returns the projected rows and their schema. *)
val project :
  Exec_ctx.t -> Schema.t -> string list -> Tuple.t array ->
  Tuple.t array * Schema.t

val limit : Exec_ctx.t -> int -> Tuple.t array -> Tuple.t array

(** Total byte footprint of a row set. *)
val bytes_of_rows : Tuple.t array -> int

(** One row's share of {!bytes_of_rows}: its header and its cells. *)
val tuple_bytes : Tuple.t -> int

(** Growable output buffer for operators whose output size is unknown in
    advance (joins). *)
module Out : sig
  type t

  (** [create n] pre-sizes the buffer for [n] rows. *)
  val create : int -> t

  val add : t -> Tuple.t -> unit
  val length : t -> int

  (** The rows added, in order.  Call once, after the last [add]. *)
  val contents : t -> Tuple.t array
end

(** How a join builds its output rows from pairs of input rows. *)
module Pair : sig
  type t

  (** [make ?out left right] finds each column of [out] among the
      columns of [left], then [right], once per execution.  [out] must be
      an order-preserving subsequence of [Schema.concat left right], which
      is its default.
      @raise Invalid_argument otherwise. *)
  val make : ?out:Schema.t -> Schema.t -> Schema.t -> t

  (** The output schema, [out]. *)
  val schema : t -> Schema.t

  (** [row m l r]: the output row of [l] (a [left] row) paired with [r]. *)
  val row : t -> Tuple.t -> Tuple.t -> Tuple.t
end

(** [row_hash t idx] folds [Value.hash] over the columns [idx] of [t]
    (from 17, times 31), so keys that are [Value.equal] column by column
    hash alike. *)
val row_hash : Tuple.t -> int array -> int

(** [hash_one h] is the [row_hash] of a one-column key whose
    [Value.hash] is [h]. *)
val hash_one : int -> int

(** [Value.equal] on the columns [ai] of [a] and [bi] of [b], pairwise. *)
val keys_equal : Tuple.t -> int array -> Tuple.t -> int array -> bool

(** The hash table of hash joins, hash aggregation and COUNT(DISTINCT):
    distinct keys, numbered 0, 1, ... in first-added order, each the [key]
    columns of its first row.  Linear probing over (full hash, id) int
    pairs, at most half full; only growth allocates. *)
module Table : sig
  type t

  (** [create ?ctx ~key n] is an empty table sized for [n] keys before it
      grows.  With [ctx], its slots are borrowed from [ctx]'s scratch
      for the step ({!Exec_ctx.ints}), until the table outgrows them. *)
  val create : ?ctx:Exec_ctx.t -> key:int array -> int -> t

  (** [find t h row idx]: the id of the key in columns [idx] of [row],
      whose [row_hash] is [h], or -1. *)
  val find : t -> int -> Tuple.t -> int array -> int

  (** [add t h row] adds [row]'s key, which must be absent; returns its id. *)
  val add : t -> int -> Tuple.t -> int

  val length : t -> int

  (** [row t id] is the first row added with key [id]. *)
  val row : t -> int -> Tuple.t
end
