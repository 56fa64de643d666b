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

(** Growable output buffer for operators whose output size is unknown in
    advance (joins, streaming aggregation). *)
module Out : sig
  type t

  (** [create n] pre-sizes the buffer for [n] rows. *)
  val create : int -> t

  val add : t -> Tuple.t -> unit
  val length : t -> int

  (** The rows added, in order.  Call once, after the last [add]. *)
  val contents : t -> Tuple.t array
end

(** Hash of a join, group or DISTINCT key value that agrees with
    [Value.equal] ([Int 3] and [Float 3.0], [-0.0] and [0.0], all nans):
    [Hash_mix.mix] for [Int], [Date] and integral [Float]s below 2^53,
    [Value.hash] for other numbers, [Hash_mix.string_hash] for a [String], a
    constant for [Null] and [Bool].  Allocates nothing off [Value.hash]. *)
val key_hash : Value.t -> int

(** [int_hash i] is [key_hash (Int i)] and [date_hash d] is [key_hash
    (Date d)]: [key_hash] calls them, so a key read as an unboxed payload
    hashes as its cell does. *)
val int_hash : int -> int

val date_hash : int -> int

(** [row_hash t idx] folds [key_hash] over the columns [idx] of [t] (from
    17, times 31). *)
val row_hash : Tuple.t -> int array -> int

(** [hash_one h] is the [row_hash] of a one-column key whose [key_hash]
    is [h]. *)
val hash_one : int -> int

(** [Value.equal] on the columns [ai] of [a] and [bi] of [b], pairwise. *)
val keys_equal : Tuple.t -> int array -> Tuple.t -> int array -> bool

(** The hash table of hash joins, hash aggregation and COUNT(DISTINCT):
    distinct keys, numbered 0, 1, ... in first-added order, each the [key]
    columns of its first row.  Linear probing over (full hash, id) int
    pairs, at most half full; only growth allocates. *)
module Table : sig
  type t

  val create : key:int array -> int -> t

  (** [find t h row idx]: the id of the key in columns [idx] of [row],
      whose [row_hash] is [h], or -1. *)
  val find : t -> int -> Tuple.t -> int array -> int

  (** [add t h row] adds [row]'s key, which must be absent; returns its id. *)
  val add : t -> int -> Tuple.t -> int

  val length : t -> int

  (** [row t id] is the first row added with key [id]. *)
  val row : t -> int -> Tuple.t
end
