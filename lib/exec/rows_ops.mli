(** Streamed row operators: filter, project, limit.

    These run inside a pipeline, so they charge only CPU. *)

open Mqr_storage

val filter : Exec_ctx.t -> Schema.t -> Mqr_expr.Expr.t -> Tuple.t array -> Tuple.t array

(** [project ctx schema cols rows] keeps the named columns, in order.
    Returns the projected rows and their schema. *)
val project :
  Exec_ctx.t -> Schema.t -> string list -> Tuple.t array ->
  Tuple.t array * Schema.t

val limit : Exec_ctx.t -> int -> Tuple.t array -> Tuple.t array

(** Total byte footprint of a row set. *)
val bytes_of_rows : Tuple.t array -> int

(** Hash table keyed by one value (single-column join keys). *)
module Vtbl : Hashtbl.S with type key = Value.t

(** Multi-column join and group keys.  [hash] folds [Value.hash] over the
    elements from 17 with a factor of 31, so a table's iteration order is
    a function of its keys and their insertion order. *)
module Key : sig
  type t = Value.t array

  val equal : t -> t -> bool
end

module Ktbl : Hashtbl.S with type key = Key.t

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
