(** Tuples: fixed-arity arrays of values. *)

type t = Value.t array

val arity : t -> int
val project : t -> int list -> t

(** Fixed per-tuple header, in bytes. *)
val header_bytes : int

(** Actual byte footprint of this tuple (header + per-value sizes). *)
val byte_size : t -> int

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string
