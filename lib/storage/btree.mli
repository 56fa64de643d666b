(** In-memory B+-tree secondary index.

    Keys are {!Value.t}; each key maps to the rids of the heap-file tuples
    with that key.  Node visits during cost-accounted probes go through the
    {!Buffer_pool} (each node is a logical page of the index file), so
    repeated probes of a hot index are cheap, as on a real system. *)

type t

(** [create schema_ty ()] builds an empty index.  [fanout] is the maximum
    number of keys per node (default 64 ≈ a 4 KB page of key/pointer
    pairs). *)
val create : ?fanout:int -> unit -> t

val insert : t -> Value.t -> int -> unit

val entry_count : t -> int

(** Number of distinct keys. *)
val key_count : t -> int

val height : t -> int

(** Exact lookup without cost accounting. *)
val lookup : t -> Value.t -> int list

(** Cost-accounted probe: descends root-to-leaf and walks leaves covering
    the interval, charging a random read per buffer-pool miss on index
    pages.  Returns the matching rids in key order. *)
val probe :
  t -> pool:Buffer_pool.t -> clock:Sim_clock.t ->
  ?lo:Value.t -> ?hi:Value.t -> unit -> int list

(** Structural well-formedness check for tests: sorted keys, balanced
    depth, fanout bounds.  Returns an error description if violated. *)
val check : t -> (unit, string) result
