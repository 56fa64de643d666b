(** Execution context shared by all operators: the simulated clock that
    accumulates I/O and CPU charges, and the buffer pool page accesses are
    routed through. *)

open Mqr_storage

type t = {
  clock : Sim_clock.t;
  pool : Buffer_pool.t;
}

val create : ?pool_pages:int -> unit -> t

(** Pages needed to hold [bytes]. *)
val pages_of_bytes : int -> int

(** Simulated time so far. *)
val elapsed_ms : t -> float
