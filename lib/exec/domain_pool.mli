(** A long-lived pool of OCaml 5 domains with a work-stealing task queue.

    The pool is spawned once per [Engine] and reused for
    every parallel operator; domains are expensive to fork, so operators
    must never spawn their own.  Tasks are closures submitted in batches;
    each batch blocks the submitter until every task has finished and
    returns the results in submission order, so callers observe fully
    deterministic merges no matter which domain ran which task.

    Scheduling: each worker owns a deque; batches are dealt round-robin
    across the deques and an idle worker steals from its neighbours before
    sleeping on the pool's condition variable.

    Exceptions raised by a task are caught on the worker, stored in the
    task's result slot, and re-raised on the submitting thread after the
    whole batch has drained — a throwing task never wedges a worker or
    leaks its siblings ({!pending} returns to 0).

    A pool of size 1 (or a batch submitted from inside a worker — nested
    parallelism) runs inline on the caller, with identical semantics. *)

type t

(** [create ~size ()] spawns [size - 1 >= 0] worker domains (the
    submitting thread is itself a worker of last resort for inline
    execution; [size <= 1] spawns none). *)
val create : size:int -> unit -> t

(** Number of domains serving this pool (1 = inline execution). *)
val size : t -> int

(** [run_all pool thunks] executes every thunk, blocks until all have
    finished, and returns their results in input order.  If any task
    raised, the lowest-indexed exception is re-raised after the batch has
    fully drained. *)
val run_all : t -> (unit -> 'a) array -> 'a array

(** Tasks submitted but not yet finished; 0 whenever no batch is in
    flight (used by tests to prove no task leaks under exceptions). *)
val pending : t -> int

(** True when {!shutdown} has completed (or was never needed). *)
val is_shutdown : t -> bool

(** Drain queued work, stop the workers and join their domains.
    Idempotent; after shutdown batches run inline. *)
val shutdown : t -> unit
