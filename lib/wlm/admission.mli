(** Admission controller: a bounded, deadline-ordered run queue.

    Statements that cannot start immediately wait here.  Ordering is
    earliest-deadline-first (EDF): an item with a latency-SLO deadline
    overtakes anything with more slack, which is what lets an interactive
    statement jump a queue of batch work.  Items without a deadline (the
    default, [infinity]) wait in FIFO order.  [offer] refuses items
    beyond the capacity — the service reports those as shed rather than
    queueing unboundedly (load shedding). *)

type 'a t

val create : capacity:int -> 'a t

(** [offer ?deadline t x] is [false] when the queue is full.  [deadline]
    is an absolute time in ms ([infinity] = no deadline). *)
val offer : ?deadline:float -> 'a t -> 'a -> bool

(** [take_if t pred] removes and returns the best-ranked item satisfying
    [pred] — earliest deadline first, FIFO within a deadline — leaving
    the relative order of everything else untouched.  Lets a scheduler
    skip a head-of-queue item whose tenant is at its in-flight cap
    without stalling other tenants queued behind it. *)
val take_if : 'a t -> ('a -> bool) -> 'a option

(** [exists t pred]: does any waiting item satisfy [pred]? *)
val exists : 'a t -> ('a -> bool) -> bool

val length : 'a t -> int
