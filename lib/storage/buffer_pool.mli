(** LRU buffer pool.

    Tuples live in memory (this is a simulator), so the pool's only job is
    deciding whether a page access is a *hit* (free) or a *miss* (charged to
    the {!Sim_clock} by the caller).  Pages are identified by
    [(file_id, page_no)].  The LRU order is exact; an access costs O(1)
    and allocates nothing once the pool has filled. *)

type t

val create : capacity_pages:int -> t

val capacity : t -> int

(** [reset t ~capacity_pages] empties [t] and sets its capacity: from
    then on it behaves exactly like [create ~capacity_pages] (the same
    hits, misses, evictions and counters for any sequence of accesses),
    but keeps its hash buckets and the node array it grew, so refilling
    it allocates nothing up to the old size.  It is as fast as a fresh
    pool when [capacity_pages] needs the same power-of-two number of
    buckets.  Raises [Invalid_argument] when [capacity_pages < 1]. *)
val reset : t -> capacity_pages:int -> unit

(** The words [t]'s arrays take. *)
val words : t -> int

(** [access t ~file ~page] touches a page, returns [true] on a hit and
    [false] on a miss (the page is then resident until evicted).  Raises
    [Invalid_argument] unless [file] and [page] are both in [0, 2{^31}). *)
val access : t -> file:int -> page:int -> bool

val hits : t -> int
val misses : t -> int
val resident : t -> int
