(** Shared memory broker.

    One global budget of buffer pages is divided into *leases*, one per
    running query.  A query (through the dispatcher's broker hook) asks
    for a lease sized to the aggregate demand of its remaining plan; the
    broker grants what fits beside the other leases.  When mid-query
    re-optimization shrinks a plan's demand the next lease call returns
    the difference to the pool, and when a query finishes its whole lease
    is released — freed pages are then re-granted to waiting or
    memory-starved queries by the workload scheduler.  This is the
    paper's dynamic resource re-allocation (Section 2.5) lifted from one
    query's operators to a whole workload's queries.

    The broker keeps one table: each lease id maps to its pages and the
    tenant it was granted under.  Every total it reports (free pages, a
    tenant's leased pages) is summed from that table.

    Invariants (tested): the sum of outstanding leases never exceeds the
    budget, and no lease outlives its query.

    {b Multi-tenancy.}  Tenants registered with [register_tenant] get a
    weighted fair share of the budget.  While a tenant is marked active
    (it has admitted-but-unfinished work) the unused part of its share is
    held in reserve: other tenants' leases cannot touch it, so one
    tenant's hash joins cannot starve another's scans.  The scheme is
    work-conserving — an idle tenant's share is available to everyone. *)

type t

(** [create ~budget_pages ~max_concurrency] — the admission floor is
    [budget_pages / max_concurrency] (at least one page): a new query is
    only admitted while that much is unleased, so every admitted query
    can make progress. *)
val create : budget_pages:int -> max_concurrency:int -> t

val budget_pages : t -> int
val floor_pages : t -> int

(** [lease ?tenant t ~id ~min_pages ~max_pages] re-negotiates query
    [id]'s lease: grants up to [max_pages] of what is free (a query's own
    current lease counts as free to itself), falling back toward
    [min_pages] under pressure.  While pending queries could still fill
    open slots, one admission floor per such query is held in reserve so
    a single greedy lease cannot serialize the batch; likewise every
    {e other} active tenant's unfilled fair share is reserved, so the
    grant a re-opt decision point sees is the {e tenant's} budget, not
    the global one.  Returns the new lease size; never exceeds the pages
    actually available, so the budget invariant holds. *)
val lease : ?tenant:string -> t -> id:int -> min_pages:int -> max_pages:int -> int

(** [set_pending t n] tells the broker how many submitted queries are not
    yet running — the scheduler updates this as the batch drains so
    reservations relax and the survivors can grow to the full budget. *)
val set_pending : t -> int -> unit

(** Return query [id]'s entire lease to the pool. *)
val release : t -> id:int -> unit

(** Current lease of a query (0 when it holds none). *)
val lease_of : t -> id:int -> int

val total_leased : t -> int
val free_pages : t -> int

(** Number of live leases. *)
val outstanding : t -> int

(** {2 Per-tenant fair shares} *)

(** [register_tenant t ~weight name] declares a tenant; its fair share is
    [budget * weight / total_weight].  Re-registering updates the weight. *)
val register_tenant : t -> weight:int -> string -> unit

(** Mark a tenant active (has admitted-but-unfinished work).  Only active
    tenants' unfilled shares are reserved against other tenants. *)
val set_tenant_active : t -> string -> bool -> unit

(** A tenant's fair share of the budget in pages (0 if unregistered). *)
val tenant_share : t -> string -> int

(** Pages currently leased under this tenant across all its queries,
    summed from its live leases.  0 for a name that is not registered,
    even if leases were granted under it. *)
val tenant_leased : t -> string -> int

(** High-water mark of [tenant_leased]. *)
val tenant_peak : t -> string -> int

(** Lease calls by this tenant that were clipped while other tenants'
    floors were in reserve — a cheap "broker waits" signal for metrics. *)
val tenant_floor_waits : t -> string -> int

(** Is there room (at least one admission floor) to admit another query
    of tenant [name]?  Other tenants' reserved shares don't count as free,
    but an active tenant sitting below its own share can always admit
    regardless of what the others hold.  With no tenant registered this
    is [free_pages t >= floor_pages t]. *)
val can_admit_tenant : t -> string -> bool

(** High-water mark of [total_leased] over the broker's lifetime. *)
val peak_leased : t -> int

(** Number of [lease] calls served. *)
val grants : t -> int

(** Pages handed back by lease shrinks and releases. *)
val reclaimed_pages : t -> int
