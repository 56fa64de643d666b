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

    The broker keeps two tables: lease id to pages and tenant, and
    registered tenant to weight and counters.  Every total it reports
    (free pages, a tenant's leased pages) is summed from the lease table.

    Invariants (tested): the sum of outstanding leases never exceeds the
    budget, and no lease outlives its query.

    {b Multi-tenancy.}  Every lease is granted under a tenant registered
    with [register_tenant], which gets a weighted fair share of the
    budget.  The broker keeps no scheduler state: calls pass the live
    [active] predicate (has this tenant admitted-but-unfinished work?)
    and the [pending] count.  While a tenant is active the unused part of
    its share is held in reserve: other tenants' leases cannot touch it,
    so one tenant's hash joins cannot starve another's scans.  The scheme
    is work-conserving — an idle tenant's share is available to everyone.
    A function given an unregistered name raises [Invalid_argument],
    [tenant_leased] aside. *)

type t

(** [create ~budget_pages ~max_concurrency] — the admission floor is
    [budget_pages / max_concurrency] (at least one page): a new query is
    only admitted while that much is unleased, so every admitted query
    can make progress. *)
val create : budget_pages:int -> max_concurrency:int -> t

val budget_pages : t -> int
val floor_pages : t -> int

(** [lease t ~tenant ~pending ~active ~id ~min_pages ~max_pages]
    re-negotiates query [id]'s lease: grants up to [max_pages] of what
    is free (a query's own current lease counts as free to itself),
    falling back toward [min_pages] under pressure.  While the [pending]
    queries not yet running could still fill open slots, one admission
    floor per such query is held in reserve so a single greedy lease
    cannot serialize the batch; likewise every {e other} [active]
    tenant's unfilled fair share is reserved, so the grant a re-opt
    decision point sees is the {e tenant's} budget, not the global one.
    Returns the new lease size; never exceeds the pages actually
    available, so the budget invariant holds. *)
val lease :
  t -> tenant:string -> pending:int -> active:(string -> bool) -> id:int ->
  min_pages:int -> max_pages:int -> int

(** Return query [id]'s entire lease to the pool. *)
val release : t -> id:int -> unit

(** Current lease of a query (0 when it holds none). *)
val lease_of : t -> id:int -> int

val total_leased : t -> int
val free_pages : t -> int

(** Number of live leases. *)
val outstanding : t -> int

(** {2 Per-tenant fair shares} *)

(** [register_tenant t ~weight name] declares a tenant, once (a second
    registration raises); its fair share is
    [budget * weight / total_weight]. *)
val register_tenant : t -> weight:int -> string -> unit

(** The weight a tenant was registered with, kept here only. *)
val tenant_weight : t -> string -> int

(** A tenant's fair share of the budget in pages. *)
val tenant_share : t -> string -> int

(** Pages currently leased under this tenant across all its queries,
    summed from its live leases (0 for a name nothing is leased under). *)
val tenant_leased : t -> string -> int

(** High-water mark of [tenant_leased]. *)
val tenant_peak : t -> string -> int

(** Lease calls by this tenant that were clipped while other tenants'
    floors were in reserve — a cheap "broker waits" signal for metrics. *)
val tenant_floor_waits : t -> string -> int

(** Is there room (at least one admission floor) to admit another query
    of tenant [name]?  Other [active] tenants' reserved shares don't
    count as free, but a tenant sitting below its own share can always
    admit regardless of what the others hold. *)
val can_admit_tenant : t -> active:(string -> bool) -> string -> bool

(** High-water mark of [total_leased] over the broker's lifetime. *)
val peak_leased : t -> int

(** Number of [lease] calls served. *)
val grants : t -> int

(** Pages handed back by lease shrinks and releases. *)
val reclaimed_pages : t -> int
