(** Static-plan cache.

    Section 2.6 of the paper: the output of the statistics-collectors
    insertion algorithm is "the final static plan for the query that can be
    stored in the database system".  This module is that store: annotated,
    collector-instrumented plans keyed by query text.

    A cached plan embeds the optimizer estimates of its day; like any
    static plan it goes stale as tables change.  Entries are invalidated
    when a referenced table has seen significant update activity since the
    plan was cached, was dropped, or had its statistics refreshed by
    ANALYZE (its stats epoch moved — even when no rows changed, the plan
    was costed under numbers that no longer exist) — and, of course, a
    stale plan that slips through is exactly what Dynamic Re-Optimization
    repairs at run time. *)

type t

val create : ?capacity:int -> unit -> t

type entry = {
  plan : Mqr_opt.Plan.t;
  query : Mqr_sql.Query.t;
  collectors : int;
}

(** [find t catalog sql] returns a still-valid entry, dropping and
    reporting staleness otherwise. *)
val find : t -> Mqr_catalog.Catalog.t -> string -> entry option

(** [store t catalog sql ~plan ~query ~collectors] caches the entry under
    [sql].  A key stored while cached keeps its place in the eviction
    order; a new key, or one [find] dropped as stale, is the newest, and
    a full cache first evicts the entry whose key was stored longest
    ago. *)
val store :
  t -> Mqr_catalog.Catalog.t -> string -> plan:Mqr_opt.Plan.t ->
  query:Mqr_sql.Query.t -> collectors:int -> unit

val hits : t -> int
val misses : t -> int
val size : t -> int
