(** Static analysis over annotated query execution plans.

    The whole re-optimization mechanism rests on invariants of the
    annotated plan — every operator carries estimates, collectors sit at
    legal streamed positions within the [mu] budget, a re-planned
    remainder must be consistent with the temp tables it reads, memory
    grants must fit the broker budget, and runtime-filter leases must
    provably return to zero.  A malformed plan otherwise only fails deep
    inside the dispatcher.  This module checks those invariants up front:
    six passes run over a plan ([Engine.lint], [mqr_cli lint]),
    and the dispatcher's sanitizer runs them before execution, at every
    decision point and after every mid-query plan switch:

    - schema — infers each operator's output schema bottom-up
      from the catalog (whose temp tables hold the intermediates a
      re-planned remainder reads) and rejects dangling column references,
      operand type mismatches and shape drift ([SCH-*] codes);
    - annotation — every operator has sane estimates; child to
      parent cardinality monotonicity is plausible (join and filter
      estimates never exceed cross-product / input bounds); degenerate
      zero-row estimates are flagged ([EST-*]);
    - SCIA legality — statistics collectors only at streamed positions
      directly above a scan, unique collection-point ids, spec columns
      the input actually owns, total collector CPU within the [mu]
      budget, no collector orphaned below nothing that can use its
      statistics ([SCIA-*]);
    - resources — memory assignments respect min/max demands and
      the broker budget; runtime-filter annotations are installable and
      retire inside their unit, so [filter_pages_held] provably returns
      to 0 ([MEM-*], [RF-*]);
    - parallelism — degree-of-parallelism annotations are sane:
      every [dop] is at least 1, degrees above 1 only on operators with
      an exchange implementation, per-worker memory shares workable
      ([PAR-*]);
    - bounds — cardinality-bound abstract interpretation (see
      {!Bounds}): estimates outside their provable interval, worst-case
      memory demands over the broker budget, provably-dominated access
      paths ([BND-*], all warnings — the hard-error counterpart,
      [BND-OBSERVED], is raised by the dispatcher's sanitizer when an
      {e observed} cardinality falls outside its interval). *)

(** What the plan is checked against.  Every table a plan reads, base or
    temp, is looked up in [catalog]: a temp table's heap schema is the
    expected schema verbatim (it keeps the original column qualifiers), a
    base table's is re-qualified by the scan alias. *)
type context = {
  catalog : Mqr_catalog.Catalog.t;
  budget_pages : int option;  (** memory-manager budget, when known *)
  mu : float option;  (** collector overhead bound, when known *)
  bounds : Bounds.env;
      (** ground-truth environment for the bounds pass, built from
          [catalog] ({!Bounds.env}) *)
}

val context : ?budget_pages:int -> ?mu:float -> Mqr_catalog.Catalog.t -> context

(** Run all six passes and return every finding, errors first. *)
val verify : context -> Mqr_opt.Plan.t -> Diagnostic.t list

exception Rejected of { what : string; diags : Diagnostic.t list }
(** [diags] holds only the [Error]-severity findings. *)

(** Like {!verify} but raises {!Rejected} when any finding is an error;
    [what] names the plan being refused (e.g. ["initial plan"],
    ["switched plan"]). *)
val check_exn :
  what:string -> context -> Mqr_opt.Plan.t ->
  Diagnostic.t list

(** Raise {!Rejected} with a [TEN-LIFETIME] error: tenant [tenant] still
    holds [pages] transient pages (bloom bitmaps + worker pool slices,
    summed over its in-flight runs) at a point where the service
    scheduler observes its runs from outside a step.  The multi-tenant
    generalization of the sanitizer's [RF-LIFETIME] / [PAR-LIFETIME]
    dynamic checks. *)
val reject_tenant_pages : what:string -> tenant:string -> pages:int -> 'a
