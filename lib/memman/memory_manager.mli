(** The Memory Manager (paper Section 3.1, after Nag & DeWitt [15]).

    Each memory-consuming operator (hash join, sort, aggregate, block
    nested loops) declares a minimum and maximum memory demand derived
    from the optimizer's size estimates.  Given a fixed budget of buffer
    pages, the manager walks the operators in execution order and grants
    each its maximum if the remaining budget can still cover the minimums
    of all later operators, otherwise its minimum; leftovers are then
    topped up in the same order.  This reproduces the paper's Figure 3
    behaviour: under an 8 MB budget the first join gets its maximum, the
    second only its minimum — and runs in two passes until improved
    estimates shrink its demand.

    Re-invoking [allocate] after the re-optimizer installs improved
    estimates is the paper's *dynamic resource re-allocation*. *)

type t

val create : budget_pages:int -> t
val budget_pages : t -> int

(** Memory consumers of a plan in execution order (post-order, build side
    before probe side). *)
val consumers_in_order : Mqr_opt.Plan.t -> Mqr_opt.Plan.t list

(** [(min, max)] aggregate page demand over a plan's memory consumers
    (each counted as at least one page) — what a query asks a workload
    memory broker for. *)
val plan_demand : Mqr_opt.Plan.t -> int * int

type grant = {
  node_id : int;
  op : string;
  min_pages : int;
  max_pages : int;
  granted : int;
}

(** Mutates the plan's [mem] fields; returns the grants for reporting. *)
val allocate : t -> Mqr_opt.Plan.t -> grant list

val pp_grant : Format.formatter -> grant -> unit
