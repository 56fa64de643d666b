(** The statistics-collectors insertion algorithm (paper Section 2.5).

    Runs as a post-processing phase over the optimizer's annotated plan:

    1. list every *potentially useful* statistic — a histogram on a column
       that participates in a join predicate later in the plan, a distinct
       count on columns grouped by a later aggregate;
    2. score each by its *inaccuracy potential* (how likely the optimizer's
       estimate is wrong — {!Inaccuracy}) and, to break ties, by the
       fraction of the remaining plan the statistic affects;
    3. drop the least effective statistics until the total estimated
       collection cost fits within [mu * T_cur-plan,optimizer];
    4. wrap the corresponding scan outputs in [Collect] operators.

    Cardinality, average tuple size and min/max are treated as free and are
    always observed (the dispatcher collects them at every intermediate
    result), exactly as the paper assumes. *)

type candidate = {
  column : string;              (** qualified column *)
  stat : [ `Histogram | `Distinct ];
  at_alias : string;            (** scan whose output is observed *)
  level : Inaccuracy.level;
  affected_ms : float;          (** cost of the plan portion it influences *)
  collect_ms : float;           (** estimated cost of observing it *)
}

type outcome = {
  plan : Mqr_opt.Plan.t;        (** plan with [Collect] operators inserted *)
  kept : candidate list;
  dropped : candidate list;
  budget_ms : float;            (** mu * estimated query time *)
  next_id : int;                (** first plan-node id the wrappers left free *)
}

(** [insert ~mu ~env ~first_id plan] returns the instrumented plan.
    Collector ids ([cid]) are dense, starting at 0, in left-to-right scan
    order; the [Collect] wrappers take plan-node ids [first_id],
    [first_id + 1], ... in the same order, so the caller owns the id
    space. *)
val insert :
  mu:float -> env:Mqr_opt.Stats_env.t -> first_id:int -> Mqr_opt.Plan.t ->
  outcome
