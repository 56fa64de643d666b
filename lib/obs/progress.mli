(** Per-statement progress / ETA estimator.

    The dispatcher feeds this at every decision point and plan switch with
    what the re-optimizer itself believes: the simulated clock (work done
    so far), the remainder plan's Eq.1 cost estimate, and the provable
    remaining-cost interval from {!Mqr_analysis.Bounds}.  The estimator
    turns those into a percent-done figure and an ETA interval
    [[eta_lo_ms, eta_hi_ms]] on the simulated clock.

    Guarantees:
    - {b zero simulated cost} — updates only read the clock value they
      are handed, they never charge it, so a run with progress attached
      is bit-identical (rows and simulated elapsed) to one without;
    - {b percent is monotone non-decreasing} and lands at exactly 100 on
      completion (raw estimates can regress when a plan switch raises
      the remainder estimate; the clamp absorbs that);
    - {b eta_lo is monotone non-decreasing} and never in the past — a
      provable lower bound on the finish time can only tighten upward;
    - [eta_hi >= eta_lo] always.  The upper bound is deliberately {e not}
      clamped downward: a plan switch may legitimately raise the provable
      worst case, and hiding that would lie to the operator. *)

(** Why an update fired. *)
type label =
  | Start  (** initial plan chosen, before the first unit executes *)
  | Decision  (** a decision point completed (post-recost) *)
  | Switch  (** the plan was just switched to a re-optimized remainder *)
  | Finish  (** the statement completed *)

val label_to_string : label -> string

type sample = {
  seq : int;  (** 0-based update index *)
  ts_ms : float;  (** simulated clock at the update *)
  remaining_est_ms : float;  (** remainder plan's Eq.1 estimate *)
  percent : float;  (** clamped monotone, in [0, 100] *)
  eta_lo_ms : float;  (** absolute simulated finish-time lower bound *)
  eta_hi_ms : float;  (** absolute simulated finish-time upper bound *)
  label : label;
}

type t

val create : unit -> t

(** Record one estimator update.  [now_ms] is the simulated clock;
    [remaining_est_ms] the remainder plan's cost-model estimate;
    [remaining_lo_ms]/[remaining_hi_ms] the provable remaining-cost
    interval (pass the estimate for both when no bounds are available).
    Returns the recorded (clamped) sample. *)
val update :
  t ->
  label:label ->
  now_ms:float ->
  remaining_est_ms:float ->
  remaining_lo_ms:float ->
  remaining_hi_ms:float ->
  sample

(** Final update: percent 100, both ETA bounds collapsed to the later of
    [now_ms] and the last sample's [eta_lo_ms], so [eta_lo] stays
    monotone.  That ETA can lie after [now_ms]: a remaining-cost [lo]
    that overestimates ({!Mqr_analysis.Bounds.cost_interval} assumes every
    page read misses the pool) leaves a floor past the actual finish, and
    the finished statement reports it.  Idempotent. *)
val finish : t -> now_ms:float -> sample

(** Most recent sample, if any update has been recorded. *)
val latest : t -> sample option

(** All samples, oldest first. *)
val samples : t -> sample list

(** True once {!finish} has run. *)
val finished : t -> bool

(** True iff percent never decreases and eta_lo never decreases across
    {!samples} (the invariant the estimator promises; exposed so tests
    and the bench can assert it directly). *)
val monotone : t -> bool
