(** The query service: a wall-clock scheduler multiplexing N concurrent
    sessions over one engine.

    This is the workload manager's one scheduler: tenants register with
    a latency-SLO class (interactive or batch), open long-lived
    {!Session}s, and submit statements that the scheduler admits and
    steps earliest deadline first (arrival + the tenant's SLO target):
    FIFO admission and round-robin stepping among equal deadlines, so a
    batch is stepped round-robin and interactive work overtakes it.  It
    multiplexes one execution unit at a time over the shared
    {!Mqr_core.Dispatcher} step API, and funds through a tenant-aware
    {!Broker} (weighted fair-share floors, re-grants on completion).

    {b Determinism.}  Scheduling reads only the service's virtual
    simulated timeline — deadlines, admission times, broker state —
    never the wall clock.  The wall clock (injected via
    {!options.wall_clock}; the wlm library itself does not link unix) is
    measured and reported only.  Consequently result rows are
    byte-identical and simulated times bit-identical from run to run;
    intra-operator parallelism is priced on the simulated clock from
    each plan's degrees.

    {b Sanitizer.}  Under the sanitizer ([sanitize]) the scheduler's one
    observer point (which also writes the [svc.*] metrics) asserts at
    every decision point and completion that each tenant's transient
    pages (bloom bitmaps + worker pool slices over its in-flight runs)
    sum to zero — [TEN-LIFETIME], generalizing RF-/PAR-LIFETIME. *)

(** Unread: the one scheduling rule follows from the input.  Kept, with
    [options.policy], for callers that still name them. *)
type policy = Slo_aware

(** Defaults for one SLO class: the latency target statements inherit as
    deadline, and the broker fair-share weight. *)
type slo_class = { target_ms : float; weight : int }

type options = {
  max_concurrency : int;            (** in-flight statement slots *)
  max_queue : int;                  (** admission queue bound (then shed) *)
  policy : policy;                  (** unread *)
  interactive : slo_class;
  batch : slo_class;
  feedback : bool;                  (** cross-query statistics cache *)
  wall_clock : (unit -> float) option;
      (** seconds; e.g. [Unix.gettimeofday].  [None] = wall numbers 0. *)
}

val default_options : options

type t

(** The service owns its broker and admission queue; the engine (and its
    catalog, optimizer options, sanitizer switch) is shared across tenants. *)
val create : ?options:options -> ?trace:Mqr_obs.Trace.t -> Mqr_core.Engine.t -> t

val broker : t -> Broker.t

(** Register a tenant before opening sessions for it.  [weight] and
    [target_ms] default to the options' class values; the weight is
    kept by the broker ({!Broker.tenant_weight}).  Raises on
    duplicates. *)
val add_tenant :
  ?weight:int -> ?target_ms:float -> t -> slo:Session.slo -> string -> unit

(** Open a session for a registered tenant.  Raises [Invalid_argument]
    for an unknown tenant. *)
val open_session : t -> tenant:string -> Session.t

(** Execute one execution unit of one statement (possibly admitting
    queued statements first).  Returns [false] when nothing is running
    or admittable. *)
val step : t -> bool

(** Step until idle. *)
val drain : t -> unit

val idle : t -> bool

(** Sum of transient pages (filter + worker) currently held by a
    tenant's in-flight runs — 0 whenever observed between steps. *)
val tenant_pages_in_flight : t -> string -> int

(** {2 Introspection}

    Read-only views of the live scheduler state, the raw material of
    {!Monitor}.  All of them are pure observation: calling them never
    advances the virtual clock or perturbs scheduling. *)

(** Every session ever opened, in open order. *)
val sessions : t -> Session.t list

(** Every statement ever submitted, in submission order. *)
val all_statements : t -> Session.stmt list

(** In-flight statements, admission order. *)
val running_statements : t -> Session.stmt list

(** Statements waiting for admission. *)
val queued_count : t -> int

(** The latest point on the shared simulated timeline any statement has
    reached. *)
val now_ms : t -> float

(** The trace the service was created with, if any. *)
val service_trace : t -> Mqr_obs.Trace.t option

(** {2 Reporting} *)

type class_stats = {
  cs_n : int;               (** completed statements in the class *)
  cs_p50_ms : float;        (** simulated latency (finish - arrival) *)
  cs_p99_ms : float;
  cs_violations : int;      (** statements past their SLO target *)
}

(** A tenant's live record: the service updates it on every submission,
    admission and terminal event, and {!report} fills in the two
    broker-owned fields.  Read-only outside the service: [private] lets
    callers read and match it but not build or write it. *)
type tenant_summary = private {
  tns_tenant : string;
  tns_slo : Session.slo;
  tns_target_ms : float;
  mutable tns_submitted : int;
  mutable tns_completed : int;
  mutable tns_failed : int;
  mutable tns_cancelled : int;
  mutable tns_shed : int;
  mutable tns_replans : int;        (** mid-query plan switches, summed *)
  mutable tns_violations : int;
  mutable tns_deadline_miss : int;
      (** terminal statements that did not complete by their deadline:
          late completions + failed (at start or mid-run) + cancelled +
          shed.  Also exported as the [svc.<tenant>.deadline_miss]
          counter *)
  mutable tns_min_headroom_ms : float;
      (** worst (smallest) [target - latency] over completions — negative
          once an SLO was missed; [infinity] until the tenant completes a
          statement.  Also exported as the [svc.<tenant>.slo_headroom_ms]
          gauge *)
  mutable tns_queue_ms : float;
  mutable tns_exec_ms : float;
  mutable tns_peak_leased : int;    (** as of the last {!report} *)
  mutable tns_broker_waits : int;
      (** leases clipped by other tenants' floors, as of the last
          {!report} *)
}

type report = {
  statements : Session.stmt list;  (** submission order *)
  classes : (Session.slo * class_stats) list;
  tenants : tenant_summary list;   (** the live records, by name *)
  makespan_ms : float;             (** simulated *)
  wall_makespan_ms : float;        (** 0 without a wall clock *)
  peak_leased_pages : int;
  outstanding_leases : int;        (** 0 once drained *)
  stats_published : int;
  stats_applied : int;
}

val report : t -> report

(** Print the service's {!report}, each tenant with the fair-share weight
    its broker keeps. *)
val pp_report : Format.formatter -> t -> unit
