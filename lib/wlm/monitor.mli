(** Snapshot system views over a running {!Service} — the monitoring
    plane an operator (or the [serve] line protocol's [monitor] command)
    reads while statements execute.

    Every view is pure observation: rendering reads the scheduler, the
    broker, the per-statement progress estimators and the trace ledger,
    and never advances the virtual clock or perturbs scheduling — a
    monitored run is bit-identical to an unmonitored one.

    Each view comes in two renderings: {!render} for humans and
    {!to_json} as a stable machine format (fixed key order, values
    printed by {!Mqr_obs.Trace.arg_json}: [%.3f] numbers, [null] for
    absent or non-finite values) suitable for golden files and the
    [json_check] validator.  All times are on the service's simulated
    timeline, so both renderings are deterministic. *)

type view =
  | Statements
      (** every statement: state, progress %, ETA interval (absolute on
          the service timeline), pages held, deadline risk *)
  | Sessions  (** every session with per-status statement counts *)
  | Tenants
      (** fair-share utilization, floor waits, SLO headroom and
          deadline-miss counters, live deadline-risk counts *)
  | Broker_leases  (** broker totals and the live lease table *)
  | Ledger
      (** tail of the decision-point audit ledger: each entry's trace
          args, under the same keys as the trace exports *)

(** Lower-case names accepted by the line protocol, in display order:
    ["statements"; "sessions"; "tenants"; "broker"; "ledger"]. *)
val view_names : string list

val view_of_string : string -> view option
val view_to_string : view -> string

(** Human-readable rendering.  The ledger view shows the 10 newest
    entries. *)
val render : Service.t -> view -> string

(** Stable JSON rendering (one object, trailing newline).  Common header
    fields [view]/[now_ms]/[queued]/[running], then the view's payload. *)
val to_json : Service.t -> view -> string

(** Prometheus text exposition of the service's metrics registry (via
    {!Mqr_obs.Metrics.to_prometheus}); [""] when the service was created
    without a trace. *)
val prometheus : Service.t -> string
