(** Query tracing: operator spans, a decision-point audit ledger, and
    Chrome-trace export.

    A {!t} is a per-session collector shared by every query the engine (or
    workload manager) runs while it is attached.  Each query opens a
    {!scope} — one Chrome-trace thread lane — and the dispatcher stamps
    spans and ledger entries with the query's own {!Mqr_storage.Sim_clock}
    time plus the scope's [offset_ms] (a workload manager passes the
    query's admission time so concurrent queries interleave correctly on
    the shared timeline).

    Tracing is pure observation: nothing here charges the simulated clock
    or touches the filesystem, so a traced run's simulated elapsed time
    and result rows are byte-identical to an untraced one (the bench
    [observers] scenario asserts this — the observability analogue of the
    paper's [mu * T_est] overhead budget, held at zero).  Exporters return
    strings; callers decide where they go.

    Spans obey a strict stack discipline per scope ({!close_span} raises
    on out-of-order closes), so a finished trace is a well-formed forest:
    query → unit → operator. *)

type arg =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

type span = {
  sp_tid : int;          (** the owning scope's lane *)
  sp_name : string;
  sp_cat : string;
  sp_depth : int;        (** nesting depth within the scope, 0 = query *)
  sp_begin_ms : float;   (** offset-adjusted simulated time *)
  sp_end_ms : float;
  sp_args : (string * arg) list;
}

type instant = {
  i_tid : int;
  i_name : string;
  i_cat : string;
  i_ts_ms : float;
  i_args : (string * arg) list;
}

type t

val create : unit -> t

(** The session-wide metrics registry the trace aggregates into. *)
val metrics : t -> Metrics.t

(** {2 Scopes: one lane per query} *)

type scope

(** [scope t ~label ()] opens a new lane; [offset_ms] shifts every
    timestamp recorded through it (a query's admission time under a
    workload manager; 0 for a solo query).  [tenant] assigns the lane to
    a tenant: each distinct tenant renders as its own Chrome-trace
    {e process} (pid >= 2, with process-name metadata), so a multi-tenant
    service gets one swimlane group per tenant.  Tenant-less scopes stay
    on the default pid 1 and the exporter output is unchanged. *)
val scope : t -> ?offset_ms:float -> ?tenant:string -> label:string -> unit -> scope

val scope_label : scope -> string
val scope_metrics : scope -> Metrics.t

(** [worker_lane s i] is a child lane for parallel worker [i] of [s]'s
    query — its own Chrome-trace thread labelled ["<label>#wI"], sharing
    [s]'s time offset.  Memoized per scope, so every operator's worker
    [i] stamps onto the same track. *)
val worker_lane : scope -> int -> scope

type token

val open_span :
  scope -> ?cat:string -> name:string -> ts_ms:float -> unit -> token

(** Closes the scope's innermost open span; raises [Invalid_argument] if
    [token] is not that span (malformed nesting). *)
val close_span :
  scope -> ?args:(string * arg) list -> ts_ms:float -> token -> unit

(** Error-path teardown: close every span still open in the scope,
    innermost first, stamping each with [args] and [ts_ms].  Leaves the
    trace well-formed after an exception aborts a query mid-unit, so a
    long-lived service can keep exporting.  No-op on an empty stack. *)
val unwind :
  scope -> ?args:(string * arg) list -> ts_ms:float -> unit -> unit

val instant :
  scope -> ?cat:string -> ?args:(string * arg) list -> name:string ->
  ts_ms:float -> unit -> unit

(** Bump and return the scope's decision-point ordinal (1-based). *)
val new_decision_point : scope -> int

(** [decision scope ~ts_ms ~unit_op ~est_rows ~actual_rows ~kind args]
    appends an audit-ledger entry: an instant of category ["decision"]
    named [kind], stamped with the scope's current decision-point
    ordinal.  Its args are [query], [seq], [ts_ms], [unit_op] (the
    execution unit that just finished), [est_rows] (the optimizer's
    estimate for it), [actual_rows] (observed), [cardinality_error]
    (actual / estimated, 1.0 = perfect), then [("kind", Str kind)], then
    [args] — the kind's own terms, named by the caller. *)
val decision :
  scope -> ts_ms:float -> unit_op:string -> est_rows:float ->
  actual_rows:int -> kind:string -> (string * arg) list -> unit

(** {2 Reading a finished trace} *)

(** [(tid, label)] per query scope, in tid order. *)
val queries : t -> (int * string) list

(** Completed spans in completion order. *)
val spans : t -> span list

(** The audit ledger: the ["decision"] instants, chronological. *)
val ledger : t -> instant list

(** Spans opened but not yet closed, across all scopes — 0 in any
    well-formed finished trace. *)
val open_spans : t -> int

(** {2 Exporters}

    Pure: both return the document as a string. *)

(** Chrome trace-event JSON (the [chrome://tracing] / Perfetto format):
    complete ["X"] events for spans, instant ["i"] events for samples,
    filters and (after all other instants) ledger entries, thread-name
    metadata per query. *)
val to_chrome_json : t -> string

(** Compact machine-readable summary: queries, span count, the full
    metrics registry, and the audit ledger. *)
val to_summary_json : t -> string

(** The body of a JSON string literal for [s] (no surrounding quotes):
    quote, backslash, [\n], [\t] and [\r] get short escapes, other
    control characters [\u00XX].  Shared by every hand-rolled JSON
    emitter in the repository. *)
val json_escape : string -> string

(** One arg as a JSON value: floats with three decimals, [null] when not
    finite.  The exporters' and the monitor's only value printer. *)
val arg_json : arg -> string

val pp_ledger : Format.formatter -> t -> unit

(** One ledger entry on one line: query, ordinal, time, kind and unit,
    then every other arg as [key=value]. *)
val pp_decision : Format.formatter -> instant -> unit
