(** Long-lived client sessions over the stepwise {!Mqr_core.Dispatcher}
    API.

    A session carries a tenant identity and latency-SLO class, and gives
    its statements a private temp-table namespace in the shared catalog
    (so concurrent tenants' intermediate results can never collide).
    Statements go through a submit → poll → (cancel) lifecycle; the
    session itself never executes anything — it hands statements to the
    owning {!Service} scheduler through its {!hooks} and exposes their
    status to the client.  Sessions survive statement failures: a broken
    UDF or a verifier rejection marks one statement [Failed] and the
    session keeps accepting work. *)

(** Latency SLO class: interactive statements carry tight deadlines the
    scheduler orders admission by; batch statements have slack. *)
type slo = Interactive | Batch

val slo_to_string : slo -> string

type status =
  | Queued                             (** waiting for admission *)
  | Running                            (** admitted, executing stepwise *)
  | Done of Mqr_core.Dispatcher.report
  | Failed of string                   (** error text; session survives *)
  | Cancelled
  | Shed                               (** refused: admission queue full *)

val status_to_string : status -> string

(** One submitted statement.  The immutable fields identify it; the
    mutable fields are owned by the scheduler (admission/finish times on
    the shared virtual timeline, the live dispatcher run while
    [Running]). *)
type stmt = {
  stmt_id : int;            (** service-global; doubles as broker lease id *)
  stmt_label : string;
  stmt_sql : string;
  stmt_mode : Mqr_core.Dispatcher.mode;
  stmt_slo : slo;
  stmt_tenant : string;
  stmt_session : int;
  stmt_arrival_ms : float;
  stmt_deadline_ms : float; (** arrival + the session's SLO target *)
  stmt_temp_prefix : string;
  mutable stmt_status : status;
  mutable stmt_query : Mqr_sql.Query.t option;
  mutable stmt_run : Mqr_core.Dispatcher.run option;
      (** set only while [Running]: the service drops the run (and with it
          the statement's buffer pool and operator state) as soon as the
          statement finishes, so finished statements stay small *)
  mutable stmt_progress : Mqr_obs.Progress.t option;
      (** per-statement progress/ETA estimator, attached by the service at
          submission and fed by the dispatcher at every decision point *)
  mutable stmt_admit_ms : float;
  mutable stmt_finish_ms : float;
}

(** Statement reached a terminal status. *)
val stmt_finished : stmt -> bool

(** The scheduler half of the contract: the service allocates statement
    ids, receives submitted statements, and performs cancellation (it
    owns the run and the broker lease). *)
type hooks = {
  h_alloc_id : unit -> int;
  h_submit : stmt -> unit;
  h_cancel : stmt -> unit;
}

type t

val create :
  hooks:hooks -> id:int -> tenant:string -> slo:slo -> target_ms:float -> t

val id : t -> int
val tenant : t -> string
val slo : t -> slo

(** All statements ever submitted, oldest first. *)
val statements : t -> stmt list

val closed : t -> bool

(** [submit t sql] registers a statement and hands it to the scheduler;
    returns its id.  [arrival_ms] places it on the service's virtual
    timeline (default 0); the deadline is [arrival_ms] plus the
    session's SLO target.  Raises [Invalid_argument] on a closed
    session. *)
val submit :
  ?label:string -> ?mode:Mqr_core.Dispatcher.mode -> ?arrival_ms:float ->
  t -> string -> int

(** Current status; raises [Invalid_argument] for an unknown id. *)
val poll : t -> int -> status

(** The report, once [poll] would return [Done]. *)
val result : t -> int -> Mqr_core.Dispatcher.report option

(** Cancel a queued or running statement (via the scheduler hook).
    Returns [false] if the statement is unknown or already terminal. *)
val cancel : t -> int -> bool

(** Cancel everything outstanding and refuse further submissions.
    Idempotent. *)
val close : t -> unit
