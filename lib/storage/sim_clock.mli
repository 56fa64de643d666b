(** Simulated execution clock.

    The paper reports wall-clock times on a Paradise cluster.  We replace
    the cluster with a deterministic cost ledger: every operator charges the
    clock for the page I/Os and per-tuple CPU work it performs, and the
    "execution time" of a query is the ledger total.  The optimizer uses
    the same rate constants for its estimates, so estimation error comes
    only from cardinality/selectivity mistakes — exactly the error source
    the paper studies.

    Charges update the ledger in place and allocate nothing, so operators
    may charge per tuple.  Each charge adds its own float in call order;
    callers must not batch per-tuple charges, since [n] additions of a rate
    are not bit-equal to one addition of [n] times it. *)

type model = {
  seq_read_ms : float;   (** sequential page read *)
  rand_read_ms : float;  (** random page read (index probes) *)
  write_ms : float;      (** page write *)
  cpu_tuple_ms : float;  (** touching one tuple (predicate eval, copy) *)
  hash_tuple_ms : float; (** hashing/inserting one tuple into a table *)
  sort_tuple_ms : float; (** one comparison-ish unit of sort work *)
  opt_per_plan_ms : float;
  (** optimizer cost per enumerated join sub-plan; used both to charge the
      clock when the optimizer (re-)runs and to compute the paper's
      [T_opt,estimated] calibration. *)
}

val default_model : model

type t

val create : ?model:model -> unit -> t
val model : t -> model

val charge_seq_read : t -> int -> unit
val charge_rand_read : t -> int -> unit
val charge_write : t -> int -> unit
val charge_cpu_tuples : t -> int -> unit
val charge_hash_tuples : t -> int -> unit
val charge_sort_tuples : t -> int -> unit

(** Arbitrary CPU charge in milliseconds (statistics collection, optimizer
    invocations). *)
val charge_cpu_ms : t -> float -> unit

(** Charge one optimizer invocation that enumerated [plans] sub-plans; the
    charge ({!optimizer_ms}) is also recorded separately so reports can
    show re-optimization overhead. *)
val charge_optimizer : t -> plans:int -> unit

(** What {!charge_optimizer} charges for [plans] sub-plans:
    [plans * opt_per_plan_ms]. *)
val optimizer_ms : model -> plans:int -> float

val elapsed_ms : t -> float

(** Ledger breakdown, for reports and tests. *)
type counters = {
  seq_reads : int;
  rand_reads : int;
  writes : int;
  cpu_ms : float;
  opt_ms : float;
  opt_invocations : int;
}

val counters : t -> counters

(** [since t c] is the time elapsed after snapshot [c] was taken.  A
    snapshot (like [counters]) is a copy: later charges do not change it. *)
val snapshot : t -> counters
val since : t -> counters -> float

val reset : t -> unit
val pp_counters : Format.formatter -> counters -> unit
