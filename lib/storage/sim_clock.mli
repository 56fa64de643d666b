(** Simulated execution clock and the rate card it charges at.

    The paper reports wall-clock times on a Paradise cluster.  We replace
    the cluster with a deterministic cost ledger: every operator charges the
    clock for the page I/Os and per-tuple CPU work it performs, and the
    "execution time" of a query is the ledger total.  The optimizer uses
    the same rates for its estimates, so estimation error comes only from
    cardinality/selectivity mistakes — exactly the error source the paper
    studies.

    The ledger counts integers: pages read and written, and CPU and
    optimizer time in ticks of 1e-4 ms.  Every rate below is a whole
    number of ticks, so a charge adds an exact integer, and
    {!charge_cpu_ms}, the one charge given in milliseconds, rounds to the
    nearest tick.  The total converts to milliseconds once, when read.
    So the ledger does not depend on the order of its charges, and a
    caller may batch them: one charge of [n] tuples is [n] charges of one.
    Charges update the ledger in place and allocate nothing.

    {2 The rate card}

    Every simulated price is one of the thirteen constants below, and none
    is defined anywhere else.  The executor charges them; the optimizer's
    [Cost_model], Eq. 1's [T_opt,estimated] calibration, the statistics
    collectors' budget and [Bounds]' cost intervals price with them.  So
    Eq. 1, Eq. 2 and the bound-checked switch compare work priced at one
    set of rates, as the paper's single price list intends.  The rates are
    constants rather than a parameter: a run never priced at other rates,
    and a rate record passed through every layer only left room for the
    estimate and the charge to read different ones. *)

(** Page I/O: a sequential read, a random read (index probes), a write. *)
val seq_read_ms : float
val rand_read_ms : float
val write_ms : float

(** Per-tuple CPU: touching a tuple (predicate evaluation, copy), hashing
    or inserting it into a hash table, one comparison-ish unit of sort
    work. *)
val cpu_tuple_ms : float
val hash_tuple_ms : float
val sort_tuple_ms : float

(** Optimizer cost per enumerated join sub-plan: charged when the
    optimizer (re-)runs, and the unit of the paper's [T_opt,estimated]. *)
val opt_per_plan_ms : float

(** A statistics collector's work per tuple: its always-on counters, and
    each histogram or distinct-count statistic it tracks. *)
val collect_base_tuple_ms : float
val collect_stat_tuple_ms : float

(** A parallel operator's fee per extra worker (forking the closure and
    folding its results back in) and per page it exchanges. *)
val parallel_startup_ms : float
val exchange_ms_per_page : float

(** A runtime join filter's work per build-side tuple and per probe-side
    tuple tested; a probe is cheaper than a hash-table probe, since no
    tuple is copied and no bucket chain is walked. *)
val rf_build_tuple_ms : float
val rf_probe_tuple_ms : float

(** {2 Kept for the frozen benchmark}

    bench/perf passes [Dispatcher.config]'s [model] field to
    [Optimizer.optimize ?model].  Those two names and this type survive
    only so that it still compiles; nothing in lib reads any of them. *)

type model

(** The only value of {!model}. *)
val default_model : model

(** {2 The ledger} *)

type t

val create : unit -> t

val charge_seq_read : t -> int -> unit
val charge_rand_read : t -> int -> unit
val charge_write : t -> int -> unit
val charge_cpu_tuples : t -> int -> unit
val charge_hash_tuples : t -> int -> unit
val charge_sort_tuples : t -> int -> unit

(** CPU charge in milliseconds, rounded to the nearest tick: statistics
    collection, runtime filters, exchange and parallel startup, each a
    whole number of ticks. *)
val charge_cpu_ms : t -> float -> unit

(** [absorb t w] adds every count of ledger [w] to [t], so a parallel
    operator's slowest worker's pages stay pages in the parent. *)
val absorb : t -> t -> unit

(** Charge one optimizer invocation that enumerated [plans] sub-plans; the
    charge ({!optimizer_ms}) is also recorded separately so reports can
    show re-optimization overhead. *)
val charge_optimizer : t -> plans:int -> unit

(** What {!charge_optimizer} charges for [plans] sub-plans:
    [plans * opt_per_plan_ms]. *)
val optimizer_ms : plans:int -> float

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

(** [since t s] is the time elapsed after snapshot [s] was taken.  A
    snapshot is a copy of the ledger: later charges do not change it. *)
val snapshot : t -> t
val since : t -> t -> float

val pp_counters : Format.formatter -> counters -> unit
