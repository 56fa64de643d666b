(** Execution context shared by all operators: the simulated clock that
    accumulates I/O and CPU charges, the buffer pool page accesses are
    routed through, and the scratch its operators borrow their large
    transient buffers from.

    {2 Scratch}

    An engine owns one {!scratch} and hands it to every run's context
    ({!create}) and, through that context, to every parallel worker's
    ({!worker}).  One lifetime rule holds for everything borrowed from
    it: a buffer lives until the end of the dispatcher step that borrowed
    it.  The dispatcher is the only caller of {!release}, at the end of
    each step (a unit or the final stack) and when it tears a run down;
    a run's own buffer pool goes back with [release ~last:true], when
    the run completes or is torn down.  So no operator output, leaf or
    table that holds a borrowed buffer may outlive the step: an executed
    unit's rows are gathered into its temp table, and a run's result
    rows into its report, before the step ends.

    What comes back is kept for the next borrower, up to a fixed cap
    (four buffers of each power-of-two size class, four buffer pools of
    each power-of-two class of capacity, 8 MB in all); the rest is left to the GC.  Requests
    under 256 words are allocated afresh on the minor heap and never
    tracked.  A context made without a scratch allocates every buffer
    afresh, and its {!release} does nothing. *)

open Mqr_storage

(** An engine's pool of step-lived buffers and buffer pools. *)
type scratch

(** An empty scratch. *)
val scratch : unit -> scratch

type t = private {
  clock : Sim_clock.t;
  pool : Buffer_pool.t;
  scratch : scratch option;
  mutable owns_pool : bool;
}

(** [create ?scratch ?pool_pages ()] is a run's context: a fresh clock
    and a buffer pool of [pool_pages] pages (default 1024) that behaves
    as a new one: taken from [scratch] and reset to that capacity when
    it keeps one of its class ({!Mqr_storage.Buffer_pool.reset}), and
    held until [release ~last:true]. *)
val create : ?scratch:scratch -> ?pool_pages:int -> unit -> t

(** [worker t ~pool_pages] is a parallel worker's context: a fresh clock,
    [t]'s scratch, and a fresh-behaving buffer pool of [pool_pages] pages
    borrowed for the step. *)
val worker : t -> pool_pages:int -> t

(** [bytes t n] is a buffer of at least [n] bytes, contents unspecified,
    borrowed for the step. *)
val bytes : t -> int -> Bytes.t

(** [ints t n] is an int array of at least [n] elements (a power of two
    when borrowed), contents unspecified, borrowed for the step. *)
val ints : t -> int -> int array

(** [release ?last t] ends a step: every buffer and worker pool lent from
    [t]'s scratch since the last release goes back to it (so [t]'s and
    any other context's borrowings of that scratch: the dispatcher steps
    one run at a time), and with [~last:true] also [t]'s own buffer pool,
    once.  With the scratch poisoned, released bytes are filled with
    [0xff], so a position read from them is [-1], and released int
    arrays with [-1].  Called only by the dispatcher. *)
val release : ?last:bool -> t -> unit

(** [poison t] makes every later release of [t]'s scratch poison what it
    takes back: the sanitizer's switch, so a leaf that outlived its step
    fails loudly.  No-op without a scratch. *)
val poison : t -> unit

(** Bytes the scratch keeps for later borrowers; never above its cap. *)
val retained_bytes : scratch -> int

(** Buffers and worker pools lent since the last release. *)
val lent : scratch -> int

(** Pages needed to hold [bytes]. *)
val pages_of_bytes : int -> int

(** Simulated time so far. *)
val elapsed_ms : t -> float
