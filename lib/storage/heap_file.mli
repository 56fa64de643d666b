(** Heap files: the engine's table storage.

    Tuples are kept in an in-memory growable array divided into fixed-size
    logical pages; page accesses are routed through a {!Buffer_pool} and
    charged to a {!Sim_clock}, so scans and fetches cost what they would on
    disk.  The number of tuples per page is derived from the schema's
    average tuple width and a 4 KB page.

    Every array of rows this module hands out ([rows], [read], and the
    array [of_rows] adopted) is never written again: [append] writes only
    past the end of an array it has not handed out, and [retain] builds a
    fresh one.  Operators rely on it, and never write their input arrays
    either, so a scan can return the file's own storage.

    A file from [create] also numbers each column's distinct values: a
    value's code is fixed when it is first appended (1, 2, ... in
    first-seen order; [Null] is 0), and every row keeps its cell's code
    in 2 bytes, for as long as the column's dictionary is kept (see
    [append]).  The same invariant holds: the codes of rows already
    handed out are never written again, since [append] writes only the
    new rid's code and [retain] builds fresh code arrays.  The executor
    reads them at one place, the leaf of a scan ([Mqr_exec.Leaf]: a
    full, striped or index scan), together with [rows] at that moment,
    and hands them on only with those rows; ANALYZE
    ([Mqr_catalog.Catalog.analyze_table]) counts them beside the rows of
    the same moment.

    A column whose dictionary was dropped keeps, instead, each row's
    payload in an unboxed [int] array, as long as every cell it holds is
    a non-null [Int], or in a [floatarray], as long as every cell is a
    non-null [Float]: the array is built from the rows when the
    dictionary drops, extended by [append], compacted by [retain] beside
    the codes, and dropped for good by the first [Null] or other
    constructor appended (or a tuple without the cell).  So a column has
    codes, Int payloads, Float payloads or none ([view]); a [Date]
    column past the limit keeps none.  The same invariant holds for
    payloads, which the executor reads at the same place as the
    codes. *)

type t

(** Globally unique id, used as the buffer-pool file id. *)
val file_id : t -> int

val page_size_bytes : int

val create : Schema.t -> t

(** [of_rows schema rows] is a file holding [rows] in rid order, the same
    file [create] followed by one [append] per row would build, except
    that it shares no boxes and has no codes: it adopts [rows] as its
    storage instead of copying it, and has no dictionaries, so it never
    interns. *)
val of_rows : Schema.t -> Tuple.t array -> t
val schema : t -> Schema.t

(** [append t tuple] adds [tuple] at the next rid.  Each non-null cell
    passes through its column's dictionary, if the file has one: a cell with
    the same constructor and bits as one appended before (floats by
    [Int64.bits_of_float], so [-0.0] and [0.0] and nans of different
    payloads stay apart; [Int 3], [Float 3.0] and [Date 3] too) is
    replaced, in [tuple], by that first box, so a column's repeats share
    one box, and the row keeps that value's code.  A column's dictionary
    and its codes are dropped once it holds 4096 values, [Distinct]'s
    exact limit (or when a tuple has no cell for the column); later cells
    are stored as given.  If every cell then is a non-null [Int], the
    column keeps their payloads ([Ints] of [view]) from that row on,
    until a cell of another kind arrives; if every one is a non-null
    [Float], it keeps their floats ([Floats]) likewise. *)
val append : t -> Tuple.t -> unit

val tuple_count : t -> int

(** Every tuple in rid order, without I/O accounting: the file's own
    storage, trimmed to its length on the first call after an [append] or
    a [retain].  The caller must not mutate the array. *)
val rows : t -> Tuple.t array

(** Whether [rows] is the file's own storage (what [rows] returns).  An
    engine that hands a result outside copies it first. *)
val owns : t -> Tuple.t array -> bool
val page_count : t -> int
val tuples_per_page : t -> int

(** Direct access without I/O accounting (tests, statistics bootstrap). *)
val get : t -> int -> Tuple.t

(** [fetch t ~pool ~clock rid] reads the tuple's page through the buffer
    pool, charging a random read on a miss. *)
val fetch : t -> pool:Buffer_pool.t -> clock:Sim_clock.t -> int -> Tuple.t

(** [iter t f] iterates without any cost accounting. *)
val iter : t -> (int -> Tuple.t -> unit) -> unit

(** [charge_scan t ~pool ~clock ~from_rid ~to_rid] charges what reading
    the tuples at rids [from_rid, to_rid) (clipped to the file) costs: it
    touches each page the range overlaps, in order, charging a sequential
    read per miss, then the CPU of every tuple of the range at once.  It
    is the one page-charging loop of a scan: [Leaf.scan] charges the
    whole file, a striped parallel scan one range per worker, and both
    then hand on [rows t] itself, so no scan copies a row. *)
val charge_scan :
  t -> pool:Buffer_pool.t -> clock:Sim_clock.t -> from_rid:int -> to_rid:int ->
  unit

(** [read t ~pool ~clock ~from_rid ~to_rid] is [charge_scan] followed by
    the tuples of the range in rid order: [rows t] when the range covers
    the file, else a fresh array. *)
val read :
  t -> pool:Buffer_pool.t -> clock:Sim_clock.t -> from_rid:int -> to_rid:int ->
  Tuple.t array

(** [retain t keep] replaces the storage by a fresh array of exactly the
    tuples satisfying [keep] ([keep] runs once per tuple, in rid order,
    before anything moves); returns how many were deleted.  Arrays read
    before are untouched.  Rids are reassigned, so any index on the table
    must be rebuilt afterwards; the kept rows' codes and payloads move to
    fresh arrays.  When [keep] holds for every tuple, nothing moves:
    [rows t], the codes and the payloads stay the same arrays. *)
val retain : t -> (Tuple.t -> bool) -> int

(** A number that every [append], and every [retain] that deletes a
    row, increases: two reads of the file at the same generation see
    the same rows, codes and payloads.  A result computed from every row
    of the file (a collector's summary of a column) is still valid while
    the generation it was computed at is current. *)
val generation : t -> int

(** A column's codes for a sequence of rows.  Equal codes mean cells of
    the same constructor and bits. *)
type codes

(** [codes t col] is column [col]'s codes by rid, for the rows [rows t]
    returns now, or [None] when the column has no dictionary: the
    [Codes] case of [view t col]. *)
val codes : t -> int -> codes option

(** [code c r] is the code of the [r]th row. *)
val code : codes -> int -> int

(** Every code is below [code_count c]. *)
val code_count : codes -> int

(** [code_box c k] is the box of code [k > 0], below [code_count c]: the
    first value appended with that code, which every row holding the code
    shares.  A code may outlive its rows: a [retain] that deletes them
    keeps it in the dictionary. *)
val code_box : codes -> int -> Value.t

(** Whether a [Null] had been appended to the column when [codes] was
    read: the dictionary sets the flag at the first one and never clears
    it, not even when a [retain] deletes every null.  When it is false,
    no row of [c] has code 0, so every row holds one of the codes [1 ..
    code_count c - 1]. *)
val null_seen : codes -> bool

(** A column's payloads for a sequence of rows: each row's [Int] as an
    unboxed [int]. *)
type payloads

(** [payload p r] is the payload of the [r]th row. *)
val payload : payloads -> int -> int

(** A column's [Float] payloads for a sequence of rows: each row's float,
    unboxed, bit for bit (both zeros and every nan payload kept). *)
type float_payloads

(** [float_payload f r] is the float of the [r]th row. *)
val float_payload : float_payloads -> int -> float

(** What a column keeps beside its cells: exactly one of its codes, its
    [Int] payloads, its [Float] payloads, or nothing. *)
type view =
  | Codes of codes
  | Ints of payloads
  | Floats of float_payloads
  | Plain

(** [view t col] is what column [col] keeps, by rid, for the rows
    [rows t] returns now: [Codes] while it has a dictionary; [Ints] or
    [Floats] once the dictionary dropped, while every cell is a non-null
    [Int] or a non-null [Float]; else, for good
    once a [Null] or a cell of another constructor was appended, and for
    a column past the file's arity, [Plain]. *)
val view : t -> int -> view
