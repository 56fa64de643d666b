(** Heap files: the engine's table storage.

    Tuples are kept in an in-memory growable array divided into fixed-size
    logical pages; page accesses are routed through a {!Buffer_pool} and
    charged to a {!Sim_clock}, so scans and fetches cost what they would on
    disk.  The number of tuples per page is derived from the schema's
    average tuple width and a 4 KB page. *)

type t

(** Globally unique id, used as the buffer-pool file id. *)
val file_id : t -> int

val page_size_bytes : int

val create : Schema.t -> t

(** [of_rows schema rows] is a file holding [rows] in rid order, the same
    file [create] followed by one [append] per row would build.  It adopts
    [rows] as its storage instead of copying it. *)
val of_rows : Schema.t -> Tuple.t array -> t
val schema : t -> Schema.t

val append : t -> Tuple.t -> unit

val tuple_count : t -> int

(** Every tuple in rid order, without I/O accounting.  No copy when the
    storage is exactly full (always for a file from [of_rows]), so the
    caller must not mutate the array. *)
val rows : t -> Tuple.t array
val page_count : t -> int
val tuples_per_page : t -> int

(** Direct access without I/O accounting (tests, statistics bootstrap). *)
val get : t -> int -> Tuple.t

(** [fetch t ~pool ~clock rid] reads the tuple's page through the buffer
    pool, charging a random read on a miss. *)
val fetch : t -> pool:Buffer_pool.t -> clock:Sim_clock.t -> int -> Tuple.t

(** [iter t f] iterates without any cost accounting. *)
val iter : t -> (int -> Tuple.t -> unit) -> unit

(** [read t ~pool ~clock ~from_rid ~to_rid] returns a fresh array of the
    tuples at rids [from_rid, to_rid) (clipped to the file), in rid order.
    It touches each page the range overlaps, in order, charging a
    sequential read per miss, then CPU once per tuple of the range on that
    page.  [Scan.seq_scan] reads the whole file; a striped parallel scan
    reads one range per worker. *)
val read :
  t -> pool:Buffer_pool.t -> clock:Sim_clock.t -> from_rid:int -> to_rid:int ->
  Tuple.t array

(** [retain t keep] compacts the file, keeping only tuples satisfying
    [keep]; returns how many were deleted.  Rids are reassigned, so any
    index on the table must be rebuilt afterwards. *)
val retain : t -> (Tuple.t -> bool) -> int
