(** Typed runtime values.

    Every cell of every tuple in the engine is a [Value.t].  Dates are
    stored as a count of days since 1970-01-01 so that range predicates on
    dates are plain integer comparisons. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | Date of int  (** days since 1970-01-01 *)

type ty = TBool | TInt | TFloat | TString | TDate

(** Total order over values.  [Null] sorts before everything; [Int] and
    [Float] compare numerically against each other, exactly (an [Int]
    past 2^53 is not rounded to a float; a NaN ranks below every number,
    as in [Float.compare]), so [equal] is an equivalence; comparing other
    cross-type pairs raises [Invalid_argument]. *)
val compare : t -> t -> int

val equal : t -> t -> bool

(** The one hash of a value: join, GROUP BY and DISTINCT keys, column
    dictionaries, distinct counters, bloom filters and exchange
    partitions all hash through it.  It agrees with [equal] ([Int 3] and
    [Float 3.0], [-0.0] and [0.0], all nans) and allocates nothing: an
    [Int] is [Hash_mix.mix] of it, as is an integral [Float] in the ints'
    range (the only floats an [Int] equals); a [Date] is its mix [lxor
    0x5bd1]; every nan is one constant; any other float is the mix of its
    bits; a [String] is [Hash_mix.string_hash]; [Null] and [Bool] are
    constants. *)
val hash : t -> int

(** [hash_payload x] is [hash (Int x)]: the one definition of that arm,
    which [hash] calls, so a caller holding an unboxed payload hashes it
    as its cell without building the box. *)
val hash_payload : int -> int

(** Type of a (non-null) value. *)
val type_of : t -> ty

(** Storage footprint in bytes, used for page-capacity and memory-demand
    accounting. *)
val byte_size : t -> int

(** Numeric view of a value ([Bool]s are 0/1, [Date]s their day number).
    Raises [Invalid_argument] on [String] and [Null]. *)
val to_float : t -> float

val is_null : t -> bool

(** [date_of_string "1994-01-01"] parses an ISO date into [Date].
    Raises [Invalid_argument] on malformed input. *)
val date_of_string : string -> t

(** Renders [Date] values back to ISO format. *)
val date_to_string : int -> string

val pp : Format.formatter -> t -> unit
val to_string : t -> string
val pp_ty : Format.formatter -> ty -> unit
val ty_to_string : ty -> string

(** Addition over numeric values; used by the aggregate operators. *)
val add : t -> t -> t

(** Minimum / maximum under [compare], treating [Null] as absent. *)
val min_value : t -> t -> t
val max_value : t -> t -> t
