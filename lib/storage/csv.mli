(** Minimal RFC-4180-style CSV reading and writing.

    Fields containing commas, quotes or newlines are quoted; quotes are
    doubled.  Used by the COPY statement. *)

val encode_line : string list -> string

(** @raise Failure on malformed quoting. *)
val decode_line : string -> string list

val write_file : string -> string list list -> unit

(** Reads the whole file; handles quoted fields spanning lines. *)
val read_file : string -> string list list
