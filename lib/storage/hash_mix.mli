(** Cheap integer and string hashes, computed in OCaml with no C call and
    no allocation.  Join, GROUP BY and DISTINCT keys
    ([Rows_ops.key_hash]) and the per-column value dictionaries of
    {!Heap_file} hash through them. *)

(** A multiply-xorshift mix of an int's bits. *)
val mix : int -> int

(** [mix] folded over a string's bytes, eight at a time, then its tail. *)
val string_hash : string -> int
