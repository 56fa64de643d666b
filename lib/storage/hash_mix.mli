(** Cheap integer and string hashes, computed in OCaml with no C call and
    no allocation: the mixes {!Value.hash}, the engine's one value hash,
    is built from. *)

(** A multiply-xorshift mix of an int's bits. *)
val mix : int -> int

(** [mix] folded over a string's bytes, eight at a time, then its tail. *)
val string_hash : string -> int
