(** External merge sort (cost model) over in-memory rows. *)

open Mqr_storage

(** Total passes over the data: 1 for the run formation (in-memory when the
    input fits) plus merge passes with fan-in [mem_pages - 1]. *)
val sort_passes : mem_pages:int -> data_pages:int -> int

type result = {
  rows : Tuple.t array;
  passes : int;
}

(** [comparator schema ~keys] orders rows by the named columns ([true] =
    ascending), first key first, then by the whole row ascending (columns
    in qualified-name order): the total order [sort] leaves.  The
    optimizer's ORDER BY keys below a projection end with the SELECT
    columns, so its last step only orders rows that project alike. *)
val comparator :
  Schema.t -> keys:(string * bool) list -> Tuple.t -> Tuple.t -> int

(** [sort ctx ~mem_pages schema ~keys rows] sorts by the named columns
    ([true] = ascending), charging comparison CPU plus a write+read of the
    whole input per merge pass. *)
val sort :
  Exec_ctx.t -> mem_pages:int -> Schema.t -> keys:(string * bool) list ->
  Tuple.t array -> result
