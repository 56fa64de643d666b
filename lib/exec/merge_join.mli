(** Sort-merge join.

    Sorts both inputs on the join keys (external-sort cost model, the
    grant split between the two sorts) and merges, pairing duplicate key
    groups with a block-nested inner loop.  Preferable to hash join when
    memory is very tight or the inputs are pre-sorted; the optimizer
    considers it as a third join alternative. *)

open Mqr_storage

type result = {
  rows : Tuple.t array;
  schema : Schema.t;  (** [out]: left columns then right columns *)
  left_passes : int;
  right_passes : int;
}

(** [merge_join ctx ~mem_pages ~left ~right ~keys ~extra ()] joins on the
    equality of the column pairs [keys] (left column, right column);
    [extra] is a residual predicate over the output, whose schema is
    [out] as in {!Join}.  Rows
    with NULL key values never match.  [left_sorted]/[right_sorted] declare
    an input already ordered on its key columns (e.g. an index scan or a
    lower merge join), skipping that side's sort entirely — the payoff of
    interesting orders. *)
val merge_join :
  Exec_ctx.t -> mem_pages:int ->
  ?left_sorted:bool -> ?right_sorted:bool ->
  left:Tuple.t array * Schema.t -> right:Tuple.t array * Schema.t ->
  keys:(string * string) list -> ?extra:Mqr_expr.Expr.t -> ?out:Schema.t ->
  unit -> result
