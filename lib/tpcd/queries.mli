(** The TPC-D benchmark queries used in the paper's evaluation (Q1, Q3,
    Q5, Q6, Q7, Q8, Q10), simplified exactly as the paper describes:
    aggregates over expressions are replaced by plain-column aggregates,
    and features Paradise lacked are dropped.  Join structure — what the
    experiments depend on — is preserved. *)

type klass = Simple | Medium | Complex

val klass_to_string : klass -> string

type query = {
  name : string;   (** e.g. "Q5" *)
  sql : string;
  joins : int;
  klass : klass;
}

val q5 : query

(** In the paper's presentation order: simple, medium, complex. *)
val all : query list

val find : string -> query
