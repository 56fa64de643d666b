(** Structured findings of the plan verifier.

    Every analysis pass reports through this type: a stable
    machine-readable code (tests match on it), a severity, the plan node
    the finding is anchored to together with the operator path from the
    root, a human message, and — where the pass knows one — a fixit
    hint. *)

type severity =
  | Error    (** the plan must not execute *)
  | Warning  (** suspicious but runnable *)
  | Info

type t = {
  code : string;       (** stable code, e.g. ["SCH-COLREF"] *)
  severity : severity;
  pass_name : string;  (** the pass that produced the finding *)
  node_id : int;       (** anchoring plan node *)
  path : string list;  (** operator names, root first, down to the node *)
  message : string;
  hint : string option;  (** suggested fix *)
}

val error :
  pass:string -> code:string -> ?hint:string -> node_id:int ->
  path:string list -> string -> t

val warning :
  pass:string -> code:string -> ?hint:string -> node_id:int ->
  path:string list -> string -> t

val is_error : t -> bool

(** Only the [Error]-severity findings. *)
val errors : t list -> t list

val warnings : t list -> t list

val severity_to_string : severity -> string

(** Orders by severity (errors first), then node id, then code. *)
val compare : t -> t -> int

val pp : Format.formatter -> t -> unit

(** Multi-line rendering of a finding list plus a one-line tally. *)
val pp_report : Format.formatter -> t list -> unit
