(** Relation schemas.

    A schema is an ordered list of columns.  Columns are addressed either by
    position or by a (possibly qualified) name such as ["lineitem.l_qty"].
    Qualifiers are table aliases attached when a scan enters a query. *)

type column = {
  name : string;        (** bare column name, e.g. ["l_qty"] *)
  qualifier : string;   (** table/alias qualifier, [""] if none *)
  ty : Value.ty;
  avg_width : int;      (** declared average byte width, used for sizing *)
}

type t

val make : column list -> t
val columns : t -> column list
val arity : t -> int
val column : t -> int -> column

(** ["q.c"] for a column qualified by [q], the bare name when unqualified:
    the name statistics and collectors key a column by. *)
val qualified_name : column -> string

(** [qualify schema alias] sets the qualifier of every column. *)
val qualify : t -> string -> t

(** Concatenation. *)
val concat : t -> t -> t

(** [filter keep schema]: the columns [keep] accepts, in order;
    [schema] itself when it accepts every one. *)
val filter : (column -> bool) -> t -> t

(** [project schema idxs] keeps only the columns at [idxs], in order. *)
val project : t -> int list -> t

(** [split_ref "q.c"] is [("q", "c")], split at the first dot; a name
    without a dot is [("", name)]. *)
val split_ref : string -> string * string

(** Resolve a column reference.  ["q.c"] matches qualifier+name; a bare
    ["c"] matches any column with that name and raises [Ambiguous] if
    several match.  @raise Not_found if no column matches. *)
val index_of : t -> string -> int

exception Ambiguous of string

(** Average tuple width in bytes (sum of column widths + header). *)
val avg_tuple_width : t -> int

(** Column helper with a default width derived from the type (strings get
    [width] which defaults to 16). *)
val col : ?qualifier:string -> ?width:int -> string -> Value.ty -> column

val pp : Format.formatter -> t -> unit
