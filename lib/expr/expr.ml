open Mqr_storage

type arith_op = Add | Sub | Mul | Div
type cmp_op = Eq | Ne | Lt | Le | Gt | Ge

type t =
  | Col of string
  | Const of Value.t
  | Arith of arith_op * t * t
  | Cmp of cmp_op * t * t
  | Between of t * t * t
  | And of t * t
  | Or of t * t
  | Not of t
  | Udf of udf

and udf = {
  udf_name : string;
  args : t list;
  fn : Value.t list -> Value.t;
  declared_selectivity : float option;
}

let col c = Col c
let int i = Const (Value.Int i)
let float f = Const (Value.Float f)
let str s = Const (Value.String s)
let ( =% ) a b = Cmp (Eq, a, b)
let ( <% ) a b = Cmp (Lt, a, b)
let ( <=% ) a b = Cmp (Le, a, b)
let ( >% ) a b = Cmp (Gt, a, b)
let ( >=% ) a b = Cmp (Ge, a, b)
let ( &&% ) a b = And (a, b)
let ( ||% ) a b = Or (a, b)

let udf ?selectivity ~name fn args =
  Udf { udf_name = name; args; fn; declared_selectivity = selectivity }

let rec columns = function
  | Col c -> [ c ]
  | Const _ -> []
  | Arith (_, a, b) | Cmp (_, a, b) | And (a, b) | Or (a, b) ->
    columns a @ columns b
  | Between (e, lo, hi) -> columns e @ columns lo @ columns hi
  | Not e -> columns e
  | Udf u -> List.concat_map columns u.args

let rec has_udf = function
  | Udf _ -> true
  | Col _ | Const _ -> false
  | Arith (_, a, b) | Cmp (_, a, b) | And (a, b) | Or (a, b) ->
    has_udf a || has_udf b
  | Between (e, lo, hi) -> has_udf e || has_udf lo || has_udf hi
  | Not e -> has_udf e

let rec conjuncts = function
  | And (a, b) -> conjuncts a @ conjuncts b
  | e -> [ e ]

let conjoin = function
  | [] -> Const (Value.Bool true)
  | e :: rest -> List.fold_left (fun acc c -> And (acc, c)) e rest

let arith_eval op a b =
  match op, a, b with
  | _, Value.Null, _ | _, _, Value.Null -> Value.Null
  | Add, x, y -> Value.add x y
  | Sub, Value.Int x, Value.Int y -> Value.Int (x - y)
  | Sub, x, y -> Value.Float (Value.to_float x -. Value.to_float y)
  | Mul, Value.Int x, Value.Int y -> Value.Int (x * y)
  | Mul, x, y -> Value.Float (Value.to_float x *. Value.to_float y)
  | Div, x, y ->
    let d = Value.to_float y in
    if d = 0.0 then Value.Null else Value.Float (Value.to_float x /. d)

let cmp_test op c =
  match op with
  | Eq -> c = 0
  | Ne -> c <> 0
  | Lt -> c < 0
  | Le -> c <= 0
  | Gt -> c > 0
  | Ge -> c >= 0

let cmp_eval op a b =
  if Value.is_null a || Value.is_null b then Value.Null
  else Value.Bool (cmp_test op (Value.compare a b))

(* [truthy (cmp_eval op a b)] without building the [Value.Bool]. *)
let cmp_holds op a b =
  (not (Value.is_null a || Value.is_null b)) && cmp_test op (Value.compare a b)

let truthy = function Value.Bool b -> b | Value.Null -> false | _ -> false

let rec compile schema e =
  match e with
  | Col c ->
    let i = Schema.index_of schema c in
    fun t -> t.(i)
  | Const v -> fun _ -> v
  | Arith (op, a, b) ->
    let fa = compile schema a and fb = compile schema b in
    fun t -> arith_eval op (fa t) (fb t)
  | Cmp (op, a, b) ->
    let fa = compile schema a and fb = compile schema b in
    fun t -> cmp_eval op (fa t) (fb t)
  | Between (e, lo, hi) ->
    let fe = compile schema e and flo = compile schema lo and fhi = compile schema hi in
    fun t ->
      let v = fe t in
      (match cmp_eval Ge v (flo t), cmp_eval Le v (fhi t) with
       | Value.Bool a, Value.Bool b -> Value.Bool (a && b)
       | _ -> Value.Null)
  | And (a, b) ->
    let fa = compile schema a and fb = compile schema b in
    fun t -> Value.Bool (truthy (fa t) && truthy (fb t))
  | Or (a, b) ->
    let fa = compile schema a and fb = compile schema b in
    fun t -> Value.Bool (truthy (fa t) || truthy (fb t))
  | Not a ->
    let fa = compile schema a in
    fun t -> Value.Bool (not (truthy (fa t)))
  | Udf u ->
    let fargs = List.map (compile schema) u.args in
    fun t -> u.fn (List.map (fun f -> f t) fargs)

(* Equal to [truthy (compile schema e t)] for every [e] and [t], Null
   quirks included ([Not] over Null is true, [Between] is false when any
   operand is Null), but boolean nodes allocate no [Value.Bool]. *)
let rec compile_pred schema e =
  match e with
  | Cmp (op, Col c, Const v) ->
    let i = Schema.index_of schema c in
    (match v with
     | Value.Null -> fun _ -> false
     | Value.Date d ->
       fun t ->
         (match t.(i) with
          | Value.Date x -> cmp_test op (Int.compare x d)
          | x -> cmp_holds op x v)
     | _ -> fun t -> cmp_holds op t.(i) v)
  | Cmp (op, a, b) ->
    let fa = compile schema a and fb = compile schema b in
    fun t -> cmp_holds op (fa t) (fb t)
  | Between (e, lo, hi) ->
    let fe = compile schema e and flo = compile schema lo and fhi = compile schema hi in
    fun t ->
      let v = fe t in
      let ge = cmp_holds Ge v (flo t) and le = cmp_holds Le v (fhi t) in
      ge && le
  | And (a, b) ->
    let pa = compile_pred schema a and pb = compile_pred schema b in
    fun t -> pa t && pb t
  | Or (a, b) ->
    let pa = compile_pred schema a and pb = compile_pred schema b in
    fun t -> pa t || pb t
  | Not a ->
    let pa = compile_pred schema a in
    fun t -> not (pa t)
  | Col _ | Const _ | Arith _ | Udf _ ->
    let f = compile schema e in
    fun t -> truthy (f t)

let resolvable schema e =
  List.for_all
    (fun c ->
       match Schema.index_of schema c with
       | (_ : int) -> true
       | exception Not_found -> false
       | exception Schema.Ambiguous _ -> false)
    (columns e)

let rec type_of schema = function
  | Col c -> (Schema.column schema (Schema.index_of schema c)).Schema.ty
  | Const v -> Value.type_of v
  | Arith (_, a, b) ->
    (match type_of schema a, type_of schema b with
     | Value.TInt, Value.TInt -> Value.TInt
     | _ -> Value.TFloat)
  | Cmp _ | Between _ | And _ | Or _ | Not _ -> Value.TBool
  | Udf _ -> Value.TBool

type shape =
  | S_col_cmp_const of string * cmp_op * Value.t
  | S_col_between of string * Value.t * Value.t
  | S_col_eq_col of string * string
  | S_col_cmp_col of cmp_op * string * string
  | S_udf of udf
  | S_other

let flip = function
  | Eq -> Eq | Ne -> Ne | Lt -> Gt | Le -> Ge | Gt -> Lt | Ge -> Le

let shape_of = function
  | Cmp (op, Col c, Const v) -> S_col_cmp_const (c, op, v)
  | Cmp (op, Const v, Col c) -> S_col_cmp_const (c, flip op, v)
  | Cmp (Eq, Col a, Col b) -> S_col_eq_col (a, b)
  | Cmp (op, Col a, Col b) -> S_col_cmp_col (op, a, b)
  | Between (Col c, Const lo, Const hi) -> S_col_between (c, lo, hi)
  | Udf u -> S_udf u
  | _ -> S_other

let cmp_sql = function
  | Eq -> "=" | Ne -> "<>" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="

let arith_sql = function Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/"

let sql_value v =
  match v with
  | Value.String s -> "'" ^ s ^ "'"
  | Value.Date d -> "date '" ^ Value.date_to_string d ^ "'"
  | Value.Bool b -> if b then "true" else "false"
  | v -> Value.to_string v

let rec to_sql = function
  | Col c -> c
  | Const v -> sql_value v
  | Arith (op, a, b) -> Printf.sprintf "(%s %s %s)" (to_sql a) (arith_sql op) (to_sql b)
  | Cmp (op, a, b) -> Printf.sprintf "%s %s %s" (to_sql a) (cmp_sql op) (to_sql b)
  | Between (e, lo, hi) ->
    Printf.sprintf "%s between %s and %s" (to_sql e) (to_sql lo) (to_sql hi)
  | And (a, b) -> Printf.sprintf "(%s and %s)" (to_sql a) (to_sql b)
  | Or (a, b) -> Printf.sprintf "(%s or %s)" (to_sql a) (to_sql b)
  | Not a -> Printf.sprintf "(not %s)" (to_sql a)
  | Udf u ->
    Printf.sprintf "%s(%s)" u.udf_name
      (String.concat ", " (List.map to_sql u.args))
