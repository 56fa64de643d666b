type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | Date of int

type ty = TBool | TInt | TFloat | TString | TDate

(* [x] against [y] exactly: a NaN ranks below every number, as
   [Float.compare] has it; a [y] beyond the ints' range lies beyond every
   [x]; else [x] against [y]'s integral part, then the sign of its
   fraction, both exact. *)
let compare_int_float x y =
  if Float.is_nan y then 1
  else if y >= 0x1p62 then -1
  else if y < -0x1p62 then 1
  else
    let t = Float.to_int y in
    match Int.compare x t with
    | 0 -> Float.compare 0.0 (y -. Float.of_int t)
    | c -> c

let compare a b =
  match a, b with
  | Null, Null -> 0
  | Null, _ -> -1
  | _, Null -> 1
  | Bool x, Bool y -> Bool.compare x y
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Int x, Float y -> compare_int_float x y
  | Float x, Int y -> - compare_int_float y x
  | String x, String y -> String.compare x y
  | Date x, Date y -> Int.compare x y
  | (Bool _ | Int _ | Float _ | String _ | Date _), _ ->
    invalid_arg "Value.compare: incompatible types"

let equal a b =
  match a, b with
  | Int x, Int y | Date x, Date y -> x = y
  | String x, String y -> String.equal x y
  | Null, Null -> true
  | Null, _ | _, Null -> false
  | _ -> compare a b = 0

let[@inline] hash_payload x = Hash_mix.mix x

let hash v =
  match v with
  | Null -> 0x2f1d
  | Bool b -> if b then 0x4a3 else 0x7c5
  | Int i -> hash_payload i
  | Float f when Float.is_integer f && f >= -0x1p62 && f < 0x1p62 ->
    hash_payload (Float.to_int f)
  | Float f when Float.is_nan f -> 0x6e1b
  | Float f -> Hash_mix.mix (Int64.to_int (Int64.bits_of_float f))
  | String s -> Hash_mix.string_hash s
  | Date d -> Hash_mix.mix d lxor 0x5bd1

let type_of = function
  | Null -> invalid_arg "Value.type_of: Null"
  | Bool _ -> TBool
  | Int _ -> TInt
  | Float _ -> TFloat
  | String _ -> TString
  | Date _ -> TDate

let byte_size = function
  | Null -> 1
  | Bool _ -> 1
  | Int _ -> 8
  | Float _ -> 8
  | String s -> 4 + String.length s
  | Date _ -> 4

let to_float = function
  | Int i -> float_of_int i
  | Float f -> f
  | Bool b -> if b then 1.0 else 0.0
  | Date d -> float_of_int d
  | Null -> invalid_arg "Value.to_float: Null"
  | String _ -> invalid_arg "Value.to_float: String"

let is_null = function Null -> true | _ -> false

(* Civil-date arithmetic (proleptic Gregorian), Howard Hinnant's algorithm. *)
let days_from_civil ~y ~m ~d =
  let y = if m <= 2 then y - 1 else y in
  let era = (if y >= 0 then y else y - 399) / 400 in
  let yoe = y - era * 400 in
  let mp = (m + 9) mod 12 in
  let doy = (153 * mp + 2) / 5 + d - 1 in
  let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy in
  era * 146097 + doe - 719468

let civil_from_days z =
  let z = z + 719468 in
  let era = (if z >= 0 then z else z - 146096) / 146097 in
  let doe = z - era * 146097 in
  let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365 in
  let y = yoe + era * 400 in
  let doy = doe - (365 * yoe + yoe / 4 - yoe / 100) in
  let mp = (5 * doy + 2) / 153 in
  let d = doy - (153 * mp + 2) / 5 + 1 in
  let m = if mp < 10 then mp + 3 else mp - 9 in
  let y = if m <= 2 then y + 1 else y in
  (y, m, d)

(* The decimal digits s.[i .. j-1] as an int, or -1 at any other byte. *)
let rec digits s i j acc =
  if i = j then acc
  else
    match s.[i] with
    | '0' .. '9' as c -> digits s (i + 1) j ((10 * acc) + Char.code c - Char.code '0')
    | _ -> -1

let date_of_parts s ~y ~m ~d =
  if m < 1 || m > 12 || d < 1 || d > 31 then
    invalid_arg ("Value.date_of_string: " ^ s)
  else Date (days_from_civil ~y ~m ~d)

(* A canonical yyyy-mm-dd is read in place, with the value the split
   below gives it; anything else is split on '-'. *)
let date_of_string s =
  let canonical = String.length s = 10 && s.[4] = '-' && s.[7] = '-' in
  let y = if canonical then digits s 0 4 0 else -1 in
  let m = if y >= 0 then digits s 5 7 0 else -1 in
  let d = if m >= 0 then digits s 8 10 0 else -1 in
  if d >= 0 then date_of_parts s ~y ~m ~d
  else
    match String.split_on_char '-' s with
    | [ ys; ms; ds ] ->
      (match int_of_string ys, int_of_string ms, int_of_string ds with
       | y, m, d -> date_of_parts s ~y ~m ~d
       | exception Failure _ -> invalid_arg ("Value.date_of_string: " ^ s))
    | _ -> invalid_arg ("Value.date_of_string: " ^ s)

let date_to_string days =
  let y, m, d = civil_from_days days in
  Printf.sprintf "%04d-%02d-%02d" y m d

let pp fmt = function
  | Null -> Fmt.string fmt "NULL"
  | Bool b -> Fmt.bool fmt b
  | Int i -> Fmt.int fmt i
  | Float f -> Fmt.pf fmt "%.4f" f
  | String s -> Fmt.pf fmt "%s" s
  | Date d -> Fmt.string fmt (date_to_string d)

let to_string v = Fmt.str "%a" pp v

let pp_ty fmt ty =
  Fmt.string fmt
    (match ty with
     | TBool -> "BOOL"
     | TInt -> "INT"
     | TFloat -> "FLOAT"
     | TString -> "STRING"
     | TDate -> "DATE")

let ty_to_string ty = Fmt.str "%a" pp_ty ty

let add a b =
  match a, b with
  | Null, v | v, Null -> v
  | Int x, Int y -> Int (x + y)
  | Float x, Float y -> Float (x +. y)
  | Int x, Float y | Float y, Int x -> Float (float_of_int x +. y)
  | _ -> invalid_arg "Value.add: non-numeric"

let min_value a b =
  match a, b with
  | Null, v | v, Null -> v
  | _ -> if compare a b <= 0 then a else b

let max_value a b =
  match a, b with
  | Null, v | v, Null -> v
  | _ -> if compare a b >= 0 then a else b
