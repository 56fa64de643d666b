module Value = Mqr_storage.Value

type t = {
  mutable lo : Value.t;  (* Null until the first non-null value *)
  mutable hi : Value.t;
  mutable nulls : int;
  distinct : Distinct.t option;
  mutable payloads : bool;  (* fed through [add_payload]: the range is [ilo], [ihi] *)
  mutable ilo : int;
  mutable ihi : int;
}

let create ?distinct () =
  { lo = Value.Null;
    hi = Value.Null;
    nulls = 0;
    distinct;
    payloads = false;
    ilo = 0;
    ihi = 0 }

(* [Value.compare a b < 0] *)
let[@inline] before a b =
  match a, b with
  | Value.Int x, Value.Int y | Value.Date x, Value.Date y -> x < y
  | Value.Float x, Value.Float y -> Float.compare x y < 0
  | Value.String x, Value.String y -> String.compare x y < 0
  | _ -> Value.compare a b < 0

let add t v =
  match v with
  | Value.Null -> t.nulls <- t.nulls + 1
  | _ ->
    (match t.lo with
     | Value.Null ->
       t.lo <- v;
       t.hi <- v
     | lo ->
       if before v lo then t.lo <- v;
       if before t.hi v then t.hi <- v);
    Option.iter (fun d -> Distinct.add d v) t.distinct

let add_payload t x =
  if not t.payloads then begin
    t.payloads <- true;
    t.ilo <- x;
    t.ihi <- x
  end
  else begin
    if x < t.ilo then t.ilo <- x;
    if x > t.ihi then t.ihi <- x
  end;
  match t.distinct with
  | Some d -> Distinct.add_hash d (Value.hash_payload x)
  | None -> ()

let nulls t = t.nulls

let range t =
  if t.payloads then Some (Value.Int t.ilo, Value.Int t.ihi)
  else if Value.is_null t.lo then None
  else Some (t.lo, t.hi)
