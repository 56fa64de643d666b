module Value = Mqr_storage.Value

type t = {
  mutable lo : Value.t;  (* Null until the first non-null value *)
  mutable hi : Value.t;
  mutable nulls : int;
  distincts : Distinct.t array;
  mutable payloads : bool;  (* fed through [add_payload]: the range is [ilo], [ihi] *)
  mutable date : bool;
  mutable ilo : int;
  mutable ihi : int;
}

let create ?(distincts = []) () =
  { lo = Value.Null;
    hi = Value.Null;
    nulls = 0;
    distincts = Array.of_list distincts;
    payloads = false;
    date = false;
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
    for k = 0 to Array.length t.distincts - 1 do
      Distinct.add t.distincts.(k) v
    done

let add_payload t ~date x =
  if not t.payloads then begin
    t.payloads <- true;
    t.date <- date;
    t.ilo <- x;
    t.ihi <- x
  end
  else begin
    if x < t.ilo then t.ilo <- x;
    if x > t.ihi then t.ihi <- x
  end;
  if Array.length t.distincts > 0 then begin
    let h = Value.hash_payload ~date x in
    for k = 0 to Array.length t.distincts - 1 do
      Distinct.add_hash t.distincts.(k) h
    done
  end

let nulls t = t.nulls

let range t =
  if t.payloads then
    let box x = if t.date then Value.Date x else Value.Int x in
    Some (box t.ilo, box t.ihi)
  else if Value.is_null t.lo then None
  else Some (t.lo, t.hi)
