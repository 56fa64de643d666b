(* A column's dictionary: every distinct value appended to it so far, by
   open addressing with linear probing ([Null] marks an empty slot) at
   most half full.  [keys = [||]] once it was dropped. *)
type dict = { mutable keys : Value.t array; mutable size : int }

type t = {
  id : int;
  schema : Schema.t;
  mutable data : Tuple.t array;
  mutable len : int;
  per_page : int;
  mutable dicts : dict array;  (* per column; [||] until the first append *)
}

let page_size_bytes = 4096

(* [Distinct]'s exact limit: a column with more distinct values than this
   is not worth a dictionary. *)
let dict_limit = 4096

let next_id = ref 0

let fresh_id () =
  incr next_id;
  !next_id

let adopt schema data len =
  let width = max 1 (Schema.avg_tuple_width schema) in
  let per_page = max 1 (page_size_bytes / width) in
  { id = fresh_id (); schema; data; len; per_page; dicts = [||] }

let create schema = adopt schema (Array.make 64 [||]) 0
let of_rows schema rows = adopt schema rows (Array.length rows)

let file_id t = t.id
let schema t = t.schema
let tuples_per_page t = t.per_page

(* Same constructor, same bits: a float by its bit pattern, so -0.0 and
   0.0, and nans of different payloads, stay apart. *)
let same (a : Value.t) (b : Value.t) =
  match a, b with
  | Int x, Int y | Date x, Date y -> x = y
  | Float x, Float y -> Int64.bits_of_float x = Int64.bits_of_float y
  | String x, String y -> String.equal x y
  | Bool x, Bool y -> x = y
  | _ -> false

let exact_hash (v : Value.t) =
  match v with
  | Null -> 0
  | Bool b -> if b then 1 else 2
  | Int i -> Hash_mix.mix i
  | Date d -> Hash_mix.mix d lxor 0x5bd1
  | Float f -> Hash_mix.mix (Int64.to_int (Int64.bits_of_float f))
  | String s -> Hash_mix.string_hash s

(* The slot holding [v]'s value, or the empty slot where it belongs. *)
let slot keys v =
  let mask = Array.length keys - 1 in
  let i = ref (exact_hash v land mask) in
  while keys.(!i) != Value.Null && not (same keys.(!i) v) do
    i := (!i + 1) land mask
  done;
  !i

(* The first box stored for [v]'s value, or [v] itself as that box. *)
let intern d v =
  let i = slot d.keys v in
  match d.keys.(i) with
  | Value.Null ->
    d.keys.(i) <- v;
    d.size <- d.size + 1;
    if d.size = dict_limit then d.keys <- [||]
    else if 2 * d.size > Array.length d.keys then begin
      let old = d.keys in
      d.keys <- Array.make (2 * Array.length old) Value.Null;
      Array.iter
        (fun k -> if k != Value.Null then d.keys.(slot d.keys k) <- k)
        old
    end;
    v
  | k -> k

let append t tuple =
  if Array.length t.dicts = 0 then
    t.dicts <-
      Array.init (Schema.arity t.schema) (fun _ ->
          { keys = Array.make 16 Value.Null; size = 0 });
  for i = 0 to min (Array.length tuple) (Array.length t.dicts) - 1 do
    let d = t.dicts.(i) and v = tuple.(i) in
    if Array.length d.keys > 0 && v != Value.Null then begin
      let w = intern d v in
      if w != v then tuple.(i) <- w
    end
  done;
  if t.len = Array.length t.data then begin
    let bigger = Array.make (max 64 (2 * t.len)) [||] in
    Array.blit t.data 0 bigger 0 t.len;
    t.data <- bigger
  end;
  t.data.(t.len) <- tuple;
  t.len <- t.len + 1

let tuple_count t = t.len

(* Trimming makes the storage exactly full, so the next [append] moves to
   a bigger array: an array once returned is never written again. *)
let rows t =
  if t.len < Array.length t.data then t.data <- Array.sub t.data 0 t.len;
  t.data

let owns t rows = rows == t.data
let page_count t = (t.len + t.per_page - 1) / t.per_page

let get t rid =
  if rid < 0 || rid >= t.len then invalid_arg "Heap_file.get: bad rid";
  t.data.(rid)

let fetch t ~pool ~clock rid =
  let page = rid / t.per_page in
  if not (Buffer_pool.access pool ~file:t.id ~page) then
    Sim_clock.charge_rand_read clock 1;
  Sim_clock.charge_cpu_tuples clock 1;
  get t rid

let read t ~pool ~clock ~from_rid ~to_rid =
  let hi = max 0 (min t.len to_rid) in
  let lo = max 0 (min from_rid hi) in
  (* each page the range overlaps, in order: its read, then a CPU charge
     per tuple of the range on it *)
  if lo < hi then
    for page = lo / t.per_page to (hi - 1) / t.per_page do
      if not (Buffer_pool.access pool ~file:t.id ~page) then
        Sim_clock.charge_seq_read clock 1;
      let stop = min hi ((page + 1) * t.per_page) in
      for _ = max lo (page * t.per_page) to stop - 1 do
        Sim_clock.charge_cpu_tuples clock 1
      done
    done;
  if lo = 0 && hi = t.len then rows t else Array.sub t.data lo (hi - lo)

let iter t f =
  for rid = 0 to t.len - 1 do
    f rid t.data.(rid)
  done

let retain t keep =
  let kept = Array.make t.len [||] and n = ref 0 in
  for rid = 0 to t.len - 1 do
    let tuple = t.data.(rid) in
    if keep tuple then begin
      kept.(!n) <- tuple;
      incr n
    end
  done;
  let deleted = t.len - !n in
  t.data <- (if deleted = 0 then kept else Array.sub kept 0 !n);
  t.len <- !n;
  deleted
