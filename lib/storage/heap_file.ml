(* A column's dictionary: every distinct value appended to it so far,
   numbered by code in first-seen order from 1 ([Null] is code 0).
   [slots] is an open-addressing table of codes, 2 bytes a slot (0 marks
   an empty one), probed linearly from [Value.hash] of the code's box
   and at most half full ([same] decides identity: -0.0 and 0.0, all
   nans, [Int 3] and [Float 3.0] share a hash but not a code);
   [boxes.(c)] is code [c]'s box; [per_rid] holds each rid's code, 2
   bytes a row, with room to grow; [null_seen] whether a [Null] was ever
   appended (never cleared, not even by a [retain] that deletes every
   null). *)
type dict = {
  mutable slots : Bytes.t;
  mutable boxes : Value.t array;
  mutable size : int;  (* codes in use, Null's included *)
  mutable per_rid : Bytes.t;
  mutable null_seen : bool;
}

(* What a column keeps beside its cells: its dictionary while it holds
   fewer than [dict_limit] values; then, while every cell is a non-null
   [Int] (or every one a [Float]), each rid's payload, with room to
   grow; else nothing, for good. *)
type column =
  | Coded of dict
  | Unboxed of { mutable ints : int array }
  | Unboxed_floats of { mutable floats : Float.Array.t }
  | Boxed

type t = {
  id : int;
  schema : Schema.t;
  mutable data : Tuple.t array;
  mutable len : int;
  per_page : int;
  cols : column array;  (* per column; [||] for a file from [of_rows] *)
  mutable generation : int;  (* bumped whenever the rows change *)
}

type codes = { codes : Bytes.t; count : int; boxes : Value.t array; seen_null : bool }
type payloads = int array
type float_payloads = Float.Array.t

let page_size_bytes = 4096

(* [Distinct]'s exact limit: a column with more distinct values than this
   is not worth a dictionary. *)
let dict_limit = 4096

let next_id = ref 0

let fresh_id () =
  incr next_id;
  !next_id

let adopt schema data len cols =
  let width = max 1 (Schema.avg_tuple_width schema) in
  let per_page = max 1 (page_size_bytes / width) in
  { id = fresh_id (); schema; data; len; per_page; cols; generation = 0 }

let create schema =
  adopt schema (Array.make 64 [||]) 0
    (Array.init (Schema.arity schema) (fun _ ->
         Coded
           { slots = Bytes.make 32 '\000';
             boxes = Array.make 16 Value.Null;
             size = 1;
             per_rid = Bytes.empty;
             null_seen = false }))

let of_rows schema rows = adopt schema rows (Array.length rows) [||]

let file_id t = t.id
let schema t = t.schema
let generation t = t.generation
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

let[@inline] get16 b i = Bytes.get_uint16_le b (2 * i)
let[@inline] set16 b i c = Bytes.set_uint16_le b (2 * i) c

(* The slot holding the code of [v]'s value, or the empty slot where it
   belongs. *)
let slot d v =
  let mask = (Bytes.length d.slots / 2) - 1 in
  let rec probe i =
    let c = get16 d.slots i in
    if c = 0 || same d.boxes.(c) v then i else probe ((i + 1) land mask)
  in
  probe (Value.hash v land mask)

(* The code of non-null [v]'s value, the next one if it is new; -1 when
   it is the [dict_limit]th value, which drops the dictionary. *)
let code_of d v =
  let i = slot d v in
  match get16 d.slots i with
  | 0 when d.size = dict_limit -> -1
  | 0 ->
    let c = d.size in
    if c = Array.length d.boxes then begin
      let bigger = Array.make (2 * c) Value.Null in
      Array.blit d.boxes 0 bigger 0 c;
      d.boxes <- bigger
    end;
    d.boxes.(c) <- v;
    d.size <- c + 1;
    set16 d.slots i c;
    if 2 * d.size > Bytes.length d.slots / 2 then begin
      d.slots <- Bytes.make (2 * Bytes.length d.slots) '\000';
      for c = 1 to d.size - 1 do
        set16 d.slots (slot d d.boxes.(c)) c
      done
    end;
    c
  | c -> c

exception Boxed_cell

let unboxed_int (v : Value.t) =
  match v with Int x -> x | _ -> raise_notrace Boxed_cell

let unboxed_float (v : Value.t) =
  match v with Float x -> x | _ -> raise_notrace Boxed_cell

(* Room for the rows so far and the next: [make n] fresh, filled by
   [set] with [get] of column [i]'s cells, then of [v] at rid [t.len]. *)
let fill t i v make set get =
  let a = make (max 64 (2 * t.len)) in
  for rid = 0 to t.len - 1 do
    set a rid (get t.data.(rid).(i))
  done;
  set a t.len (get v);
  a

(* What column [i] keeps once its dictionary drops at the next rid, whose
   cell is [v]: the payloads of the rows so far and [v], if they are all
   non-null [Int]s or all [Float]s. *)
let unbox t i (v : Value.t) =
  match v with
  | Float _ ->
    (match fill t i v Float.Array.create Float.Array.set unboxed_float with
     | floats -> Unboxed_floats { floats }
     | exception Boxed_cell -> Boxed)
  | Int _ ->
    (match fill t i v (fun n -> Array.make n 0) Array.set unboxed_int with
     | ints -> Unboxed { ints }
     | exception Boxed_cell -> Boxed)
  | _ -> Boxed

(* Each kept dictionary maps the cell to its code, stores the code at
   [rid] and the code's box in the cell; kept payloads store the cell's
   at [rid].  A tuple without the column's cell leaves it nothing. *)
let append t tuple =
  let rid = t.len in
  for i = 0 to Array.length t.cols - 1 do
    match t.cols.(i) with
    | Boxed -> ()
    | _ when i >= Array.length tuple -> t.cols.(i) <- Boxed
    | Coded d ->
      let v = tuple.(i) in
      let c =
        if v == Value.Null then begin
          d.null_seen <- true;
          0
        end
        else code_of d v
      in
      if c < 0 then t.cols.(i) <- unbox t i v
      else begin
        let w = d.boxes.(c) in
        if w != v then tuple.(i) <- w;
        if 2 * rid = Bytes.length d.per_rid then
          d.per_rid <- Bytes.extend d.per_rid 0 (max 128 (2 * rid));
        set16 d.per_rid rid c
      end
    | Unboxed u ->
      (match tuple.(i) with
       | Int x ->
         if rid = Array.length u.ints then begin
           let bigger = Array.make (max 64 (2 * rid)) 0 in
           Array.blit u.ints 0 bigger 0 rid;
           u.ints <- bigger
         end;
         u.ints.(rid) <- x
       | _ -> t.cols.(i) <- Boxed)
    | Unboxed_floats f ->
      (match tuple.(i) with
       | Float x ->
         if rid = Float.Array.length f.floats then begin
           let bigger = Float.Array.create (max 64 (2 * rid)) in
           Float.Array.blit f.floats 0 bigger 0 rid;
           f.floats <- bigger
         end;
         Float.Array.set f.floats rid x
       | _ -> t.cols.(i) <- Boxed)
  done;
  if t.len = Array.length t.data then begin
    let bigger = Array.make (max 64 (2 * t.len)) [||] in
    Array.blit t.data 0 bigger 0 t.len;
    t.data <- bigger
  end;
  t.data.(t.len) <- tuple;
  t.len <- t.len + 1;
  t.generation <- t.generation + 1

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

(* Each page the range overlaps, in order: its read, then a CPU charge
   per tuple of the range on it.  Returns the range, clipped. *)
let charge t ~pool ~clock ~from_rid ~to_rid =
  let hi = max 0 (min t.len to_rid) in
  let lo = max 0 (min from_rid hi) in
  if lo < hi then
    for page = lo / t.per_page to (hi - 1) / t.per_page do
      if not (Buffer_pool.access pool ~file:t.id ~page) then
        Sim_clock.charge_seq_read clock 1;
      let stop = min hi ((page + 1) * t.per_page) in
      Sim_clock.charge_cpu_tuples_singly clock (stop - max lo (page * t.per_page))
    done;
  (lo, hi)

let charge_scan t ~pool ~clock ~from_rid ~to_rid =
  ignore (charge t ~pool ~clock ~from_rid ~to_rid)

let read t ~pool ~clock ~from_rid ~to_rid =
  let lo, hi = charge t ~pool ~clock ~from_rid ~to_rid in
  if lo = 0 && hi = t.len then rows t else Array.sub t.data lo (hi - lo)

let iter t f =
  for rid = 0 to t.len - 1 do
    f rid t.data.(rid)
  done

type view =
  | Codes of codes
  | Ints of payloads
  | Floats of float_payloads
  | Plain

let view t col =
  if col >= Array.length t.cols then Plain
  else
    match t.cols.(col) with
    | Coded d ->
      Codes { codes = d.per_rid; count = d.size; boxes = d.boxes; seen_null = d.null_seen }
    | Unboxed u -> Ints u.ints
    | Unboxed_floats f -> Floats f.floats
    | Boxed -> Plain

let codes t col = match view t col with Codes c -> Some c | _ -> None

let[@inline] code c r = get16 c.codes r
let code_count c = c.count
let code_box c k = c.boxes.(k)
let null_seen c = c.seen_null

let[@inline] payload p r = p.(r)

let[@inline] float_payload f r = Float.Array.get f r

(* [keep] runs once per row, in rid order, before anything moves; the
   kept rows, their codes and their payloads then go to fresh arrays of
   exactly the kept length, a run of kept rows at a time, so a reader's
   arrays stay as they were.  Until the first row [keep] rejects, nothing
   is copied: when it rejects none, the storage stays in place. *)
let retain t keep =
  let n = t.len and first = ref 0 in
  while !first < n && keep t.data.(!first) do incr first done;
  if !first = n then 0
  else begin
    let kept = Bytes.make n '\001' and m = ref !first in
    Bytes.set kept !first '\000';
    for rid = !first + 1 to n - 1 do
      if keep t.data.(rid) then incr m else Bytes.set kept rid '\000'
    done;
    let m = !m in
    let data = Array.make m [||] in
    (* how a run of [len] kept rows from rid [from] lands at [at] in each
       store's fresh array *)
    let moves = ref [ (fun from at len -> Array.blit t.data from data at len) ] in
    Array.iter
      (function
        | Coded d ->
          let old = d.per_rid and codes = Bytes.create (2 * m) in
          d.per_rid <- codes;
          moves :=
            (fun from at len -> Bytes.blit old (2 * from) codes (2 * at) (2 * len))
            :: !moves
        | Unboxed u ->
          let old = u.ints and ints = Array.make m 0 in
          u.ints <- ints;
          moves := (fun from at len -> Array.blit old from ints at len) :: !moves
        | Unboxed_floats f ->
          let old = f.floats and floats = Float.Array.create m in
          f.floats <- floats;
          moves := (fun from at len -> Float.Array.blit old from floats at len) :: !moves
        | Boxed -> ())
      t.cols;
    let rid = ref 0 and at = ref 0 in
    while !rid < n do
      if Bytes.get kept !rid = '\000' then incr rid
      else begin
        let from = !rid in
        while !rid < n && Bytes.get kept !rid = '\001' do incr rid done;
        List.iter (fun move -> move from !at (!rid - from)) !moves;
        at := !at + (!rid - from)
      end
    done;
    t.data <- data;
    t.len <- m;
    t.generation <- t.generation + 1;
    n - m
  end
