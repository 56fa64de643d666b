type t = {
  id : int;
  schema : Schema.t;
  mutable data : Tuple.t array;
  mutable len : int;
  per_page : int;
}

let page_size_bytes = 4096

let next_id = ref 0

let fresh_id () =
  incr next_id;
  !next_id

let adopt schema data len =
  let width = max 1 (Schema.avg_tuple_width schema) in
  let per_page = max 1 (page_size_bytes / width) in
  { id = fresh_id (); schema; data; len; per_page }

let create schema = adopt schema (Array.make 64 [||]) 0
let of_rows schema rows = adopt schema rows (Array.length rows)

let file_id t = t.id
let schema t = t.schema
let tuples_per_page t = t.per_page

let append t tuple =
  if t.len = Array.length t.data then begin
    let bigger = Array.make (max 64 (2 * t.len)) [||] in
    Array.blit t.data 0 bigger 0 t.len;
    t.data <- bigger
  end;
  t.data.(t.len) <- tuple;
  t.len <- t.len + 1

let tuple_count t = t.len
let rows t =
  if t.len = Array.length t.data then t.data else Array.sub t.data 0 t.len
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
  Array.sub t.data lo (hi - lo)

let iter t f =
  for rid = 0 to t.len - 1 do
    f rid t.data.(rid)
  done

let retain t keep =
  let kept = ref 0 in
  for i = 0 to t.len - 1 do
    if keep t.data.(i) then begin
      t.data.(!kept) <- t.data.(i);
      incr kept
    end
  done;
  let deleted = t.len - !kept in
  (* release references beyond the new length *)
  for i = !kept to t.len - 1 do
    t.data.(i) <- [||]
  done;
  t.len <- !kept;
  deleted
