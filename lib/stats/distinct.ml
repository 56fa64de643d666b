module Value = Mqr_storage.Value

(* 64-bit mix to decorrelate Value.hash outputs.  Inlined so the int64s
   stay unboxed. *)
let[@inline] mix64 h =
  let open Int64 in
  let z = of_int h in
  let z = mul (logxor z (shift_right_logical z 33)) 0xFF51AFD7ED558CCDL in
  let z = mul (logxor z (shift_right_logical z 33)) 0xC4CEB9FE1A85EC53L in
  logxor z (shift_right_logical z 33)

module Fm = struct
  type t = {
    sketch : int array;  (* bitmaps of observed trailing-rank positions *)
  }

  let phi = 0.77351

  (* stochastic-averaging buckets; a power of two *)
  let maps = 64

  let create () = { sketch = Array.make maps 0 }

  (* [h] is the mixed hash of the value being added: its low bits pick the
     bucket, the rest (shifted right by 8, so under 2^56) sets the bit of
     its trailing-zero count, capped at 61 — the lowest set bit of [rest]
     with bit 61 forced on. *)
  let[@inline] add_hash t h =
    let bucket = Int64.to_int h land (maps - 1) in
    let rest = Int64.to_int (Int64.shift_right_logical h 8) lor (1 lsl 61) in
    t.sketch.(bucket) <- t.sketch.(bucket) lor (rest land -rest)

  (* Position of lowest zero bit. *)
  let lowest_zero bits =
    let rec go i = if bits land (1 lsl i) = 0 then i else go (i + 1) in
    go 0

  let estimate t =
    let sum = Array.fold_left (fun acc b -> acc + lowest_zero b) 0 t.sketch in
    let mean = float_of_int sum /. float_of_int maps in
    float_of_int maps /. phi *. (2.0 ** mean)
end

(* The exact counter is a set of mixed hashes, already well spread, kept
   by open addressing with linear probing on their low bits: 0 marks an
   empty slot, so the key 0 is a flag of its own.  The table doubles to
   keep its load at most one half and is dropped on overflow. *)
type t = {
  exact_limit : int;
  mutable slots : int array;
  mutable has_zero : bool;
  mutable count : int;  (* distinct keys seen, 0 included *)
  fm : Fm.t;
  mutable overflowed : bool;
}

let create ?(exact_limit = 4096) () =
  { exact_limit;
    slots = Array.make 16 0;
    has_zero = false;
    count = 0;
    fm = Fm.create ();
    overflowed = false }

(* Insert nonzero [k]; whether it was absent. *)
let rec insert slots k i =
  let s = slots.(i) in
  if s = 0 then begin
    slots.(i) <- k;
    true
  end
  else s <> k && insert slots k ((i + 1) land (Array.length slots - 1))

let grow t =
  let slots = Array.make (2 * Array.length t.slots) 0 in
  Array.iter
    (fun k -> if k <> 0 then ignore (insert slots k (k land (Array.length slots - 1))))
    t.slots;
  t.slots <- slots

let added t =
  t.count <- t.count + 1;
  if t.count > t.exact_limit then begin
    t.overflowed <- true;
    t.slots <- [||]
  end
  else if 2 * t.count > Array.length t.slots then grow t

let add_hash t vh =
  let h = mix64 vh in
  Fm.add_hash t.fm h;
  if not t.overflowed then begin
    let k = Int64.to_int h in
    if k = 0 then begin
      if not t.has_zero then begin
        t.has_zero <- true;
        added t
      end
    end
    else if insert t.slots k (k land (Array.length t.slots - 1)) then added t
  end

let add t v = add_hash t (Value.hash v)

let is_exact t = not t.overflowed

let estimate t =
  if t.overflowed then Fm.estimate t.fm else float_of_int t.count
