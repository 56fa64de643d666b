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

  (* stochastic-averaging buckets *)
  let maps = 64

  let create () = { sketch = Array.make maps 0 }

  let trailing_zeros x =
    if Int64.equal x 0L then 62
    else begin
      let rec go i =
        if Int64.equal (Int64.logand (Int64.shift_right_logical x i) 1L) 1L then i
        else go (i + 1)
      in
      go 0
    end

  (* [h] is the mixed hash of the value being added. *)
  let[@inline] add_hash t h =
    let bucket = Int64.to_int (Int64.rem (Int64.logand h 0x7FFFFFFFFFFFFFFFL)
                                 (Int64.of_int maps)) in
    let rest = Int64.shift_right_logical h 8 in
    let r = trailing_zeros rest in
    t.sketch.(bucket) <- t.sketch.(bucket) lor (1 lsl min r 61)

  (* Position of lowest zero bit. *)
  let lowest_zero bits =
    let rec go i = if bits land (1 lsl i) = 0 then i else go (i + 1) in
    go 0

  let estimate t =
    let sum = Array.fold_left (fun acc b -> acc + lowest_zero b) 0 t.sketch in
    let mean = float_of_int sum /. float_of_int maps in
    float_of_int maps /. phi *. (2.0 ** mean)
end

(* The exact set holds mixed hashes, already well spread: bucket on the
   low bits directly. *)
module Int_set = Hashtbl.Make (struct
    type t = int
    let equal = Int.equal
    let hash h = h land max_int
  end)

type t = {
  exact_limit : int;
  exact : unit Int_set.t;
  fm : Fm.t;
  mutable overflowed : bool;
}

let create ?(exact_limit = 4096) () =
  { exact_limit;
    exact = Int_set.create 256;
    fm = Fm.create ();
    overflowed = false }

let add t v =
  let h = mix64 (Value.hash v) in
  Fm.add_hash t.fm h;
  if not t.overflowed then begin
    let k = Int64.to_int h in
    if not (Int_set.mem t.exact k) then begin
      Int_set.replace t.exact k ();
      if Int_set.length t.exact > t.exact_limit then t.overflowed <- true
    end
  end

let is_exact t = not t.overflowed

let estimate t =
  if t.overflowed then Fm.estimate t.fm
  else float_of_int (Int_set.length t.exact)
