(* The splitmix64 state lives in an 8-byte buffer: a mutable [int64]
   field would hold a boxed value and allocate on every update, while the
   buffer is read and written unboxed, so a draw allocates nothing. *)
type t = Bytes.t

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create seed = of_state (Int64.of_int seed)

let[@inline] next_int64 t =
  let open Int64 in
  let s = add (Bytes.get_int64_ne t 0) 0x9E3779B97F4A7C15L in
  Bytes.set_int64_ne t 0 s;
  let z = mul (logxor s (shift_right_logical s 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound <= 0";
  (* shift by 2 so the result fits OCaml's 63-bit native int positively *)
  let v = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  v mod bound

let float t =
  let v = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  v /. 9007199254740992.0 (* 2^53 *)

let split t = of_state (next_int64 t)
