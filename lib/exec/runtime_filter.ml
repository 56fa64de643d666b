open Mqr_storage

let bits_per_key = 10
let num_hashes = 3

type t = {
  source : string;
  build_col : string;
  target_col : string;
  est_sel : float;
  empty_build : bool;
  min_v : Value.t;
  max_v : Value.t;
  bits : Bytes.t;
  nbits : int;
  mutable probed : int;
  mutable passed : int;
}

let target_col t = t.target_col
let source t = t.source
let est_sel t = t.est_sel
let probed t = t.probed

let pages_for ~keys =
  if keys <= 0 then 0
  else
    let bytes = (keys * bits_per_key + 7) / 8 in
    (bytes + Heap_file.page_size_bytes - 1) / Heap_file.page_size_bytes

(* Double hashing: k bit positions derived from two independent hashes of
   the key, the standard Kirsch-Mitzenmacher construction. *)
let second_hash h1 = ((h1 * 0x9e3779b1) lxor (h1 lsr 16)) lor 1

let set_bit bits i =
  let byte = i lsr 3 and mask = 1 lsl (i land 7) in
  Bytes.unsafe_set bits byte
    (Char.chr (Char.code (Bytes.unsafe_get bits byte) lor mask))

let test_bit bits i =
  let byte = i lsr 3 and mask = 1 lsl (i land 7) in
  Char.code (Bytes.unsafe_get bits byte) land mask <> 0

let bloom_add t v =
  let h1 = Value.hash v in
  let h2 = second_hash h1 in
  for i = 0 to num_hashes - 1 do
    set_bit t.bits (abs (h1 + (i * h2)) mod t.nbits)
  done

let bloom_test t v =
  let h1 = Value.hash v in
  let h2 = second_hash h1 in
  let rec go i =
    i >= num_hashes
    || (test_bit t.bits (abs (h1 + (i * h2)) mod t.nbits) && go (i + 1))
  in
  go 0

let create ctx ~source ~build_col ~target_col ~est_sel ~max_pages ~key_idx
    rows =
  let clock = ctx.Exec_ctx.clock in
  let n = Array.length rows in
  Sim_clock.charge_cpu_ms clock (float_of_int n *. Sim_clock.rf_build_tuple_ms);
  let keys = ref 0 in
  let min_v = ref Value.Null and max_v = ref Value.Null in
  Array.iter
    (fun tuple ->
       let v = tuple.(key_idx) in
       if not (Value.is_null v) then begin
         incr keys;
         min_v := Value.min_value !min_v v;
         max_v := Value.max_value !max_v v
       end)
    rows;
  let want_pages = pages_for ~keys:!keys in
  let pages = max 0 (min want_pages max_pages) in
  let nbits =
    if !keys = 0 || pages = 0 then 0
    else min (!keys * bits_per_key) (pages * Heap_file.page_size_bytes * 8)
  in
  let t =
    { source;
      build_col;
      target_col;
      est_sel;
      empty_build = !keys = 0;
      min_v = !min_v;
      max_v = !max_v;
      bits = Bytes.make ((nbits + 7) / 8) '\000';
      nbits;
      probed = 0;
      passed = 0 }
  in
  if nbits > 0 then
    Array.iter
      (fun tuple ->
         let v = tuple.(key_idx) in
         if not (Value.is_null v) then bloom_add t v)
      rows;
  t

(* An empty build side or an out-of-range key can never find a join
   partner; a null probe key never equi-joins.  Incomparable values (a
   type mismatch the join itself would reject) pass conservatively. *)
let admits t v =
  if Value.is_null v then false
  else if t.empty_build then false
  else
    let in_range =
      match Value.compare v t.min_v, Value.compare v t.max_v with
      | lo, hi -> lo >= 0 && hi <= 0
      | exception Invalid_argument _ -> true
    in
    in_range && (t.nbits = 0 || bloom_test t v)

let applicable t schema =
  match Schema.index_of schema t.target_col with
  | idx -> Some idx
  | exception Not_found -> None
  | exception Schema.Ambiguous _ -> None

let apply ctx t ~idx rows =
  let n = Array.length rows in
  if n = 0 then rows
  else begin
    Sim_clock.charge_cpu_ms ctx.Exec_ctx.clock
      (float_of_int n *. Sim_clock.rf_probe_tuple_ms);
    t.probed <- t.probed + n;
    let kept = ref 0 in
    Array.iter (fun tuple -> if admits t tuple.(idx) then incr kept) rows;
    t.passed <- t.passed + !kept;
    if !kept = n then rows
    else begin
      let out = Array.make !kept [||] in
      let j = ref 0 in
      Array.iter
        (fun tuple ->
           if admits t tuple.(idx) then begin
             out.(!j) <- tuple;
             incr j
           end)
        rows;
      out
    end
  end

let observed_sel t =
  if t.probed = 0 then t.est_sel
  else float_of_int t.passed /. float_of_int t.probed

let dropped t = t.probed - t.passed
