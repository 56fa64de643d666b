type kind = Equi_width | Equi_depth | Maxdiff | Serial

let kind_to_string = function
  | Equi_width -> "equi-width"
  | Equi_depth -> "equi-depth"
  | Maxdiff -> "maxdiff"
  | Serial -> "serial"

type bucket = {
  lo : float;
  hi : float;
  rows : float;
  distinct : float;
}

type t = {
  kind : kind;
  bkts : bucket array;
  total : float;
}

let kind t = t.kind
let buckets t = Array.to_list t.bkts
let total_rows t = t.total
let distinct t = Array.fold_left (fun acc b -> acc +. b.distinct) 0.0 t.bkts

(* Frequency table of a data array: sorted (value, count) pairs.  Values
   group by [Float.compare], so all NaNs form one group. *)
let freq_table data =
  let sorted = Array.copy data in
  let n = Array.length sorted in
  Float_sort.sort ~descending:false sorted (Array.make n 0);
  let groups = ref (min n 1) in
  for i = 1 to n - 1 do
    if Float.compare sorted.(i) sorted.(i - 1) <> 0 then incr groups
  done;
  let out = Array.make !groups (0.0, 0) in
  let i = ref 0 and g = ref 0 in
  while !i < n do
    let v = sorted.(!i) in
    let j = ref !i in
    while !j < n && Float.compare sorted.(!j) v = 0 do incr j done;
    out.(!g) <- (v, !j - !i);
    incr g;
    i := !j
  done;
  out

let of_buckets kind bkts =
  let total = Array.fold_left (fun acc b -> acc +. b.rows) 0.0 bkts in
  { kind; bkts; total }

let build_equi_width ~buckets freqs =
  let n = Array.length freqs in
  if n = 0 then [||]
  else begin
    let lo = fst freqs.(0) and hi = fst freqs.(n - 1) in
    let nb = max 1 (min buckets n) in
    let width = (hi -. lo) /. float_of_int nb in
    if width <= 0.0 then
      [| { lo; hi; rows = Array.fold_left (fun a (_, c) -> a +. float_of_int c) 0.0 freqs;
           distinct = float_of_int n } |]
    else begin
      let out = ref [] in
      let idx = ref 0 in
      for b = 0 to nb - 1 do
        let b_hi = if b = nb - 1 then hi else lo +. (width *. float_of_int (b + 1)) in
        let rows = ref 0.0 and d = ref 0.0 in
        let v_lo = ref infinity and v_hi = ref neg_infinity in
        while
          !idx < n
          && (fst freqs.(!idx) < b_hi || (b = nb - 1 && fst freqs.(!idx) <= hi))
        do
          let v, c = freqs.(!idx) in
          rows := !rows +. float_of_int c;
          d := !d +. 1.0;
          if v < !v_lo then v_lo := v;
          if v > !v_hi then v_hi := v;
          incr idx
        done;
        if !rows > 0.0 then
          out := { lo = !v_lo; hi = !v_hi; rows = !rows; distinct = !d } :: !out
      done;
      Array.of_list (List.rev !out)
    end
  end

let build_equi_depth ~buckets freqs =
  let n = Array.length freqs in
  if n = 0 then [||]
  else begin
    let total = Array.fold_left (fun a (_, c) -> a +. float_of_int c) 0.0 freqs in
    let nb = max 1 (min buckets n) in
    let target = total /. float_of_int nb in
    let out = ref [] in
    let cur_rows = ref 0.0 and cur_d = ref 0.0 in
    let cur_lo = ref (fst freqs.(0)) in
    let flush hi =
      if !cur_rows > 0.0 then
        out := { lo = !cur_lo; hi; rows = !cur_rows; distinct = !cur_d } :: !out;
      cur_rows := 0.0;
      cur_d := 0.0
    in
    Array.iteri
      (fun i (v, c) ->
         if !cur_rows = 0.0 then cur_lo := v;
         cur_rows := !cur_rows +. float_of_int c;
         cur_d := !cur_d +. 1.0;
         if !cur_rows >= target && i < n - 1 then flush v)
      freqs;
    flush (fst freqs.(n - 1));
    Array.of_list (List.rev !out)
  end

(* MaxDiff(V,A): boundaries at the largest differences between the "areas"
   (frequency * spread) of adjacent distinct values. *)
let build_maxdiff ~buckets freqs =
  let n = Array.length freqs in
  if n = 0 then [||]
  else if n = 1 then
    let v, c = freqs.(0) in
    [| { lo = v; hi = v; rows = float_of_int c; distinct = 1.0 } |]
  else begin
    let area i =
      let v, c = freqs.(i) in
      let spread = if i < n - 1 then fst freqs.(i + 1) -. v else 1.0 in
      float_of_int c *. max spread 1e-9
    in
    (* largest differences first, carrying the index they follow *)
    let diffs = Array.make (n - 1) 0.0 and after = Array.init (n - 1) Fun.id in
    let prev = ref (area 0) in
    for i = 0 to n - 2 do
      let next = area (i + 1) in
      diffs.(i) <- Float.abs (next -. !prev);
      prev := next
    done;
    Float_sort.sort ~descending:true diffs after;
    let nb = max 1 (min buckets n) in
    let split_after = Array.make n false in
    for rank = 0 to min (nb - 1) (n - 1) - 1 do
      split_after.(after.(rank)) <- true
    done;
    let out = ref [] in
    let cur_rows = ref 0.0 and cur_d = ref 0.0 in
    let cur_lo = ref (fst freqs.(0)) in
    for i = 0 to n - 1 do
      let v, c = freqs.(i) in
      if !cur_rows = 0.0 then cur_lo := v;
      cur_rows := !cur_rows +. float_of_int c;
      cur_d := !cur_d +. 1.0;
      if split_after.(i) || i = n - 1 then begin
        out := { lo = !cur_lo; hi = v; rows = !cur_rows; distinct = !cur_d } :: !out;
        cur_rows := 0.0;
        cur_d := 0.0
      end
    done;
    Array.of_list (List.rev !out)
  end

(* Serial / end-biased: singleton buckets for the (buckets-1) most frequent
   values, one collective bucket (assumed uniform) for the rest. *)
let build_serial ~buckets freqs =
  let n = Array.length freqs in
  if n = 0 then [||]
  else begin
    let nb = max 2 buckets in
    let by_freq = Array.copy freqs in
    Array.sort (fun (_, c1) (_, c2) -> Int.compare c2 c1) by_freq;
    let top_count = min (nb - 1) n in
    let top = Hashtbl.create top_count in
    for i = 0 to top_count - 1 do
      Hashtbl.replace top (fst by_freq.(i)) ()
    done;
    let singles = ref [] in
    let rest_rows = ref 0.0 and rest_d = ref 0.0 in
    let rest_lo = ref infinity and rest_hi = ref neg_infinity in
    Array.iter
      (fun (v, c) ->
         if Hashtbl.mem top v then
           singles := { lo = v; hi = v; rows = float_of_int c; distinct = 1.0 } :: !singles
         else begin
           rest_rows := !rest_rows +. float_of_int c;
           rest_d := !rest_d +. 1.0;
           if v < !rest_lo then rest_lo := v;
           if v > !rest_hi then rest_hi := v
         end)
      freqs;
    let bkts =
      if !rest_rows > 0.0 then
        { lo = !rest_lo; hi = !rest_hi; rows = !rest_rows; distinct = !rest_d }
        :: !singles
      else !singles
    in
    let arr = Array.of_list bkts in
    Array.sort (fun b1 b2 -> Float.compare b1.lo b2.lo) arr;
    arr
  end

let build kind ~buckets data =
  let freqs = freq_table data in
  let bkts =
    match kind with
    | Equi_width -> build_equi_width ~buckets freqs
    | Equi_depth -> build_equi_depth ~buckets freqs
    | Maxdiff -> build_maxdiff ~buckets freqs
    | Serial -> build_serial ~buckets freqs
  in
  of_buckets kind bkts

let scale t rows =
  if t.total <= 0.0 then t
  else begin
    let f = rows /. t.total in
    { t with
      bkts = Array.map (fun b -> { b with rows = b.rows *. f }) t.bkts;
      total = rows }
  end

let est_eq t v =
  if t.total <= 0.0 then 0.0
  else begin
    let matching = ref 0.0 in
    Array.iter
      (fun b ->
         if v >= b.lo && v <= b.hi then
           matching := !matching +. (b.rows /. max b.distinct 1.0))
      t.bkts;
    Float.min 1.0 (!matching /. t.total)
  end

(* Fraction of bucket [b] inside the query interval, under the uniform
   (continuous) intra-bucket assumption.  Singleton buckets are all-in or
   all-out. *)
let bucket_overlap b ~lo ~hi =
  let b_lo = b.lo and b_hi = b.hi in
  let q_lo, _lo_incl = match lo with Some (v, i) -> (v, i) | None -> (neg_infinity, true) in
  let q_hi, _hi_incl = match hi with Some (v, i) -> (v, i) | None -> (infinity, true) in
  if q_lo > b_hi || q_hi < b_lo then 0.0
  else if b_lo = b_hi then begin
    (* singleton: in or out; treat open bounds exactly *)
    let in_lo = match lo with
      | Some (v, incl) -> if incl then b_lo >= v else b_lo > v
      | None -> true
    in
    let in_hi = match hi with
      | Some (v, incl) -> if incl then b_hi <= v else b_hi < v
      | None -> true
    in
    if in_lo && in_hi then 1.0 else 0.0
  end else begin
    let eff_lo = Float.max b_lo q_lo and eff_hi = Float.min b_hi q_hi in
    if eff_hi < eff_lo then 0.0
    else if eff_hi = eff_lo then
      (* point (or degenerate) overlap inside a wide bucket: one of the
         bucket's distinct values, not a zero-width sliver *)
      1.0 /. Float.max 1.0 b.distinct
    else
      Float.max
        ((eff_hi -. eff_lo) /. (b_hi -. b_lo))
        (1.0 /. Float.max 1.0 b.distinct)
  end

let est_range t ~lo ~hi =
  if t.total <= 0.0 then 0.0
  else begin
    let rows = ref 0.0 in
    Array.iter
      (fun b -> rows := !rows +. (b.rows *. bucket_overlap b ~lo ~hi))
      t.bkts;
    Float.min 1.0 (!rows /. t.total)
  end

(* Bucket-overlap equi-join estimate: for each pair of overlapping buckets,
   the expected number of matches is r1 * r2 / max(d1, d2) scaled by the
   overlap fractions, under per-bucket containment. *)
let est_join_selectivity t1 t2 =
  if t1.total <= 0.0 || t2.total <= 0.0 then 0.0
  else begin
    let matches = ref 0.0 in
    Array.iter
      (fun b1 ->
         Array.iter
           (fun b2 ->
              let lo = Float.max b1.lo b2.lo and hi = Float.min b1.hi b2.hi in
              if lo <= hi then begin
                let f1 = bucket_overlap b1 ~lo:(Some (lo, true)) ~hi:(Some (hi, true)) in
                let f2 = bucket_overlap b2 ~lo:(Some (lo, true)) ~hi:(Some (hi, true)) in
                let r1 = b1.rows *. f1 and r2 = b2.rows *. f2 in
                let d1 = Float.max 1.0 (b1.distinct *. f1) in
                let d2 = Float.max 1.0 (b2.distinct *. f2) in
                matches := !matches +. (r1 *. r2 /. Float.max d1 d2)
              end)
           t2.bkts)
      t1.bkts;
    Float.min 1.0 (!matches /. (t1.total *. t2.total))
  end
