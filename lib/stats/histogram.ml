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

(* Frequency table of a data array: its distinct values, ascending by
   [Float.compare], and how often each occurs.  Values group by
   [Float.compare], so all NaNs form one group, and so do -0.0 and 0.0
   (under whichever sorts first). *)
type freqs = { values : float array; counts : int array }

let freq_table data =
  let sorted = Array.copy data in
  let n = Array.length sorted in
  Float_sort.ascending sorted;
  let groups = ref (min n 1) in
  for i = 1 to n - 1 do
    if Float.compare sorted.(i) sorted.(i - 1) <> 0 then incr groups
  done;
  let values = Array.make !groups 0.0 and counts = Array.make !groups 0 in
  let first = ref 0 in
  for g = 0 to !groups - 1 do
    let v = sorted.(!first) in
    let next = ref (!first + 1) in
    while !next < n && Float.compare sorted.(!next) v = 0 do incr next done;
    values.(g) <- v;
    counts.(g) <- !next - !first;
    first := !next
  done;
  { values; counts }

let of_buckets kind bkts =
  let total = Array.fold_left (fun acc b -> acc +. b.rows) 0.0 bkts in
  { kind; bkts; total }

(* The bucket walk the equi-width, equi-depth and MaxDiff builders share:
   the distinct values in order, each bucket closing after value [i] when
   [close i rows] (rows: the bucket's so far) says so, the last after the
   last value. *)
let walk f close =
  let n = Array.length f.values in
  let out = ref [] and first = ref 0 and rows = ref 0.0 in
  for i = 0 to n - 1 do
    rows := !rows +. float_of_int f.counts.(i);
    if i = n - 1 || close i !rows then begin
      out :=
        { lo = f.values.(!first); hi = f.values.(i); rows = !rows;
          distinct = float_of_int (i - !first + 1) }
        :: !out;
      first := i + 1;
      rows := 0.0
    end
  done;
  Array.of_list (List.rev !out)

let build_equi_width ~buckets f =
  let n = Array.length f.values in
  (* a NaN sorts first and makes the width NaN: no bucket takes it *)
  if n = 0 || Float.is_nan f.values.(0) then [||]
  else begin
    let lo = f.values.(0) and hi = f.values.(n - 1) in
    let nb = max 1 (min buckets n) in
    let width = (hi -. lo) /. float_of_int nb in
    if not (width > 0.0) then walk f (fun _ _ -> false)
    else begin
      (* a value's bucket is the first from [b] on whose upper edge lies
         above it; the last bucket takes the rest *)
      let rec index b v =
        if b < nb - 1 && not (v < lo +. (width *. float_of_int (b + 1)))
        then index (b + 1) v
        else b
      in
      let cur = ref (index 0 lo) in
      walk f (fun i _ ->
          let b = !cur in
          cur := index b f.values.(i + 1);
          !cur <> b)
    end
  end

let build_equi_depth ~buckets f =
  let n = Array.length f.values in
  let total = Array.fold_left (fun a c -> a +. float_of_int c) 0.0 f.counts in
  let target = total /. float_of_int (max 1 (min buckets n)) in
  walk f (fun _ rows -> rows >= target)

(* MaxDiff(V,A): boundaries at the largest differences between the "areas"
   (frequency * spread) of adjacent distinct values. *)
let build_maxdiff ~buckets f =
  let n = Array.length f.values in
  let area i =
    let spread = if i < n - 1 then f.values.(i + 1) -. f.values.(i) else 1.0 in
    float_of_int f.counts.(i) *. (if spread >= 1e-9 then spread else 1e-9)
  in
  let splits = min (max 1 (min buckets n) - 1) (n - 1) in
  (* when every gap is a boundary, no difference decides anything *)
  let split_after = Array.make n (splits = n - 1) in
  if splits < n - 1 then begin
    (* largest differences first, carrying the index they follow *)
    let diffs = Array.make (n - 1) 0.0 and after = Array.init (n - 1) Fun.id in
    let prev = ref (area 0) in
    for i = 0 to n - 2 do
      let next = area (i + 1) in
      diffs.(i) <- Float.abs (next -. !prev);
      prev := next
    done;
    Float_sort.sort ~descending:true diffs after;
    for rank = 0 to splits - 1 do
      split_after.(after.(rank)) <- true
    done
  end;
  walk f (fun i _ -> split_after.(i))

(* Serial / end-biased: singleton buckets for the (buckets-1) most frequent
   values, one collective bucket (assumed uniform) for the rest. *)
let build_serial ~buckets f =
  let n = Array.length f.values in
  if n = 0 then [||]
  else begin
    (* distinct values by count, descending *)
    let by_freq = Array.init n Fun.id in
    Array.sort (fun i j -> Int.compare f.counts.(j) f.counts.(i)) by_freq;
    let top = Array.make n false in
    for rank = 0 to min (max 2 buckets - 1) n - 1 do
      top.(by_freq.(rank)) <- true
    done;
    let singles = ref [] in
    let rest_rows = ref 0.0 and rest_d = ref 0.0 in
    let rest_lo = ref infinity and rest_hi = ref neg_infinity in
    for i = 0 to n - 1 do
      let v = f.values.(i) and c = float_of_int f.counts.(i) in
      if top.(i) then
        singles := { lo = v; hi = v; rows = c; distinct = 1.0 } :: !singles
      else begin
        rest_rows := !rest_rows +. c;
        rest_d := !rest_d +. 1.0;
        if v < !rest_lo then rest_lo := v;
        if v > !rest_hi then rest_hi := v
      end
    done;
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

let of_counts kind ~buckets values counts =
  if Array.length values <> Array.length counts then
    invalid_arg "Histogram.of_counts";
  let f = { values; counts } in
  let bkts =
    match kind with
    | Equi_width -> build_equi_width ~buckets f
    | Equi_depth -> build_equi_depth ~buckets f
    | Maxdiff -> build_maxdiff ~buckets f
    | Serial -> build_serial ~buckets f
  in
  of_buckets kind bkts

let build kind ~buckets data =
  let f = freq_table data in
  of_counts kind ~buckets f.values f.counts

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
