module H = Mqr_stats.Histogram

let kinds = [ H.Equi_width; H.Equi_depth; H.Maxdiff; H.Serial ]

let uniform_data n = Array.init n (fun i -> float_of_int (i mod 100))

(* Exact fraction of [data] equal to / within range, for comparison. *)
let exact_eq data v =
  let n = Array.length data in
  if n = 0 then 0.0
  else
    float_of_int (Array.fold_left (fun c x -> if x = v then c + 1 else c) 0 data)
    /. float_of_int n

let exact_range data ~lo ~hi =
  let n = Array.length data in
  if n = 0 then 0.0
  else
    float_of_int
      (Array.fold_left (fun c x -> if x >= lo && x <= hi then c + 1 else c) 0 data)
    /. float_of_int n

let test_empty () =
  List.iter
    (fun kind ->
       let h = H.build kind ~buckets:8 [||] in
       Alcotest.(check (float 0.0)) "eq" 0.0 (H.est_eq h 5.0);
       Alcotest.(check (float 0.0)) "range" 0.0
         (H.est_range h ~lo:None ~hi:None);
       Alcotest.(check (float 0.0)) "rows" 0.0 (H.total_rows h))
    kinds

let test_total_rows () =
  List.iter
    (fun kind ->
       let h = H.build kind ~buckets:8 (uniform_data 1000) in
       Alcotest.(check (float 0.5)) "total rows" 1000.0 (H.total_rows h))
    kinds

let test_distinct_count () =
  List.iter
    (fun kind ->
       let h = H.build kind ~buckets:8 (uniform_data 1000) in
       Alcotest.(check (float 0.5))
         (H.kind_to_string kind ^ " distinct")
         100.0 (H.distinct h))
    kinds

let test_full_range_is_one () =
  List.iter
    (fun kind ->
       let h = H.build kind ~buckets:8 (uniform_data 500) in
       Alcotest.(check (float 0.01)) "full range" 1.0
         (H.est_range h ~lo:None ~hi:None))
    kinds

let test_uniform_range_estimate () =
  List.iter
    (fun kind ->
       let data = uniform_data 10_000 in
       let h = H.build kind ~buckets:16 data in
       let est = H.est_range h ~lo:(Some (0.0, true)) ~hi:(Some (49.0, true)) in
       let exact = exact_range data ~lo:0.0 ~hi:49.0 in
       Alcotest.(check bool)
         (Printf.sprintf "%s: est %.3f vs exact %.3f" (H.kind_to_string kind)
            est exact)
         true
         (Float.abs (est -. exact) < 0.08))
    kinds

let test_serial_exact_on_skew () =
  (* serial histograms capture heavy hitters exactly *)
  let data =
    Array.concat
      [ Array.make 5000 7.0; Array.make 100 3.0; Array.init 400 float_of_int ]
  in
  let h = H.build H.Serial ~buckets:8 data in
  Alcotest.(check (float 0.005)) "heavy hitter exact" (exact_eq data 7.0)
    (H.est_eq h 7.0)

let test_equi_width_bad_on_skew () =
  (* equi-width smears heavy hitters across the bucket: the error that
     motivates the paper's skew experiment *)
  let data = Array.concat [ Array.make 5000 7.0; Array.init 5000 (fun i -> float_of_int (i mod 1000)) ] in
  let serial = H.build H.Serial ~buckets:8 data in
  let ew = H.build H.Equi_width ~buckets:8 data in
  let exact = exact_eq data 7.0 in
  let err h = Float.abs (H.est_eq h 7.0 -. exact) in
  Alcotest.(check bool) "serial beats equi-width on heavy hitter" true
    (err serial < err ew)

let test_singleton_domain () =
  List.iter
    (fun kind ->
       let h = H.build kind ~buckets:8 (Array.make 50 42.0) in
       Alcotest.(check (float 0.01)) "eq all" 1.0 (H.est_eq h 42.0);
       Alcotest.(check (float 0.01)) "miss" 0.0 (H.est_eq h 41.0))
    kinds

let test_scale () =
  let h = H.build H.Maxdiff ~buckets:8 (uniform_data 100) in
  let h2 = H.scale h 100_000.0 in
  Alcotest.(check (float 1.0)) "scaled rows" 100_000.0 (H.total_rows h2);
  Alcotest.(check (float 0.02)) "selectivity invariant"
    (H.est_range h ~lo:(Some (10.0, true)) ~hi:(Some (20.0, true)))
    (H.est_range h2 ~lo:(Some (10.0, true)) ~hi:(Some (20.0, true)))

let test_join_selectivity_pk_fk () =
  (* keys 0..99 joined with 1000 FK references uniform over 0..99:
     selectivity should be about 1/100 *)
  let pk = Array.init 100 float_of_int in
  let fk = Array.init 1000 (fun i -> float_of_int (i mod 100)) in
  List.iter
    (fun kind ->
       let h1 = H.build kind ~buckets:16 pk in
       let h2 = H.build kind ~buckets:16 fk in
       let s = H.est_join_selectivity h1 h2 in
       Alcotest.(check bool)
         (Printf.sprintf "%s: join sel %.4f ~ 0.01" (H.kind_to_string kind) s)
         true
         (s > 0.003 && s < 0.03))
    kinds

let test_join_selectivity_disjoint () =
  let h1 = H.build H.Maxdiff ~buckets:8 (Array.init 100 float_of_int) in
  let h2 =
    H.build H.Maxdiff ~buckets:8 (Array.init 100 (fun i -> float_of_int (i + 1000)))
  in
  Alcotest.(check (float 1e-9)) "disjoint domains" 0.0
    (H.est_join_selectivity h1 h2)

let test_range_open_bounds () =
  let data = uniform_data 1000 in
  let h = H.build H.Maxdiff ~buckets:16 data in
  let le = H.est_range h ~lo:None ~hi:(Some (50.0, true)) in
  let lt = H.est_range h ~lo:None ~hi:(Some (50.0, false)) in
  Alcotest.(check bool) "lt <= le" true (lt <= le +. 1e-9)

let prop_range_in_unit_interval =
  QCheck.Test.make ~name:"est_range in [0,1]" ~count:200
    QCheck.(triple (list_of_size (Gen.int_range 1 200) (float_range (-100.) 100.))
              (float_range (-150.) 150.) (float_range (-150.) 150.))
    (fun (data, a, b) ->
       let lo = Float.min a b and hi = Float.max a b in
       List.for_all
         (fun kind ->
            let h = H.build kind ~buckets:8 (Array.of_list data) in
            let s = H.est_range h ~lo:(Some (lo, true)) ~hi:(Some (hi, true)) in
            s >= 0.0 && s <= 1.0)
         kinds)

let prop_eq_sums_to_one_serial =
  QCheck.Test.make ~name:"serial: eq estimates over all values sum to ~1"
    ~count:100
    QCheck.(list_of_size (Gen.int_range 1 100) (int_range 0 20))
    (fun ints ->
       let data = Array.of_list (List.map float_of_int ints) in
       let h = H.build H.Serial ~buckets:32 data in
       let values = List.sort_uniq compare ints in
       let total =
         List.fold_left (fun acc v -> acc +. H.est_eq h (float_of_int v)) 0.0
           values
       in
       Float.abs (total -. 1.0) < 0.05)

(* NaN once made building loop forever: the frequency table grouped with
   [=], which never holds for a NaN.  Every kind now terminates; the kinds
   that bucket by frequency rank keep every row, with all NaNs one value;
   equi-width divides by a NaN-wide range and may drop rows. *)
let test_nan_samples () =
  let samples =
    [ [| 1.5; Float.nan; 2.5 |];
      [| Float.nan; Float.nan |];
      Array.init 600 (fun i ->
          if i mod 7 = 0 then Float.nan else float_of_int (i mod 300)) ]
  in
  List.iter
    (fun data ->
       let n = float_of_int (Array.length data) in
       let classes =
         float_of_int
           (List.length (List.sort_uniq Float.compare (Array.to_list data)))
       in
       List.iter
         (fun kind ->
            List.iter
              (fun buckets ->
                 let h = H.build kind ~buckets data in
                 let name = Printf.sprintf "%s/%d" (H.kind_to_string kind) buckets in
                 match kind with
                 | H.Equi_depth | H.Maxdiff | H.Serial ->
                   Alcotest.(check (float 0.0)) (name ^ " rows") n (H.total_rows h);
                   Alcotest.(check (float 0.0)) (name ^ " distinct") classes
                     (H.distinct h)
                 | H.Equi_width ->
                   Alcotest.(check bool) (name ^ " rows <= n") true
                     (H.total_rows h <= n))
              [ 1; 4; 32 ])
         kinds)
    samples

(* [est_join_selectivity] as it was before it was specialised to closed
   intervals and unboxed, verbatim but for reading the buckets through
   [H.buckets]: the reference the property below holds the estimator to,
   bit for bit. *)
module Join_ref = struct
  open H

  let bucket_overlap b ~lo ~hi =
    let b_lo = b.lo and b_hi = b.hi in
    let q_lo, _lo_incl = match lo with Some (v, i) -> (v, i) | None -> (neg_infinity, true) in
    let q_hi, _hi_incl = match hi with Some (v, i) -> (v, i) | None -> (infinity, true) in
    if q_lo > b_hi || q_hi < b_lo then 0.0
    else if b_lo = b_hi then begin
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
        1.0 /. Float.max 1.0 b.distinct
      else
        Float.max
          ((eff_hi -. eff_lo) /. (b_hi -. b_lo))
          (1.0 /. Float.max 1.0 b.distinct)
    end

  let est_join_selectivity t1 t2 =
    if total_rows t1 <= 0.0 || total_rows t2 <= 0.0 then 0.0
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
             (Array.of_list (buckets t2)))
        (Array.of_list (buckets t1));
      Float.min 1.0 (!matches /. (total_rows t1 *. total_rows t2))
    end
end

(* Random histograms of every kind over values drawn from a small grid,
   so buckets share boundaries and one-value (singleton) buckets are
   common; no values at all gives the empty histogram.  Scaled by a
   random factor so row counts are not whole. *)
let gen_hist =
  QCheck.Gen.(
    let* kind = oneofl kinds in
    let* buckets = int_range 1 8 in
    let* picks = list_size (int_range 0 12) (int_range 0 24) in
    let* scale = float_range 0.1 50.0 in
    let values =
      Array.of_list
        (List.sort_uniq Float.compare
           (List.map (fun i -> float_of_int i /. 2.0) picks))
    in
    let* counts =
      flatten_l (List.init (Array.length values) (fun _ -> int_range 1 6))
    in
    let h = H.of_counts kind ~buckets values (Array.of_list counts) in
    return (if H.total_rows h > 0.0 then H.scale h (H.total_rows h *. scale)
            else h))

let prop_join_selectivity_reference =
  QCheck.Test.make ~name:"est_join_selectivity = reference, bit for bit"
    ~count:500
    (QCheck.make
       ~print:(fun (a, b) ->
           let show h =
             String.concat " "
               (List.map
                  (fun (b : H.bucket) ->
                     Printf.sprintf "[%h,%h r=%h d=%h]" b.H.lo b.H.hi b.H.rows
                       b.H.distinct)
                  (H.buckets h))
           in
           show a ^ " | " ^ show b)
       QCheck.Gen.(pair gen_hist gen_hist))
    (fun (a, b) ->
       Int64.equal
         (Int64.bits_of_float (H.est_join_selectivity a b))
         (Int64.bits_of_float (Join_ref.est_join_selectivity a b)))

let suite =
  [ Alcotest.test_case "empty" `Quick test_empty;
    Alcotest.test_case "total rows" `Quick test_total_rows;
    Alcotest.test_case "distinct count" `Quick test_distinct_count;
    Alcotest.test_case "full range = 1" `Quick test_full_range_is_one;
    Alcotest.test_case "uniform range estimate" `Quick test_uniform_range_estimate;
    Alcotest.test_case "serial exact on skew" `Quick test_serial_exact_on_skew;
    Alcotest.test_case "equi-width bad on skew" `Quick test_equi_width_bad_on_skew;
    Alcotest.test_case "singleton domain" `Quick test_singleton_domain;
    Alcotest.test_case "scale" `Quick test_scale;
    Alcotest.test_case "join selectivity pk/fk" `Quick test_join_selectivity_pk_fk;
    Alcotest.test_case "join selectivity disjoint" `Quick test_join_selectivity_disjoint;
    Alcotest.test_case "open bounds" `Quick test_range_open_bounds;
    Alcotest.test_case "NaN samples terminate" `Quick test_nan_samples;
    QCheck_alcotest.to_alcotest prop_range_in_unit_interval;
    QCheck_alcotest.to_alcotest prop_eq_sums_to_one_serial;
    QCheck_alcotest.to_alcotest prop_join_selectivity_reference ]
