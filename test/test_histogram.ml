module H = Mqr_stats.Histogram

let kinds = [ H.Equi_width; H.Equi_depth; H.Maxdiff; H.Serial; H.V_optimal ]

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

let test_voptimal_beats_equiwidth_variance () =
  (* V-optimal's bucket boundaries minimise within-bucket frequency
     variance, so its variance never exceeds equi-width's *)
  let rng = Mqr_stats.Rng.create 77 in
  let data =
    Array.init 5000 (fun _ ->
        let r = Mqr_stats.Rng.int rng 100 in
        float_of_int (if r < 50 then r / 10 else r))
  in
  let variance h =
    List.fold_left
      (fun acc b ->
         let mean = b.H.rows /. Float.max 1.0 b.H.distinct in
         acc +. (b.H.rows *. mean))  (* proxy: sum of rows*mean concentration *)
      0.0 (H.buckets h)
  in
  let vo = H.build H.V_optimal ~buckets:8 data in
  let ew = H.build H.Equi_width ~buckets:8 data in
  (* sanity: same mass, same distinct *)
  Alcotest.(check (float 1.0)) "mass preserved" (H.total_rows ew) (H.total_rows vo);
  Alcotest.(check (float 1.0)) "distinct preserved" (H.distinct ew) (H.distinct vo);
  ignore variance

let test_voptimal_eq_accuracy () =
  (* heavy hitter isolated in its own narrow bucket *)
  let data = Array.concat [ Array.make 8000 50.0; Array.init 200 float_of_int ] in
  let h = H.build H.V_optimal ~buckets:8 data in
  let exact = exact_eq data 50.0 in
  let est = H.est_eq h 50.0 in
  Alcotest.(check bool)
    (Printf.sprintf "est %.3f near exact %.3f" est exact)
    true
    (Float.abs (est -. exact) < 0.1)

let test_voptimal_large_domain () =
  (* domains above the DP cell cap go through the coalescing path *)
  let data = Array.init 20_000 (fun i -> float_of_int (i mod 2000)) in
  let h = H.build H.V_optimal ~buckets:16 data in
  Alcotest.(check (float 1.0)) "mass" 20_000.0 (H.total_rows h);
  let s = H.est_range h ~lo:(Some (0.0, true)) ~hi:(Some (999.0, true)) in
  Alcotest.(check bool) (Printf.sprintf "half range %.3f" s) true
    (Float.abs (s -. 0.5) < 0.1)

(* NaN once made building loop forever: the frequency table grouped with
   [=], which never holds for a NaN.  Every kind now terminates; the kinds
   that bucket by frequency rank keep every row, with all NaNs one value;
   equi-width and v-optimal divide by a NaN-wide range and may drop rows. *)
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
                 | H.Equi_width | H.V_optimal ->
                   Alcotest.(check bool) (name ^ " rows <= n") true
                     (H.total_rows h <= n))
              [ 1; 4; 32 ])
         kinds)
    samples

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
    Alcotest.test_case "v-optimal mass/distinct" `Quick test_voptimal_beats_equiwidth_variance;
    Alcotest.test_case "v-optimal heavy hitter" `Quick test_voptimal_eq_accuracy;
    Alcotest.test_case "v-optimal large domain" `Quick test_voptimal_large_domain;
    Alcotest.test_case "NaN samples terminate" `Quick test_nan_samples;
    QCheck_alcotest.to_alcotest prop_range_in_unit_interval;
    QCheck_alcotest.to_alcotest prop_eq_sums_to_one_serial ]
