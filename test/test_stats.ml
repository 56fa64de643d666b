(* Rng, Zipf, Reservoir, Distinct. *)
module Rng = Mqr_stats.Rng
module Zipf = Mqr_stats.Zipf
module Reservoir = Mqr_stats.Reservoir
module Distinct = Mqr_stats.Distinct
module Histogram = Mqr_stats.Histogram
module Float_sort = Mqr_stats.Float_sort
module Value = Mqr_storage.Value

let test_rng_deterministic () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_bounds () =
  let rng = Rng.create 1 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 17 in
    if v < 0 || v >= 17 then Alcotest.failf "out of range: %d" v
  done

let test_rng_float_unit () =
  let rng = Rng.create 2 in
  for _ = 1 to 10_000 do
    let f = Rng.float rng in
    if f < 0.0 || f >= 1.0 then Alcotest.failf "float out of range: %f" f
  done

let test_rng_split_independent () =
  let a = Rng.create 9 in
  let b = Rng.split a in
  let xs = List.init 20 (fun _ -> Rng.int a 1_000_000) in
  let ys = List.init 20 (fun _ -> Rng.int b 1_000_000) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

(* Streams pinned bit for bit: the first 32 draws of [int _ 1000],
   [float] and a [split] child's [int _ 1000], each from a fresh generator,
   digested per seed.  Digests recorded while the state was a boxed
   [int64]. *)
let test_rng_streams_pinned () =
  let draws seed =
    let buf = Buffer.create 1024 in
    let a = Rng.create seed in
    for _ = 1 to 32 do Printf.bprintf buf "%d;" (Rng.int a 1000) done;
    let b = Rng.create seed in
    for _ = 1 to 32 do
      Printf.bprintf buf "%Lx;" (Int64.bits_of_float (Rng.float b))
    done;
    let c = Rng.split (Rng.create seed) in
    for _ = 1 to 32 do Printf.bprintf buf "%d;" (Rng.int c 1000) done;
    Digest.to_hex (Digest.string (Buffer.contents buf))
  in
  List.iter
    (fun (seed, pinned) ->
       Alcotest.(check string) (Printf.sprintf "seed %#x" seed) pinned
         (draws seed))
    [ (0, "8b4f89ad25c5c629cae1dee1bf35b853"); (7, "5770d9299a756ea90dba9f0bd2eb7bef"); (0x5a17, "e7ee0e157ff8c1e826bf1c089f274a91"); (0x5eed, "227de63b5d4aa96cbee9222f79954984") ]

(* A draw allocates nothing: the generator's state is read and written
   unboxed.  The bound leaves room for [Gc.minor_words]'s own boxed
   result. *)
let test_rng_int_allocation_free () =
  let rng = Rng.create 0x5eed in
  let sink = ref 0 in
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    sink := !sink + Rng.int rng 1000
  done;
  let words = Gc.minor_words () -. before in
  if words >= 100.0 then
    Alcotest.failf "10 000 draws allocated %.0f minor words" words;
  Alcotest.(check bool) "drew" true (!sink > 0)

(* A collector-capacity reservoir over a 120 000-value stream keeps the
   same sample: each replacement slot is an [Rng.int] draw. *)
let test_reservoir_pinned () =
  let r = Reservoir.create ~capacity:1024 () in
  for i = 0 to 119_999 do
    Reservoir.add r (i * 7 mod 120_001)
  done;
  let buf = Buffer.create 8192 in
  Array.iter (Printf.bprintf buf "%d;") (Reservoir.sample r);
  Alcotest.(check string) "sample" "c9a638a5a1448fc72c7d5ed2982c8192"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let test_zipf_probs_sum () =
  let z = Zipf.create ~n:50 ~z:0.6 in
  let total = List.fold_left ( +. ) 0.0 (List.init 50 (fun i -> Zipf.prob z (i + 1))) in
  Alcotest.(check (float 1e-9)) "sums to 1" 1.0 total

let test_zipf_monotone () =
  let z = Zipf.create ~n:100 ~z:0.6 in
  for i = 1 to 99 do
    if Zipf.prob z i < Zipf.prob z (i + 1) -. 1e-12 then
      Alcotest.failf "prob not monotone at %d" i
  done

let test_zipf_uniform_when_zero () =
  let z = Zipf.create ~n:10 ~z:0.0 in
  for i = 1 to 10 do
    Alcotest.(check (float 1e-9)) "uniform" 0.1 (Zipf.prob z i)
  done

let test_zipf_sampling_skew () =
  let z = Zipf.create ~n:100 ~z:1.0 in
  let rng = Rng.create 5 in
  let counts = Array.make 100 0 in
  for _ = 1 to 20_000 do
    let i = Zipf.sample_index z rng in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check bool) "rank 1 much more frequent than rank 50" true
    (counts.(0) > 5 * max 1 counts.(49))

let test_reservoir_small_stream () =
  let r = Reservoir.create ~capacity:100 () in
  List.iter (Reservoir.add r) [ 1; 2; 3 ];
  Alcotest.(check int) "seen" 3 (Reservoir.seen r);
  Alcotest.(check int) "sample size" 3 (Array.length (Reservoir.sample r))

let test_reservoir_capacity_bound () =
  let r = Reservoir.create ~capacity:50 () in
  for i = 1 to 10_000 do
    Reservoir.add r i
  done;
  Alcotest.(check int) "seen" 10_000 (Reservoir.seen r);
  Alcotest.(check int) "capped" 50 (Array.length (Reservoir.sample r))

let test_reservoir_uniformish () =
  (* mean of a uniform 1..n stream sample should be near n/2 *)
  let n = 20_000 in
  let r = Reservoir.create ~rng:(Rng.create 3) ~capacity:500 () in
  for i = 1 to n do
    Reservoir.add r i
  done;
  let s = Reservoir.sample r in
  let mean =
    Array.fold_left (fun a x -> a +. float_of_int x) 0.0 s
    /. float_of_int (Array.length s)
  in
  Alcotest.(check bool) "mean within 15% of n/2" true
    (Float.abs (mean -. (float_of_int n /. 2.0)) < 0.15 *. float_of_int n)

let test_distinct_exact () =
  let d = Distinct.create () in
  List.iter (fun i -> Distinct.add d (Value.Int (i mod 37))) (List.init 1000 Fun.id);
  Alcotest.(check bool) "exact" true (Distinct.is_exact d);
  Alcotest.(check (float 0.01)) "37 distinct" 37.0 (Distinct.estimate d)

let test_distinct_fm_accuracy () =
  let d = Distinct.create ~exact_limit:100 () in
  let n = 50_000 in
  for i = 1 to n do
    Distinct.add d (Value.Int i)
  done;
  Alcotest.(check bool) "overflowed to sketch" true (not (Distinct.is_exact d));
  let est = Distinct.estimate d in
  Alcotest.(check bool)
    (Printf.sprintf "estimate %.0f within 2.5x of %d" est n)
    true
    (est > float_of_int n /. 2.5 && est < float_of_int n *. 2.5)

let test_distinct_repeats_ignored () =
  let d = Distinct.create () in
  for _ = 1 to 10_000 do
    Distinct.add d (Value.String "same")
  done;
  Alcotest.(check (float 0.01)) "one distinct" 1.0 (Distinct.estimate d)

(* Estimates pinned bit for bit: the exact counter and the sketch must
   keep seeing the same hashes.  Values recorded before the counter was
   reworked to hash each value once. *)
let test_distinct_pinned () =
  let check name ?exact_limit ~exact ~bits values =
    let d = Distinct.create ?exact_limit () in
    List.iter (Distinct.add d) values;
    Alcotest.(check bool) (name ^ " exact") exact (Distinct.is_exact d);
    Alcotest.(check int64) name bits (Int64.bits_of_float (Distinct.estimate d))
  in
  check "ints mod 37" ~exact:true ~bits:0x4042800000000000L
    (List.init 1000 (fun i -> Value.Int (i mod 37)));
  check "10k ints, limit 100" ~exact_limit:100 ~exact:false
    ~bits:0x40c32cba0df6b696L
    (List.init 10_000 (fun i -> Value.Int i));
  check "10k ints" ~exact:false ~bits:0x40c32cba0df6b696L
    (List.init 10_000 (fun i -> Value.Int i));
  check "strings" ~exact:true ~bits:0x405ec00000000000L
    (List.init 500 (fun i -> Value.String (Printf.sprintf "s%d" (i mod 123))));
  check "strings, limit 50" ~exact_limit:50 ~exact:false
    ~bits:0x409ee174fee289b7L
    (List.init 2000 (fun i -> Value.String (Printf.sprintf "key-%d" i)));
  check "floats" ~exact:true ~bits:0x406a600000000000L
    (List.init 800 (fun i -> Value.Float (float_of_int (i mod 211) *. 0.25)));
  check "dates" ~exact:true ~bits:0x4076d00000000000L
    (List.init 3000 (fun i -> Value.Date (8000 + (i mod 365))));
  check "dates, limit 100" ~exact_limit:100 ~exact:false
    ~bits:0x40a8556ca656bdd1L
    (List.init 3000 (fun i -> Value.Date (8000 + i)))

(* Histogram.build pinned bit for bit, one digest per kind over four
   samples and two bucket counts: ties, signed zeros, a 1024-value
   spread, descending runs.  Digests recorded
   before the sorts were specialised to float keys. *)
let test_histogram_pinned () =
  let rng = Rng.create 17 in
  let samples =
    [ Array.init 1500 (fun i ->
          match Rng.int rng 40 with
          | 0 -> if i land 1 = 0 then -0.0 else 0.0
          | k -> float_of_int (k * k) /. 8.0);
      Array.init 1024 (fun _ -> (Rng.float rng *. 1000.0) -. 200.0);
      Array.init 600 (fun i -> float_of_int ((600 - i) / 3));
      [| 3.0; -0.0; 1.0; 0.0; 2.0; 2.0; -0.0; 7.5 |] ]
  in
  let digest kind =
    let buf = Buffer.create 4096 in
    List.iter
      (fun data ->
         List.iter
           (fun buckets ->
              let h = Histogram.build kind ~buckets (Array.copy data) in
              List.iter
                (fun (b : Histogram.bucket) ->
                   Printf.bprintf buf "%Lx %Lx %Lx %Lx;"
                     (Int64.bits_of_float b.lo) (Int64.bits_of_float b.hi)
                     (Int64.bits_of_float b.rows)
                     (Int64.bits_of_float b.distinct))
                (Histogram.buckets h);
              Buffer.add_char buf '\n')
           [ 32; 6 ])
      samples;
    Digest.to_hex (Digest.string (Buffer.contents buf))
  in
  List.iter
    (fun (kind, pinned) ->
       Alcotest.(check string) (Histogram.kind_to_string kind) pinned
         (digest kind))
    [ (Histogram.Equi_width, "0c5ad3a47bdd1d0b3f0a5643dc324dec");
      (Histogram.Equi_depth, "d7fbc212253c63e9b94e249a20cf644f");
      (Histogram.Maxdiff, "22be4b4d01e39a074c1306ffc1000397");
      (Histogram.Serial, "578e5a3637057d88619dfb66e06302e9") ]

(* The specialised heapsort yields exactly Array.sort's permutation: keys
   from a small pool, so ties are many, with NaNs of three bit patterns and
   both zeros, whose order among equals shows in the bits; inputs random,
   ascending or descending. *)
let prop_float_sort_is_array_sort =
  let pool =
    [| 0.0; -0.0; Float.nan; -.Float.nan; Int64.float_of_bits 0x7FF0000000000001L;
       1.0; 2.5; -3.0; infinity; neg_infinity; 1e300 |]
  in
  let gen =
    QCheck.Gen.(
      triple (list_size (int_bound 300) (int_bound (Array.length pool - 1)))
        (oneofl [ `Random; `Ascending; `Descending ]) bool)
  in
  QCheck.Test.make ~name:"Float_sort = Array.sort permutation" ~count:300
    (QCheck.make gen)
    (fun (picks, order, descending) ->
       let keys = Array.of_list (List.map (fun i -> pool.(i)) picks) in
       let presort dir =
         Array.stable_sort (fun a b -> dir * Float.compare a b) keys
       in
       (match order with
        | `Random -> ()
        | `Ascending -> presort 1
        | `Descending -> presort (-1));
       let cmp (a, _) (b, _) =
         if descending then Float.compare b a else Float.compare a b
       in
       let expected = Array.mapi (fun i k -> (k, i)) keys in
       Array.sort cmp expected;
       let payload = Array.init (Array.length keys) Fun.id in
       Float_sort.sort ~descending keys payload;
       Array.for_all2
         (fun k (k', _) -> Int64.equal (Int64.bits_of_float k) (Int64.bits_of_float k'))
         keys expected
       && Array.for_all2 (fun p (_, p') -> p = p') payload expected)

let prop_rng_int_in_bounds =
  QCheck.Test.make ~name:"Rng.int stays in bounds" ~count:300
    QCheck.(pair small_int (int_range 1 10_000))
    (fun (seed, bound) ->
       let rng = Rng.create seed in
       let v = Rng.int rng bound in
       v >= 0 && v < bound)

let prop_reservoir_size =
  QCheck.Test.make ~name:"reservoir size = min(seen, capacity)" ~count:200
    QCheck.(pair (int_range 1 200) (int_range 0 500))
    (fun (cap, n) ->
       let r = Reservoir.create ~capacity:cap () in
       for i = 1 to n do
         Reservoir.add r i
       done;
       Array.length (Reservoir.sample r) = min cap n)

let suite =
  [ Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng float in [0,1)" `Quick test_rng_float_unit;
    Alcotest.test_case "rng split" `Quick test_rng_split_independent;
    Alcotest.test_case "rng streams pinned" `Quick test_rng_streams_pinned;
    Alcotest.test_case "rng draws allocate nothing" `Quick
      test_rng_int_allocation_free;
    Alcotest.test_case "zipf probs sum" `Quick test_zipf_probs_sum;
    Alcotest.test_case "zipf monotone" `Quick test_zipf_monotone;
    Alcotest.test_case "zipf z=0 uniform" `Quick test_zipf_uniform_when_zero;
    Alcotest.test_case "zipf sampling skew" `Quick test_zipf_sampling_skew;
    Alcotest.test_case "reservoir small stream" `Quick test_reservoir_small_stream;
    Alcotest.test_case "reservoir capacity" `Quick test_reservoir_capacity_bound;
    Alcotest.test_case "reservoir uniform-ish" `Quick test_reservoir_uniformish;
    Alcotest.test_case "reservoir sample pinned" `Quick test_reservoir_pinned;
    Alcotest.test_case "distinct exact" `Quick test_distinct_exact;
    Alcotest.test_case "distinct FM accuracy" `Quick test_distinct_fm_accuracy;
    Alcotest.test_case "distinct repeats" `Quick test_distinct_repeats_ignored;
    Alcotest.test_case "distinct estimates pinned" `Quick test_distinct_pinned;
    Alcotest.test_case "histograms pinned" `Quick test_histogram_pinned;
    QCheck_alcotest.to_alcotest prop_float_sort_is_array_sort;
    QCheck_alcotest.to_alcotest prop_rng_int_in_bounds;
    QCheck_alcotest.to_alcotest prop_reservoir_size ]
