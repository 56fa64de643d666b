(* Buffer pool, heap files, B+-tree. *)
open Mqr_storage

let test_pool_hit_miss () =
  let pool = Buffer_pool.create ~capacity_pages:2 in
  Alcotest.(check bool) "first access misses" false
    (Buffer_pool.access pool ~file:1 ~page:0);
  Alcotest.(check bool) "second access hits" true
    (Buffer_pool.access pool ~file:1 ~page:0);
  Alcotest.(check int) "hits" 1 (Buffer_pool.hits pool);
  Alcotest.(check int) "misses" 1 (Buffer_pool.misses pool)

let test_pool_lru_eviction () =
  let pool = Buffer_pool.create ~capacity_pages:2 in
  ignore (Buffer_pool.access pool ~file:1 ~page:0);
  ignore (Buffer_pool.access pool ~file:1 ~page:1);
  ignore (Buffer_pool.access pool ~file:1 ~page:0);  (* 0 freshened *)
  ignore (Buffer_pool.access pool ~file:1 ~page:2);  (* evicts 1 *)
  Alcotest.(check bool) "0 still resident" true
    (Buffer_pool.access pool ~file:1 ~page:0);
  Alcotest.(check bool) "1 evicted" false
    (Buffer_pool.access pool ~file:1 ~page:1)

let test_pool_capacity_invariant () =
  let pool = Buffer_pool.create ~capacity_pages:8 in
  for i = 0 to 999 do
    ignore (Buffer_pool.access pool ~file:(i mod 3) ~page:i)
  done;
  Alcotest.(check bool) "resident <= capacity" true
    (Buffer_pool.resident pool <= 8)

let test_pool_queue_bounded () =
  (* repeated hits on a cached page must not grow memory without bound *)
  let pool = Buffer_pool.create ~capacity_pages:2 in
  for _ = 1 to 100_000 do
    ignore (Buffer_pool.access pool ~file:1 ~page:0)
  done;
  (* behaviour still correct after many hits *)
  ignore (Buffer_pool.access pool ~file:1 ~page:1);
  ignore (Buffer_pool.access pool ~file:1 ~page:2);  (* evicts page 0 *)
  Alcotest.(check bool) "page 2 resident" true
    (Buffer_pool.access pool ~file:1 ~page:2)

(* Reference LRU: a naive most-recent-first list to check the pool against,
   counting hits and misses the same way. *)
module Naive_lru = struct
  type t = {
    cap : int;
    mutable items : (int * int) list;
    mutable hits : int;
    mutable misses : int;
  }

  let create cap = { cap; items = []; hits = 0; misses = 0 }

  let access t key =
    let hit = List.mem key t.items in
    if hit then t.hits <- t.hits + 1 else t.misses <- t.misses + 1;
    t.items <- key :: List.filter (fun k -> k <> key) t.items;
    if List.length t.items > t.cap then
      t.items <- List.filteri (fun i _ -> i < t.cap) t.items;
    hit
end

(* Heap-file ids are small, B+-tree ids start at 1 000 000; pages come from
   a small hot range, a range in the thousands, or anywhere up to 9 999. *)
let pool_access =
  QCheck.make
    ~print:(fun (f, p) -> Printf.sprintf "(%d, %d)" f p)
    QCheck.Gen.(
      pair
        (oneofl [ 0; 1; 2; 7; 1_000_000; 1_000_003 ])
        (oneof [ int_range 0 40; int_range 2_000 2_060; int_range 0 9_999 ]))

let prop_pool_matches_naive_lru =
  QCheck.Test.make ~name:"buffer pool = reference LRU" ~count:100
    QCheck.(pair (int_range 1 64) (list_of_size (Gen.int_range 0 2000) pool_access))
    (fun (cap, accesses) ->
       let pool = Buffer_pool.create ~capacity_pages:cap in
       let naive = Naive_lru.create cap in
       List.for_all
         (fun (file, page) ->
            let a = Buffer_pool.access pool ~file ~page in
            let b = Naive_lru.access naive (file, page) in
            a = b
            && Buffer_pool.hits pool = naive.Naive_lru.hits
            && Buffer_pool.misses pool = naive.Naive_lru.misses
            && Buffer_pool.resident pool = List.length naive.Naive_lru.items)
         accesses)

(* A pool that was used, filled past its capacity, then reset to a
   capacity (its own, or any other) answers any access trace as a fresh
   pool of that capacity: every hit or miss, and the counters and
   residency after each access. *)
let prop_pool_reset_is_fresh =
  QCheck.Test.make ~name:"Buffer_pool.reset = a fresh pool" ~count:200
    QCheck.(
      quad (int_range 1 64) (option (int_range 1 64))
        (list_of_size (Gen.int_range 0 300) pool_access)
        (list_of_size (Gen.int_range 0 2000) pool_access))
    (fun (old_cap, new_cap, before, trace) ->
       let cap = Option.value new_cap ~default:old_cap in
       let reset = Buffer_pool.create ~capacity_pages:old_cap in
       List.iter (fun (file, page) -> ignore (Buffer_pool.access reset ~file ~page)) before;
       for page = 0 to 2 * old_cap do
         ignore (Buffer_pool.access reset ~file:5 ~page)
       done;
       Buffer_pool.reset reset ~capacity_pages:cap;
       let fresh = Buffer_pool.create ~capacity_pages:cap in
       let same () =
         Buffer_pool.hits reset = Buffer_pool.hits fresh
         && Buffer_pool.misses reset = Buffer_pool.misses fresh
         && Buffer_pool.resident reset = Buffer_pool.resident fresh
         && Buffer_pool.capacity reset = Buffer_pool.capacity fresh
       in
       same ()
       && List.for_all
            (fun (file, page) ->
               Buffer_pool.access reset ~file ~page = Buffer_pool.access fresh ~file ~page
               && same ())
            trace)

let small_schema =
  Schema.make [ Schema.col "k" Value.TInt; Schema.col "v" Value.TInt ]

let test_heap_append_get () =
  let h = Heap_file.create small_schema in
  for i = 0 to 99 do
    Heap_file.append h [| Value.Int i; Value.Int (i * i) |]
  done;
  Alcotest.(check int) "count" 100 (Heap_file.tuple_count h);
  Alcotest.(check bool) "get 42" true
    (Tuple.equal (Heap_file.get h 42) [| Value.Int 42; Value.Int 1764 |])

(* Cells that share a [Value.hash] but not their bits keep a code and a
   box each in one column's dictionary: 0.0 and -0.0, two nans of
   different payloads, Int 3 and Float 3.0.  Appended twice, the second
   round reuses the first round's codes and boxes. *)
let test_dictionary_hash_collisions () =
  let cells () =
    [| Value.Float 0.0; Value.Float (-0.0); Value.Float (Int64.float_of_bits 0x7ff8000000000000L);
       Value.Float (Int64.float_of_bits 0x7ff8000000000001L); Value.Int 3; Value.Float 3.0 |]
  in
  let first = cells () and again = cells () in
  let n = Array.length first in
  Alcotest.(check bool) "the pairs share a hash" true
    (List.for_all
       (fun (i, j) -> Value.hash first.(i) = Value.hash first.(j))
       [ (0, 1); (2, 3); (4, 5) ]);
  let h = Heap_file.create (Schema.make [ Schema.col "c" Value.TFloat ]) in
  Array.iter (fun v -> Heap_file.append h [| v |]) first;
  Array.iter (fun v -> Heap_file.append h [| v |]) again;
  match Heap_file.codes h 0 with
  | None -> Alcotest.fail "the column lost its dictionary"
  | Some c ->
    Alcotest.(check int) "one code each, and Null's" (n + 1) (Heap_file.code_count c);
    for r = 0 to (2 * n) - 1 do
      let k = (r mod n) + 1 in
      Alcotest.(check int) (Printf.sprintf "code of row %d" r) k (Heap_file.code c r);
      Alcotest.(check bool) (Printf.sprintf "box of row %d" r) true
        (Heap_file.code_box c k == first.(r mod n) && (Heap_file.get h r).(0) == first.(r mod n))
    done

let test_heap_paging () =
  let h = Heap_file.create small_schema in
  let per = Heap_file.tuples_per_page h in
  Alcotest.(check bool) "per page sensible" true (per > 1);
  for i = 0 to (3 * per) - 1 do
    Heap_file.append h [| Value.Int i; Value.Int i |]
  done;
  Alcotest.(check int) "pages" 3 (Heap_file.page_count h)

let test_heap_scan_charges () =
  let h = Heap_file.create small_schema in
  let per = Heap_file.tuples_per_page h in
  for i = 0 to (2 * per) - 1 do
    Heap_file.append h [| Value.Int i; Value.Int i |]
  done;
  let clock = Sim_clock.create () in
  let pool = Buffer_pool.create ~capacity_pages:16 in
  let read ~from_rid ~to_rid = Heap_file.read h ~pool ~clock ~from_rid ~to_rid in
  let all = read ~from_rid:0 ~to_rid:(2 * per) in
  Alcotest.(check int) "all tuples" (2 * per) (Array.length all);
  Alcotest.(check bool) "rid order" true
    (Array.for_all2 Tuple.equal all (Array.init (2 * per) (Heap_file.get h)));
  let c = Sim_clock.counters clock in
  Alcotest.(check int) "2 seq reads" 2 c.Sim_clock.seq_reads;
  let tuples = Sim_clock.create () in
  Sim_clock.charge_cpu_tuples tuples (2 * per);
  Alcotest.(check int64) "cpu of 2 * per tuples"
    (Int64.bits_of_float (Sim_clock.counters tuples).Sim_clock.cpu_ms)
    (Int64.bits_of_float c.Sim_clock.cpu_ms);
  (* rescan: pages now cached, no new reads *)
  ignore (read ~from_rid:0 ~to_rid:(2 * per));
  let c2 = Sim_clock.counters clock in
  Alcotest.(check int) "still 2 seq reads" 2 c2.Sim_clock.seq_reads;
  (* a range starting mid-page touches that page first, on a cold pool *)
  let clock = Sim_clock.create () in
  let pool = Buffer_pool.create ~capacity_pages:16 in
  let mid = Heap_file.read h ~pool ~clock ~from_rid:(per / 2) ~to_rid:(per + 1) in
  Alcotest.(check int) "range tuples" (per + 1 - (per / 2)) (Array.length mid);
  Alcotest.(check bool) "range starts at its rid" true
    (Tuple.equal mid.(0) (Heap_file.get h (per / 2)));
  Alcotest.(check int) "both pages read" 2
    (Sim_clock.counters clock).Sim_clock.seq_reads;
  Alcotest.(check int) "first page resident" 2 (Buffer_pool.resident pool);
  Alcotest.(check bool) "page 0 touched" true
    (Buffer_pool.access pool ~file:(Heap_file.file_id h) ~page:0);
  Alcotest.(check int) "clipped" 0
    (Array.length (Heap_file.read h ~pool ~clock ~from_rid:(3 * per) ~to_rid:(4 * per)))

let test_clock_snapshot_is_copy () =
  let clock = Sim_clock.create () in
  Sim_clock.charge_seq_read clock 3;
  Sim_clock.charge_cpu_tuples clock 10;
  let snap = Sim_clock.snapshot clock in
  let cpu = (Sim_clock.counters snap).Sim_clock.cpu_ms in
  Sim_clock.charge_seq_read clock 5;
  Sim_clock.charge_cpu_tuples clock 100;
  Sim_clock.charge_optimizer clock ~plans:4;
  let kept = Sim_clock.counters snap in
  Alcotest.(check int) "seq_reads kept" 3 kept.Sim_clock.seq_reads;
  Alcotest.(check int64) "cpu_ms kept" (Int64.bits_of_float (10.0 *. 0.004))
    (Int64.bits_of_float cpu);
  Alcotest.(check int64) "cpu_ms unchanged" (Int64.bits_of_float cpu)
    (Int64.bits_of_float kept.Sim_clock.cpu_ms);
  Alcotest.(check int) "opt_invocations kept" 0 kept.Sim_clock.opt_invocations;
  Alcotest.(check int) "clock moved on" 8
    (Sim_clock.counters clock).Sim_clock.seq_reads

(* What the ledger holds after a mix of charges, in ticks of 1e-4 ms:
   CPU 7_258_630, optimizer 245_790_000, elapsed 253_918_630 and 105_000
   since the snapshot, each read as one division by 1e4. *)
let test_clock_pinned () =
  let c = Sim_clock.create () in
  Sim_clock.charge_cpu_tuples c 120_130;
  Sim_clock.charge_hash_tuples c 77_777;
  Sim_clock.charge_sort_tuples c 4_321;
  Sim_clock.charge_seq_read c 17;
  Sim_clock.charge_rand_read c 5;
  Sim_clock.charge_write c 3;
  Sim_clock.charge_cpu_ms c 0.37;
  Sim_clock.charge_optimizer c ~plans:49_151;
  let snap = Sim_clock.snapshot c in
  Sim_clock.charge_hash_tuples c 1_000;
  Sim_clock.charge_optimizer c ~plans:7;
  Sim_clock.charge_seq_read c 2;
  let k = Sim_clock.counters c in
  let bits = Int64.bits_of_float in
  Alcotest.(check int64) "cpu_ms" 4649595974288360342L (bits k.Sim_clock.cpu_ms);
  Alcotest.(check int64) "opt_ms" 4672485438030610432L (bits k.Sim_clock.opt_ms);
  Alcotest.(check int64) "elapsed_ms" 4672708876110682653L
    (bits (Sim_clock.elapsed_ms c));
  Alcotest.(check int64) "since" 4622100592565682176L
    (bits (Sim_clock.since c snap))

(* Random charges of every kind (CPU milliseconds as the collectors,
   runtime filters, exchange, parallel startup and a worker's elapsed time
   charge them), from a clock other charges left somewhere, applied in
   order, shuffled, and with each run of one per-tuple kind merged into
   one call: the same counters, and bit for bit the same elapsed time,
   overall and since the snapshot. *)
let prop_charge_order =
  let rates =
    Sim_clock.[| collect_base_tuple_ms; collect_stat_tuple_ms; rf_build_tuple_ms;
                 rf_probe_tuple_ms; exchange_ms_per_page; parallel_startup_ms |]
  in
  let rec apply c (kind, k) =
    match kind with
    | 0 -> Sim_clock.charge_cpu_tuples c k
    | 1 -> Sim_clock.charge_hash_tuples c k
    | 2 -> Sim_clock.charge_sort_tuples c k
    | 3 -> Sim_clock.charge_seq_read c k
    | 4 -> Sim_clock.charge_rand_read c k
    | 5 -> Sim_clock.charge_write c k
    | 6 -> Sim_clock.charge_cpu_ms c (float_of_int k *. rates.(k mod 6))
    | 7 ->
      let worker = Sim_clock.create () in
      List.iter (apply worker) [ (0, k); (1, k / 3); (3, k mod 97) ];
      Sim_clock.charge_cpu_ms c (Sim_clock.elapsed_ms worker)
    | _ -> Sim_clock.charge_optimizer c ~plans:k
  in
  let rec merge = function
    | (kind, a) :: (kind', b) :: rest when kind = kind' && kind <= 2 ->
      merge ((kind, a + b) :: rest)
    | x :: rest -> x :: merge rest
    | [] -> []
  in
  let charge =
    QCheck.Gen.(pair (frequency [ (3, int_bound 2); (2, int_range 3 8) ]) (int_bound 100_000))
  in
  QCheck.Test.make ~name:"charge order does not matter" ~count:300
    (QCheck.make
       QCheck.Gen.(
         pair (list_size (int_bound 8) charge)
           (list_size (int_bound 40) charge >>= fun l -> pair (return l) (shuffle_l l))))
    (fun (start, (charges, shuffled)) ->
       let run charges =
         let c = Sim_clock.create () in
         List.iter (apply c) start;
         let snap = Sim_clock.snapshot c in
         List.iter (apply c) charges;
         ( Sim_clock.counters c,
           Int64.bits_of_float (Sim_clock.elapsed_ms c),
           Int64.bits_of_float (Sim_clock.since c snap) )
       in
       let in_order = run charges in
       in_order = run shuffled && in_order = run (merge charges))

(* One charge of each kind on a fresh clock, then all of them on one:
   the elapsed bits pin every clock rate. *)
let test_clock_rates_pinned () =
  let charges =
    [ ("seq_read", fun c -> Sim_clock.charge_seq_read c 3);
      ("rand_read", fun c -> Sim_clock.charge_rand_read c 5);
      ("write", fun c -> Sim_clock.charge_write c 7);
      ("cpu_tuples", fun c -> Sim_clock.charge_cpu_tuples c 11);
      ("hash_tuples", fun c -> Sim_clock.charge_hash_tuples c 13);
      ("sort_tuples", fun c -> Sim_clock.charge_sort_tuples c 17);
      ("cpu_ms", fun c -> Sim_clock.charge_cpu_ms c 0.37);
      ("optimizer", fun c -> Sim_clock.charge_optimizer c ~plans:19) ]
  in
  let all = Sim_clock.create () in
  let one =
    List.map
      (fun (name, charge) ->
         let c = Sim_clock.create () in
         charge c;
         charge all;
         (name, Int64.bits_of_float (Sim_clock.elapsed_ms c)))
      charges
  in
  Alcotest.(check (list (pair string int64))) "elapsed"
    [ ("seq_read", 4618441417868443648L);
      ("rand_read", 4630826316843712512L);
      ("write", 4626604192193052672L);
      ("cpu_tuples", 4586501889311132090L);
      ("hash_tuples", 4585781313370752811L);
      ("sort_tuples", 4585060737430373532L);
      ("cpu_ms", 4600336947366414254L);
      ("optimizer", 4621537642612260864L);
      ("all", 4635117895444875706L) ]
    (one @ [ ("all", Int64.bits_of_float (Sim_clock.elapsed_ms all)) ])

let test_btree_insert_lookup () =
  let bt = Btree.create ~fanout:4 () in
  for i = 0 to 999 do
    Btree.insert bt (Value.Int (i mod 100)) i
  done;
  Alcotest.(check int) "entries" 1000 (Btree.entry_count bt);
  Alcotest.(check int) "keys" 100 (Btree.key_count bt);
  Alcotest.(check int) "rids per key" 10 (List.length (Btree.lookup bt (Value.Int 7)));
  Alcotest.(check (list int)) "missing key" [] (Btree.lookup bt (Value.Int 100))

let test_btree_structure () =
  let bt = Btree.create ~fanout:4 () in
  for i = 0 to 4999 do
    Btree.insert bt (Value.Int i) i
  done;
  (match Btree.check bt with
   | Ok () -> ()
   | Error e -> Alcotest.failf "structure violated: %s" e);
  Alcotest.(check bool) "height grows" true (Btree.height bt >= 4)

let test_btree_range () =
  let bt = Btree.create () in
  for i = 0 to 999 do
    Btree.insert bt (Value.Int i) i
  done;
  let collected =
    Btree.probe bt ~pool:(Buffer_pool.create ~capacity_pages:64)
      ~clock:(Sim_clock.create ()) ~lo:(Value.Int 100) ~hi:(Value.Int 109) ()
  in
  Alcotest.(check int) "10 keys" 10 (List.length collected);
  let sorted = List.sort compare collected in
  Alcotest.(check (list int)) "right rids" (List.init 10 (fun i -> 100 + i)) sorted

let test_btree_probe_charges () =
  let bt = Btree.create () in
  for i = 0 to 9999 do
    Btree.insert bt (Value.Int i) i
  done;
  let clock = Sim_clock.create () in
  let pool = Buffer_pool.create ~capacity_pages:64 in
  let rids = Btree.probe bt ~pool ~clock ~lo:(Value.Int 5) ~hi:(Value.Int 5) () in
  Alcotest.(check (list int)) "found" [ 5 ] rids;
  let c = Sim_clock.counters clock in
  Alcotest.(check bool) "descent charged" true (c.Sim_clock.rand_reads >= 1);
  (* repeated probe hits cache *)
  let before = (Sim_clock.counters clock).Sim_clock.rand_reads in
  ignore (Btree.probe bt ~pool ~clock ~lo:(Value.Int 5) ~hi:(Value.Int 5) ());
  let after = (Sim_clock.counters clock).Sim_clock.rand_reads in
  Alcotest.(check int) "cached probe free" before after

let test_btree_null_rejected () =
  let bt = Btree.create () in
  Alcotest.check_raises "null key" (Invalid_argument "Btree.insert: Null key")
    (fun () -> Btree.insert bt Value.Null 0)

let prop_btree_matches_reference =
  QCheck.Test.make ~name:"btree lookup = reference assoc" ~count:100
    QCheck.(list_of_size (Gen.int_range 0 400) (int_range 0 50))
    (fun keys ->
       let bt = Btree.create ~fanout:5 () in
       List.iteri (fun rid k -> Btree.insert bt (Value.Int k) rid) keys;
       (match Btree.check bt with Ok () -> () | Error e -> QCheck.Test.fail_report e);
       List.for_all
         (fun k ->
            let expect =
              List.mapi (fun rid k' -> (k', rid)) keys
              |> List.filter (fun (k', _) -> k' = k)
              |> List.map snd |> List.sort compare
            in
            let got = List.sort compare (Btree.lookup bt (Value.Int k)) in
            got = expect)
         (List.sort_uniq compare keys))

let prop_btree_range_matches =
  QCheck.Test.make ~name:"btree range = reference filter" ~count:100
    QCheck.(pair (list_of_size (Gen.int_range 0 300) (int_range 0 100))
              (pair (int_range 0 100) (int_range 0 100)))
    (fun (keys, (a, b)) ->
       let lo = min a b and hi = max a b in
       let bt = Btree.create ~fanout:4 () in
       List.iteri (fun rid k -> Btree.insert bt (Value.Int k) rid) keys;
       let expect =
         List.mapi (fun rid k -> (k, rid)) keys
         |> List.filter (fun (k, _) -> k >= lo && k <= hi)
         |> List.map snd |> List.sort compare
       in
       let got =
         Btree.probe bt ~pool:(Buffer_pool.create ~capacity_pages:64)
           ~clock:(Sim_clock.create ()) ~lo:(Value.Int lo) ~hi:(Value.Int hi) ()
       in
       List.sort compare got = expect)

(* Ranges over trees of few keys, many rids each, on leaves of 4-7 keys:
   the range spans leaves and stops inside one.  A probe returns the
   (key, rid) pairs inside the range in key order, each key's rids newest
   first (the order [insert] keeps them in); an absent bound is open. *)
let prop_btree_probe_is_ordered_filter =
  QCheck.Test.make ~name:"btree probe = ordered filter of every pair"
    ~count:200
    QCheck.(
      quad (int_range 4 7) (list_of_size (Gen.int_range 0 600) (int_range 0 40))
        (option (int_range (-2) 42)) (option (int_range (-2) 42)))
    (fun (fanout, keys, lo, hi) ->
       let bt = Btree.create ~fanout () in
       List.iteri (fun rid k -> Btree.insert bt (Value.Int k) rid) keys;
       let inside k =
         Option.fold ~none:true ~some:(fun l -> k >= l) lo
         && Option.fold ~none:true ~some:(fun h -> k <= h) hi
       in
       let expect =
         List.mapi (fun rid k -> (k, rid)) keys
         |> List.filter (fun (k, _) -> inside k)
         |> List.stable_sort (fun (a, r) (b, s) ->
             if a <> b then compare a b else compare s r)
         |> List.map snd
       in
       let v = Option.map (fun k -> Value.Int k) in
       Btree.probe bt ~pool:(Buffer_pool.create ~capacity_pages:64)
         ~clock:(Sim_clock.create ()) ?lo:(v lo) ?hi:(v hi) ()
       = expect)

(* The clock after seeded point and range probes through a small pool,
   recorded from the probe that walked each leaf to its end: a probe that
   stops at the first key past its bound charges the same. *)
let test_btree_probe_clock_pinned () =
  let rng = Mqr_stats.Rng.create 67 in
  let int n = Mqr_stats.Rng.int rng n in
  let log = Buffer.create 4096 in
  for _ = 1 to 20 do
    let bt = Btree.create ~fanout:(4 + int 4) () in
    for rid = 0 to int 800 - 1 do
      Btree.insert bt (Value.Int (int 40)) rid
    done;
    let pool = Buffer_pool.create ~capacity_pages:8 in
    let clock = Sim_clock.create () in
    for _ = 1 to 30 do
      let a = int 44 - 2 in
      let b = if int 2 = 0 then a else int 44 - 2 in
      let bound x = if int 6 = 0 then None else Some (Value.Int x) in
      let rids =
        Btree.probe bt ~pool ~clock ?lo:(bound (min a b)) ?hi:(bound (max a b))
          ()
      in
      let c = Sim_clock.counters clock in
      Buffer.add_string log
        (Printf.sprintf "%d %d %d %h %h;" (List.length rids)
           c.Sim_clock.rand_reads c.Sim_clock.seq_reads c.Sim_clock.cpu_ms
           (Sim_clock.elapsed_ms clock))
    done
  done;
  Alcotest.(check string) "clock digest" "c991c4e93fce31c48c28c535cf8ea2f0"
    (Digest.to_hex (Digest.string (Buffer.contents log)))

(* A heap adopted from an array by [of_rows] is the heap [create] plus one
   [append] per row builds: same counts, same rows, and every [read] over
   the same range returns the same tuples with the same clock charges and
   pool hits and misses (each heap gets its own pool, since file ids
   differ).  A further append to both must keep them equal, including on
   an adopted empty array. *)
let heap_case_gen =
  QCheck.Gen.(
    let value_of ty =
      frequency
        [ (1, return Value.Null);
          ( 8,
            match ty with
            | Value.TInt -> map (fun i -> Value.Int i) (int_range (-1000) 1000)
            | Value.TFloat ->
              map (fun f -> Value.Float f) (float_bound_inclusive 1e3)
            | Value.TString ->
              map (fun s -> Value.String s) (string_size (int_range 0 12))
            | Value.TBool -> map (fun b -> Value.Bool b) bool
            | Value.TDate -> map (fun d -> Value.Date d) (int_range 0 20000) ) ]
    in
    let* tys =
      list_size (int_range 1 5)
        (oneofl Value.[ TInt; TFloat; TString; TBool; TDate ])
    in
    let* widths = flatten_l (List.map (fun _ -> int_range 1 600) tys) in
    let row = flatten_l (List.map value_of tys) in
    let* rows =
      list_size (frequency [ (1, return 0); (9, int_range 1 300) ]) row
    in
    let* extra = row in
    let* capacity = int_range 1 8 in
    let rid = int_range (-5) 310 in
    let* ranges = list_size (int_range 1 12) (pair rid rid) in
    return (tys, widths, rows, extra, capacity, ranges))

let prop_of_rows_matches_append =
  QCheck.Test.make ~name:"Heap_file.of_rows = create + append" ~count:200
    (QCheck.make heap_case_gen)
    (fun (tys, widths, rows, extra, capacity, ranges) ->
       let schema =
         Schema.make
           (List.mapi
              (fun i (ty, width) ->
                 Schema.col ~width (Printf.sprintf "c%d" i) ty)
              (List.combine tys widths))
       in
       let rows = List.map Array.of_list rows in
       let appended = Heap_file.create schema in
       List.iter (Heap_file.append appended) rows;
       let adopted = Heap_file.of_rows schema (Array.of_list rows) in
       let same_rows a b =
         Array.length a = Array.length b && Array.for_all2 Tuple.equal a b
       in
       let same_file () =
         Heap_file.tuple_count appended = Heap_file.tuple_count adopted
         && Heap_file.page_count appended = Heap_file.page_count adopted
         && same_rows (Heap_file.rows appended) (Heap_file.rows adopted)
       in
       let reader h =
         let pool = Buffer_pool.create ~capacity_pages:capacity in
         let clock = Sim_clock.create () in
         fun (from_rid, to_rid) ->
           let tuples = Heap_file.read h ~pool ~clock ~from_rid ~to_rid in
           ( tuples,
             Sim_clock.counters clock,
             Buffer_pool.hits pool,
             Buffer_pool.misses pool )
       in
       let read_a = reader appended and read_b = reader adopted in
       let same_reads =
         List.for_all
           (fun range ->
              let ta, ca, ha, ma = read_a range
              and tb, cb, hb, mb = read_b range in
              same_rows ta tb && ca = cb && ha = hb && ma = mb)
           ranges
       in
       let before = same_file () in
       Heap_file.append appended (Array.of_list extra);
       Heap_file.append adopted (Array.of_list extra);
       before && same_reads && same_file ())

(* Interning changes only the representation.  Rows of mixed cells, each
   a fresh box: Int, Float (both zeros, nans of three bit patterns, both
   infinities, integral floats equal to Ints of the same column), String,
   Date, Bool and Null.  A reference model per column replays the
   dictionary: while it holds fewer than 4096 values, a cell whose bits
   were appended before is stored as the first box with those bits and a
   new one as itself; once it holds 4096, every later cell is stored as
   itself.  Every stored cell keeps its constructor and bits.  Wide cases
   push column 0 past 4096 distinct ints. *)
let bits_key (v : Value.t) =
  match v with
  | Null -> "N"
  | Bool b -> "B" ^ string_of_bool b
  | Int i -> "I" ^ string_of_int i
  | Float f -> "F" ^ Int64.to_string (Int64.bits_of_float f)
  | String s -> "S" ^ s
  | Date d -> "D" ^ string_of_int d

let intern_number =
  QCheck.Gen.(
    let floats =
      [ 0.0; -0.0; Float.nan; -.Float.nan;
        Int64.float_of_bits 0x7FF0000000000001L; infinity; neg_infinity;
        1.0; 3.0; 2.5; -7.0 ]
    in
    frequency
      [ (1, return Value.Null);
        (3, map (fun i -> Value.Int i) (int_range (-8) 8));
        (4, map (fun f -> Value.Float f) (oneofl floats)) ])

let intern_cell =
  QCheck.Gen.(
    frequency
      [ (8, intern_number);
        (2, map (fun s -> Value.String s) (oneofl [ ""; "a"; "R"; "abcdefghij" ]));
        (2, map (fun d -> Value.Date d) (int_range 0 8));
        (1, map (fun b -> Value.Bool b) bool) ])

let intern_wide_cell = QCheck.Gen.map (fun i -> Value.Int i) (QCheck.Gen.int_range 0 50_000)

let intern_case_gen =
  QCheck.Gen.(
    let* wide = frequency [ (1, return true); (9, return false) ] in
    let* cols = int_range 1 4 in
    let* n = if wide then return 6000 else int_range 0 300 in
    list_repeat n
      (map2 (fun first rest -> Array.of_list (first :: rest))
         (if wide then intern_wide_cell else intern_cell)
         (list_repeat (cols - 1) intern_cell)))

let prop_interning_is_representation_only =
  QCheck.Test.make ~name:"interning changes only the representation" ~count:60
    (QCheck.make intern_case_gen)
    (fun rows ->
       let cols = match rows with [] -> 1 | r :: _ -> Array.length r in
       let schema =
         Schema.make
           (List.init cols (fun i -> Schema.col (Printf.sprintf "c%d" i) Value.TInt))
       in
       let h = Heap_file.create schema in
       let given = List.map Array.copy rows in
       List.iter (Heap_file.append h) rows;
       let firsts = Array.init cols (fun _ -> Hashtbl.create 64) in
       let alive = Array.make cols true in
       List.for_all Fun.id
         (List.mapi
            (fun rid (cells : Tuple.t) ->
               let stored = Heap_file.get h rid in
               Array.length stored = cols
               && List.for_all Fun.id
                    (List.init cols (fun c ->
                         let v = cells.(c) and s = stored.(c) in
                         let k = bits_key v in
                         bits_key s = k
                         &&
                         match v with
                         | Value.Null -> true
                         | _ when not alive.(c) -> s == v
                         | _ -> (
                             match Hashtbl.find_opt firsts.(c) k with
                             | Some first -> s == first
                             | None ->
                               Hashtbl.add firsts.(c) k s;
                               if Hashtbl.length firsts.(c) = 4096 then
                                 alive.(c) <- false;
                               s == v))))
            given))
(* Payloads follow the rows through [append] and [retain].  Column 0
   takes Int keys (or Date keys; some cases add 2^53 or -2^61 to them)
   from a domain wide enough that its dictionary drops partway through
   (3500 keys first, then batches of up to 1500), sometimes a stray cell (Null, a Float, the other of Int and Date, a
   String) first or afterwards.  After each step a model says what the
   column keeps: codes until its 4096th distinct non-null value; then
   payloads if the keys are Ints and every row it holds at that moment,
   and the new one, is an Int; payloads until a stray cell arrives, then
   nothing for good.  A Date column keeps nothing past its dictionary:
   it ends [Plain].  Kept payloads are the rows' keys by rid, and the
   rows and payloads a reader took before a step still agree after
   it. *)
let prop_payloads_track_rows =
  QCheck.Test.make ~name:"Heap_file payloads = the rows' keys" ~count:60
    (QCheck.make
       QCheck.Gen.(
         quad (int_bound 1_000_000) bool (oneofl [ 0; 1 lsl 53; -(1 lsl 61) ])
           (list_size (int_range 2 10) (int_bound 9))))
    (fun (seed, date, offset, steps) ->
       let st = Random.State.make [| seed |] in
       let key k : Value.t = if date then Date (offset + k) else Int (offset + k) in
       let of_kind (v : Value.t) = match v with Int _ -> not date | _ -> false in
       let payload_of (v : Value.t) =
         match v with Int x -> x | _ -> invalid_arg "payload_of"
       in
       let schema = Schema.make [ Schema.col "k" Value.TInt; Schema.col "v" Value.TInt ] in
       let h = Heap_file.create schema in
       let seen = Hashtbl.create 4096 and state = ref `Coded in
       let add (v : Value.t) =
         (match !state with
          | `Coded when v <> Value.Null ->
            Hashtbl.replace seen (bits_key v) ();
            if Hashtbl.length seen = 4096 then
              state :=
                if of_kind v && Array.for_all (fun t -> of_kind t.(0)) (Heap_file.rows h)
                then `Unboxed
                else `Boxed
          | `Unboxed when not (of_kind v) -> state := `Boxed
          | _ -> ());
         Heap_file.append h [| v; Value.Int (Random.State.int st 3) |]
       in
       let stray () =
         match Random.State.int st 4 with
         | 0 -> Value.Null
         | 1 -> Value.Float 1.5
         | 2 -> if date then Value.Int 7 else Value.Date 7
         | _ -> Value.String "x"
       in
       let agree rows p =
         Array.for_all Fun.id
           (Array.mapi (fun rid t -> Heap_file.payload p rid = payload_of t.(0)) rows)
       in
       let kept () =
         let rows = Heap_file.rows h in
         match !state, Heap_file.view h 0 with
         | `Coded, Codes _ | `Boxed, Plain -> true
         | `Unboxed, Ints p -> agree rows p
         | _ -> false
       in
       for _ = 1 to 3500 do
         add (key (Random.State.int st 1_000_000))
       done;
       kept ()
       && List.for_all
            (fun step ->
               let before = (Heap_file.rows h, Heap_file.view h 0) in
               (match step with
                | 0 | 1 | 2 | 3 ->
                  let n = 1 + Random.State.int st 1500 in
                  let sorted = Random.State.bool st in
                  let start = Random.State.int st 1_000_000 in
                  for i = 0 to n - 1 do
                    add
                      (key (if sorted then start + (i / 2) else Random.State.int st 1_000_000))
                  done
                | 4 | 5 ->
                  ignore (Heap_file.retain h (fun _ -> Random.State.int st 4 <> 0))
                | 6 -> ignore (Heap_file.retain h (fun _ -> true))
                | 7 -> add (stray ())
                | _ ->
                  for _ = 1 to 1 + Random.State.int st 20 do
                    add (key (Random.State.int st 100))
                  done);
               let old_ok =
                 match before with
                 | rows, Ints p -> agree rows p
                 | _ -> true
               in
               old_ok && kept ())
            steps)

(* Float payloads follow the rows through [append] and [retain], as the
   int payloads do.  Column 0 takes Float keys of random bits (every nan
   payload, both zeros, both infinities, subnormals; 4000 first, then
   batches of up to 1500), so its dictionary drops partway through; a
   stray cell (Null, an Int, a String) may come
   first or afterwards.  A model says what the column keeps after each
   step: codes until its 4096th distinct non-null value; then floats if
   every row it holds at that moment, and the new one, is a Float; floats
   until a stray cell arrives, then nothing for good.  Kept floats are
   the rows' cells bit for bit, and the rows and floats a reader took
   before a step still agree after it. *)
let prop_float_payloads_track_rows =
  QCheck.Test.make ~name:"Heap_file float payloads = the rows' floats" ~count:60
    (QCheck.make
       QCheck.Gen.(pair (int_bound 1_000_000) (list_size (int_range 2 10) (int_bound 9))))
    (fun (seed, steps) ->
       let st = Random.State.make [| seed |] in
       let key () : Value.t =
         match Random.State.int st 40 with
         | 0 -> Float (-0.0)
         | 1 -> Float 0.0
         | 2 -> Float (Int64.float_of_bits 0x7FF0000000000001L)
         | 3 -> Float neg_infinity
         | _ -> Float (Int64.float_of_bits (Random.State.bits64 st))
       in
       let is_float (v : Value.t) = match v with Float _ -> true | _ -> false in
       let schema = Schema.make [ Schema.col "k" Value.TFloat; Schema.col "v" Value.TInt ] in
       let h = Heap_file.create schema in
       let seen = Hashtbl.create 4096 and state = ref `Coded in
       let add (v : Value.t) =
         (match !state with
          | `Coded when v <> Value.Null ->
            Hashtbl.replace seen (bits_key v) ();
            if Hashtbl.length seen = 4096 then
              state :=
                if is_float v && Array.for_all (fun t -> is_float t.(0)) (Heap_file.rows h)
                then `Floats
                else `Boxed
          | `Floats when not (is_float v) -> state := `Boxed
          | _ -> ());
         Heap_file.append h [| v; Value.Int (Random.State.int st 3) |]
       in
       let stray () =
         match Random.State.int st 3 with
         | 0 -> Value.Null
         | 1 -> Value.Int 7
         | _ -> Value.String "x"
       in
       let agree rows f =
         Array.for_all Fun.id
           (Array.mapi
              (fun rid t ->
                 bits_key (Value.Float (Heap_file.float_payload f rid)) = bits_key t.(0))
              rows)
       in
       let kept () =
         let rows = Heap_file.rows h in
         match !state, Heap_file.view h 0 with
         | `Coded, Codes _ | `Boxed, Plain -> true
         | `Floats, Floats f -> agree rows f
         | _ -> false
       in
       for _ = 1 to 4000 do
         add (key ())
       done;
       kept ()
       && List.for_all
            (fun step ->
               let before = (Heap_file.rows h, Heap_file.view h 0) in
               (match step with
                | 0 | 1 | 2 | 3 ->
                  for _ = 1 to 1 + Random.State.int st 1500 do
                    add (key ())
                  done
                | 4 | 5 ->
                  ignore (Heap_file.retain h (fun _ -> Random.State.int st 4 <> 0))
                | 6 -> ignore (Heap_file.retain h (fun _ -> true))
                | 7 -> add (stray ())
                | _ -> add (Value.Float (-0.0)));
               let old_ok =
                 match before with
                 | rows, Floats f -> agree rows f
                 | _ -> true
               in
               old_ok && kept ())
            steps)

(* A coded column's [null_seen], read after each of random steps:
   appends (column 0 now and then Null, column 1 never), an explicit
   Null in column 0, a [retain] of random rows and one of the non-null
   rows.  The flag is set exactly when a Null was ever appended to the
   column, whatever [retain] deleted since, so it holds whenever a row
   read at that moment is Null; codes read before a step keep the flag
   they were read with. *)
let prop_null_seen_tracks_appends =
  QCheck.Test.make ~name:"Heap_file.null_seen = a Null was appended" ~count:100
    (QCheck.make
       QCheck.Gen.(
         triple (int_bound 1_000_000) (int_range 0 3)
           (list_size (int_range 1 12) (int_bound 5))))
    (fun (seed, null_rate, steps) ->
       let st = Random.State.make [| seed |] in
       let schema = Schema.make [ Schema.col "a" Value.TInt; Schema.col "b" Value.TInt ] in
       let h = Heap_file.create schema in
       let appended = [| false; false |] in
       let add (a : Value.t) =
         if Value.is_null a then appended.(0) <- true;
         Heap_file.append h [| a; Value.Int (Random.State.int st 9) |]
       in
       let cell () =
         if null_rate > 0 && Random.State.int st (4 * null_rate) = 0 then Value.Null
         else Value.Int (Random.State.int st 40)
       in
       let agrees () =
         let rows = Heap_file.rows h in
         List.for_all
           (fun i ->
              Option.map Heap_file.null_seen (Heap_file.codes h i) = Some appended.(i)
              && (appended.(i) || Array.for_all (fun t -> not (Value.is_null t.(i))) rows))
           [ 0; 1 ]
       in
       agrees ()
       && List.for_all
            (fun step ->
               let before = List.filter_map (Heap_file.codes h) [ 0; 1 ] in
               let flags_before = List.map Heap_file.null_seen before in
               (match step with
                | 0 | 1 ->
                  for _ = 1 to 1 + Random.State.int st 30 do
                    add (cell ())
                  done
                | 2 -> add Value.Null
                | 3 -> ignore (Heap_file.retain h (fun _ -> Random.State.int st 3 <> 0))
                | 4 -> ignore (Heap_file.retain h (fun t -> not (Value.is_null t.(0))))
                | _ -> ignore (Heap_file.retain h (fun _ -> true)));
               List.map Heap_file.null_seen before = flags_before && agrees ())
            steps)

let suite =
  [ Alcotest.test_case "pool hit/miss" `Quick test_pool_hit_miss;
    Alcotest.test_case "pool LRU eviction" `Quick test_pool_lru_eviction;
    Alcotest.test_case "pool capacity invariant" `Quick test_pool_capacity_invariant;
    Alcotest.test_case "pool queue bounded" `Quick test_pool_queue_bounded;
    Alcotest.test_case "heap append/get" `Quick test_heap_append_get;
    Alcotest.test_case "heap paging" `Quick test_heap_paging;
    Alcotest.test_case "dictionary keeps hash-equal cells apart" `Quick
      test_dictionary_hash_collisions;
    Alcotest.test_case "heap scan charges" `Quick test_heap_scan_charges;
    Alcotest.test_case "clock snapshot is a copy" `Quick test_clock_snapshot_is_copy;
    Alcotest.test_case "clock pinned bits" `Quick test_clock_pinned;
    Alcotest.test_case "clock rates pinned bits" `Quick test_clock_rates_pinned;
    Alcotest.test_case "btree insert/lookup" `Quick test_btree_insert_lookup;
    Alcotest.test_case "btree structure" `Quick test_btree_structure;
    Alcotest.test_case "btree range" `Quick test_btree_range;
    Alcotest.test_case "btree probe charges" `Quick test_btree_probe_charges;
    Alcotest.test_case "btree null rejected" `Quick test_btree_null_rejected;
    QCheck_alcotest.to_alcotest prop_pool_matches_naive_lru;
    QCheck_alcotest.to_alcotest prop_pool_reset_is_fresh;
    QCheck_alcotest.to_alcotest prop_btree_matches_reference;
    QCheck_alcotest.to_alcotest prop_btree_range_matches;
    QCheck_alcotest.to_alcotest prop_btree_probe_is_ordered_filter;
    Alcotest.test_case "btree probe clock pinned bits" `Quick
      test_btree_probe_clock_pinned;
    QCheck_alcotest.to_alcotest prop_of_rows_matches_append;
    QCheck_alcotest.to_alcotest prop_interning_is_representation_only;
    QCheck_alcotest.to_alcotest prop_payloads_track_rows;
    QCheck_alcotest.to_alcotest prop_float_payloads_track_rows;
    QCheck_alcotest.to_alcotest prop_charge_order;
    QCheck_alcotest.to_alcotest prop_null_seen_tracks_appends ]
