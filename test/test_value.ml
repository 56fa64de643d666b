open Mqr_storage

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let test_compare_ints () =
  check_bool "1 < 2" true (Value.compare (Value.Int 1) (Value.Int 2) < 0);
  check_bool "2 > 1" true (Value.compare (Value.Int 2) (Value.Int 1) > 0);
  check_int "eq" 0 (Value.compare (Value.Int 5) (Value.Int 5))

let test_compare_mixed_numeric () =
  check_int "int vs equal float" 0
    (Value.compare (Value.Int 3) (Value.Float 3.0));
  check_bool "int < float" true
    (Value.compare (Value.Int 3) (Value.Float 3.5) < 0);
  check_bool "float > int" true
    (Value.compare (Value.Float 3.5) (Value.Int 3) > 0)

let test_null_sorts_first () =
  check_bool "null < int" true (Value.compare Value.Null (Value.Int (-100)) < 0);
  check_bool "null = null" true (Value.compare Value.Null Value.Null = 0)

let test_incompatible_compare () =
  Alcotest.check_raises "string vs int"
    (Invalid_argument "Value.compare: incompatible types") (fun () ->
      ignore (Value.compare (Value.String "a") (Value.Int 1)))

(* Values that are [Value.equal] hash alike: an Int and its Float, both
   zeros, every nan payload; and an Int payload hashes as its box. *)
let test_hash_numeric_consistency () =
  check_int "hash int = hash equal float" (Value.hash (Value.Int 7))
    (Value.hash (Value.Float 7.0));
  check_int "hash min_int = hash -2^62" (Value.hash (Value.Int min_int))
    (Value.hash (Value.Float (-0x1p62)));
  check_int "hash -0.0 = hash 0.0" (Value.hash (Value.Float 0.0))
    (Value.hash (Value.Float (-0.0)));
  List.iter
    (fun bits ->
       check_int (Printf.sprintf "hash nan 0x%Lx" bits) (Value.hash (Value.Float Float.nan))
         (Value.hash (Value.Float (Int64.float_of_bits bits))))
    [ 0x7ff8000000000000L; 0x7ff8000000000001L; 0xfff8000000000000L; 0x7ff0000000000001L ];
  List.iter
    (fun x ->
       check_int (Printf.sprintf "hash_payload %d" x) (Value.hash (Value.Int x))
         (Value.hash_payload x))
    [ 0; 1; -1; 9000; (1 lsl 53) + 1; max_int; min_int ]

let test_date_roundtrip () =
  List.iter
    (fun s ->
       match Value.date_of_string s with
       | Value.Date d -> check_string s s (Value.date_to_string d)
       | _ -> Alcotest.fail "not a date")
    [ "1992-01-01"; "1995-03-15"; "1998-08-02"; "2000-02-29"; "1970-01-01";
      "1969-12-31"; "2024-12-31" ]

let test_date_epoch () =
  match Value.date_of_string "1970-01-01" with
  | Value.Date d -> check_int "epoch day 0" 0 d
  | _ -> Alcotest.fail "not a date"

let test_date_ordering () =
  let d1 = Value.date_of_string "1994-01-01" in
  let d2 = Value.date_of_string "1994-12-31" in
  check_bool "jan < dec" true (Value.compare d1 d2 < 0)

let test_date_invalid () =
  List.iter
    (fun s ->
       check_bool s true
         (try
            ignore (Value.date_of_string s);
            false
          with Invalid_argument _ -> true))
    [ "not-a-date"; "1994-13-01"; "1994-00-10"; "1994-01-32"; "1994-01"; "" ]

let test_byte_size () =
  check_int "int" 8 (Value.byte_size (Value.Int 1));
  check_int "string" (4 + 5) (Value.byte_size (Value.String "hello"));
  check_int "null" 1 (Value.byte_size Value.Null)

let test_add () =
  check_bool "int add" true
    (Value.equal (Value.Int 3) (Value.add (Value.Int 1) (Value.Int 2)));
  check_bool "null identity" true
    (Value.equal (Value.Int 5) (Value.add Value.Null (Value.Int 5)));
  check_bool "mixed" true
    (Value.equal (Value.Float 3.5) (Value.add (Value.Int 1) (Value.Float 2.5)))

let test_min_max () =
  check_bool "min" true
    (Value.equal (Value.Int 1) (Value.min_value (Value.Int 1) (Value.Int 2)));
  check_bool "max skips null" true
    (Value.equal (Value.Int 2) (Value.max_value Value.Null (Value.Int 2)))

let test_to_from_float () =
  check_bool "bool to float" true (Value.to_float (Value.Bool true) = 1.0)

(* property: date_to_string/date_of_string round-trip over a wide range *)
let prop_date_roundtrip =
  QCheck.Test.make ~name:"date day-number roundtrip" ~count:500
    QCheck.(int_range (-100_000) 100_000)
    (fun day ->
       match Value.date_of_string (Value.date_to_string day) with
       | Value.Date d -> d = day
       | _ -> false)

let prop_compare_antisymmetric =
  QCheck.Test.make ~name:"int compare antisymmetric" ~count:500
    QCheck.(pair int int)
    (fun (a, b) ->
       let c1 = Value.compare (Value.Int a) (Value.Int b) in
       let c2 = Value.compare (Value.Int b) (Value.Int a) in
       (c1 > 0 && c2 < 0) || (c1 < 0 && c2 > 0) || (c1 = 0 && c2 = 0))

(* Numbers where an Int and a Float part ways: +-2^53 +- k (a Float
   there rounds to even), the ints' ends +-2^62 (2^62 itself is no int,
   -2^62 is [min_int]), 0, +-1 and +-0.0, +-inf and nans, as Ints where
   they are ints and as Floats (of those ints, rounded, and the floats
   next to them). *)
let mixed_number =
  let p = 1 lsl 53 in
  QCheck.Gen.(
    let int =
      oneof
        [ int_range (-2) 2;
          map2 (fun s k -> s * (p + k)) (oneofl [ 1; -1 ]) (int_range (-3) 3);
          map (fun k -> max_int - k) (int_range 0 3);
          map (fun k -> min_int + k) (int_range 0 3) ]
    in
    frequency
      [ (4, map (fun x -> Value.Int x) int);
        (3, map (fun x -> Value.Float (float_of_int x)) int);
        (1, map (fun x -> Value.Float (Float.succ (float_of_int x))) int);
        (1, map (fun x -> Value.Float (Float.pred (float_of_int x))) int);
        (2, oneofl
              [ Value.Float 0.0; Value.Float (-0.0); Value.Float 0.5; Value.Float (-1.5);
                Value.Float 0x1p62; Value.Float (-0x1p62); Value.Float Float.infinity;
                Value.Float Float.neg_infinity; Value.Float Float.nan;
                Value.Float (Int64.float_of_bits 0x7ff8000000000001L) ]) ])

(* [Int x] against [Float y] by another route than [Value.compare]'s:
   through floats where [x] converts exactly, through ints where [y] is
   an int, else by the sign of whichever is beyond the other's reach. *)
let reference_int_float x y =
  if Float.is_nan y then 1
  else if Int.abs x <= 1 lsl 53 then Float.compare (float_of_int x) y
  else if Float.is_integer y && Float.abs y < 0x1p62 then Int.compare x (int_of_float y)
  else if Float.abs y < 0x1p53 then Int.compare x 0
  else if y > 0.0 then -1
  else 1

let sign c = Int.compare c 0

let prop_compare_total_order =
  QCheck.Test.make ~name:"compare is a total order, Int against Float exactly" ~count:3000
    (QCheck.make QCheck.Gen.(triple mixed_number mixed_number mixed_number))
    (fun (a, b, c) ->
       let ab = Value.compare a b and bc = Value.compare b c and ac = Value.compare a c in
       let exact =
         match a, b with
         | Value.Int x, Value.Float y -> sign ab = reference_int_float x y
         | Value.Float y, Value.Int x -> sign ab = - reference_int_float x y
         | _ -> true
       in
       exact
       && sign ab = - sign (Value.compare b a)
       && ((not (ab <= 0 && bc <= 0)) || ac <= 0)
       && ((not (ab = 0 && bc = 0)) || ac = 0)
       && Value.equal a b = (ab = 0))

let suite =
  [ Alcotest.test_case "compare ints" `Quick test_compare_ints;
    Alcotest.test_case "compare mixed numeric" `Quick test_compare_mixed_numeric;
    Alcotest.test_case "null sorts first" `Quick test_null_sorts_first;
    Alcotest.test_case "incompatible compare raises" `Quick test_incompatible_compare;
    Alcotest.test_case "hash numeric consistency" `Quick test_hash_numeric_consistency;
    Alcotest.test_case "date roundtrip" `Quick test_date_roundtrip;
    Alcotest.test_case "date epoch" `Quick test_date_epoch;
    Alcotest.test_case "date ordering" `Quick test_date_ordering;
    Alcotest.test_case "date invalid" `Quick test_date_invalid;
    Alcotest.test_case "byte size" `Quick test_byte_size;
    Alcotest.test_case "add" `Quick test_add;
    Alcotest.test_case "min/max" `Quick test_min_max;
    Alcotest.test_case "to/from float" `Quick test_to_from_float;
    QCheck_alcotest.to_alcotest prop_date_roundtrip;
    QCheck_alcotest.to_alcotest prop_compare_antisymmetric;
    QCheck_alcotest.to_alcotest prop_compare_total_order ]
