(* Summary statistics over float samples. *)

let sorted xs = List.sort Float.compare xs

(* Nearest-rank percentile, [q] in (0, 1]; 0 on an empty sample. *)
let percentile q xs =
  match sorted xs with
  | [] -> 0.0
  | s ->
    let n = List.length s in
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    List.nth s (max 0 (min (n - 1) (rank - 1)))

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let sum xs = List.fold_left ( +. ) 0.0 xs

(* First quartile, median and third quartile by the "exclusive" method of
   Python's statistics.quantiles(n=4), so spreads read the same as the
   ones the benchmark's acceptance rule computes. *)
let quartiles xs =
  match sorted xs with
  | [] -> (0.0, 0.0, 0.0)
  | [ x ] -> (x, x, x)
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    let q i =
      let j = i * (n + 1) / 4 and delta = i * (n + 1) mod 4 in
      let j = max 1 (min (n - 1) j) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 2, q 3)

let ratio a b = if b = 0.0 then 0.0 else a /. b
