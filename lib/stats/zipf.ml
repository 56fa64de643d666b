type t = {
  n : int;
  z : float;
  cdf : float array;  (* cdf.(i) = P(rank <= i+1) *)
}

let create ~n ~z =
  if n < 1 then invalid_arg "Zipf.create: n < 1";
  if z < 0.0 then invalid_arg "Zipf.create: z < 0";
  let weights = Array.init n (fun i -> 1.0 /. (float_of_int (i + 1) ** z)) in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  Array.iteri
    (fun i w ->
       acc := !acc +. (w /. total);
       cdf.(i) <- !acc)
    weights;
  cdf.(n - 1) <- 1.0;
  { n; z; cdf }

let prob t i =
  if i < 1 || i > t.n then invalid_arg "Zipf.prob: rank out of range";
  if i = 1 then t.cdf.(0) else t.cdf.(i - 1) -. t.cdf.(i - 2)

let sample t rng =
  let u = Rng.float rng in
  (* first index with cdf >= u *)
  let lo = ref 0 and hi = ref (t.n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo + 1

let sample_index t rng = sample t rng - 1
