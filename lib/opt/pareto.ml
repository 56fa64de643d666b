(* Entries live in a pool, addressed by int handles: the item, its total
   and its orders, written once when the entry is offered.  A bucket is
   the handles of its entries in list order, in slots [m * cap] to
   [m * cap + len.(m) - 1] of one flat int array, with its per-order
   floors at [m * n_orders + o].  A retention pass runs over a scratch
   sequence of handles and writes the kept ones back into the bucket's
   slots, so it moves ints only (no write barrier), and the handles it
   drops go back to the pool's free list. *)
type 'a t = {
  n_orders : int;
  cap : int;  (* most entries a bucket keeps: one per order plus the best *)
  (* the pool *)
  mutable items : 'a array;
  mutable totals : float array;
  mutable orders : int list array;
  mutable used : int;  (* handles ever handed out *)
  mutable free : int array;  (* handles dropped, for reuse *)
  mutable n_free : int;
  dummy : 'a;
  (* the buckets *)
  slots : int array;
  len : int array;
  has_nan : bool array;
  floor_all : float array;
  floor : float array;
  (* scratch for one pass: the offered sequence of handles, each order's
     provider (a position in it, or -1), the kept positions in the order
     the pass adds them, and a mark per kept position *)
  seq : int array;
  provider : int array;
  added : int array;
  kept : bool array;
}

let create ~buckets ~n_orders ~dummy =
  let cap = n_orders + 1 in
  let pool = 64 in
  { n_orders;
    cap;
    items = Array.make pool dummy;
    totals = Array.make pool 0.0;
    orders = Array.make pool [];
    used = 0;
    free = Array.make pool 0;
    n_free = 0;
    dummy;
    slots = Array.make (buckets * cap) 0;
    len = Array.make buckets 0;
    has_nan = Array.make buckets false;
    floor_all = Array.make buckets infinity;
    floor = Array.make (buckets * n_orders) infinity;
    seq = Array.make (cap + 1) 0;
    provider = Array.make n_orders (-1);
    added = Array.make cap 0;
    kept = Array.make (cap + 1) false }

(* The readers and the bucket test the DP runs per candidate are [@inline], so
   a float passed to or read from a bucket is never boxed. *)
let[@inline] handle t m i = t.slots.((m * t.cap) + i)
let[@inline] length t m = t.len.(m)
let[@inline] is_empty t m = t.len.(m) = 0
let[@inline] item t m i = t.items.(handle t m i)
let[@inline] total t m i = t.totals.(handle t m i)
let[@inline] orders t m i = t.orders.(handle t m i)
let[@inline] lower t m = if t.has_nan.(m) then nan else t.floor_all.(m)

let to_list t m = List.init t.len.(m) (item t m)

(* Is the floor of every order in the list strictly below [ms]?  A loop,
   not a recursion, so that it inlines. *)
let[@inline] undercut (floor : float array) base (ms : float) orders =
  let rest = ref orders and all = ref true in
  while !all && not (List.is_empty !rest) do
    match !rest with
    | o :: tl ->
      if not (floor.(base + o) < ms) then all := false;
      rest := tl
    | [] -> ()
  done;
  !all

let rec lower_floors (floor : float array) base (ms : float) = function
  | [] -> ()
  | o :: rest ->
    if ms < floor.(base + o) then floor.(base + o) <- ms;
    lower_floors floor base ms rest

let grow a fill =
  let b = Array.make (2 * Array.length a) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* A handle for a new entry: a dropped one if any, else a fresh one. *)
let alloc t item ~total ~orders =
  let h =
    if t.n_free > 0 then begin
      t.n_free <- t.n_free - 1;
      t.free.(t.n_free)
    end
    else begin
      if t.used = Array.length t.items then begin
        t.items <- grow t.items t.dummy;
        t.totals <- grow t.totals 0.0;
        t.orders <- grow t.orders []
      end;
      t.used <- t.used + 1;
      t.used - 1
    end
  in
  t.items.(h) <- item;
  t.totals.(h) <- total;
  t.orders.(h) <- orders;
  h

let release t h =
  if t.n_free = Array.length t.free then t.free <- grow t.free 0;
  t.free.(t.n_free) <- h;
  t.n_free <- t.n_free + 1

let rec offer_orders provider (totals : float array) seq i = function
  | [] -> ()
  | o :: rest ->
    let p = provider.(o) in
    if p < 0 || totals.(seq.(i)) < totals.(seq.(p)) then provider.(o) <- i;
    offer_orders provider totals seq i rest

(* One retention pass over the first [k] sequence entries, [k > 0]: the
   cheapest overall (ties and NaN to the earlier) and the cheapest
   provider of each order (likewise).  Fills [added] with positions and
   returns how many it keeps: the best first, then each provider not yet
   kept, by ascending order.  [kept] marks the kept positions.  The pass
   works on a handful of entries and orders, so its resets, like
   [enter]'s copy, are loops rather than calls to [Array.fill] and
   [Array.blit]. *)
let retain t k =
  let totals = t.totals and seq = t.seq in
  for i = 0 to k - 1 do
    t.kept.(i) <- false
  done;
  let best = ref 0 in
  for o = 0 to t.n_orders - 1 do
    t.provider.(o) <- -1
  done;
  for i = 0 to k - 1 do
    if totals.(seq.(i)) < totals.(seq.(!best)) then best := i;
    offer_orders t.provider totals seq i t.orders.(seq.(i))
  done;
  t.added.(0) <- !best;
  t.kept.(!best) <- true;
  let n = ref 1 in
  for o = 0 to t.n_orders - 1 do
    let p = t.provider.(o) in
    if p >= 0 && not t.kept.(p) then begin
      t.added.(!n) <- p;
      t.kept.(p) <- true;
      incr n
    end
  done;
  !n

(* The bucket becomes the [n] kept of the [k] sequence entries, the last
   added first; the dropped ones' handles are released. *)
let store t m k n =
  let base = m * t.cap in
  for i = 0 to k - 1 do
    if not t.kept.(i) then release t t.seq.(i)
  done;
  for j = 0 to n - 1 do
    t.slots.(base + j) <- t.seq.(t.added.(n - 1 - j))
  done;
  t.len.(m) <- n

(* Floors from scratch: the least non-NaN total overall and per order. *)
let refloor t m =
  let fbase = m * t.n_orders in
  Array.fill t.floor fbase t.n_orders infinity;
  t.floor_all.(m) <- infinity;
  t.has_nan.(m) <- false;
  for i = 0 to t.len.(m) - 1 do
    let h = handle t m i in
    let ms = t.totals.(h) in
    if ms < t.floor_all.(m) then t.floor_all.(m) <- ms;
    if Float.is_nan ms then t.has_nan.(m) <- true;
    lower_floors t.floor fbase ms t.orders.(h)
  done

(* The entrant goes first in the sequence, the bucket's entries after it.
   Without a NaN total before or after, the kept entries include every
   order's cheapest offer, so each floor is the least of its old value
   and the entrant's total. *)
let enter t m item ~total ~orders =
  t.seq.(0) <- alloc t item ~total ~orders;
  let base = m * t.cap and k = t.len.(m) + 1 in
  for i = 1 to k - 1 do
    t.seq.(i) <- t.slots.(base + i - 1)
  done;
  store t m k (retain t k);
  if t.has_nan.(m) || Float.is_nan total then refloor t m
  else begin
    if total < t.floor_all.(m) then t.floor_all.(m) <- total;
    lower_floors t.floor (m * t.n_orders) total orders
  end

let[@inline] admits t m ms orders =
  not (t.floor_all.(m) < ms && undercut t.floor (m * t.n_orders) ms orders)
