(* Stdlib Array.sort (array.ml), specialised to a float key array plus an
   int payload.  Its recursive helpers became loops, its [Bottom]
   exception a -1 son, and each [cmp a b < 0] (or [> 0]) a [before a b]
   (or [before b a]): the comparisons are the same, in the same order, and
   no float is boxed. *)

(* [Float.compare x y < 0]: NaN is below every other float and equal to
   itself, -0.0 equals 0.0 *)
let[@inline] less (x : float) y = x < y || (x <> x && y = y)

let[@inline] before descending x y = if descending then less y x else less x y

(* The largest of node [i]'s up to three sons within [l], or -1 when it
   has none. *)
let maxson descending (keys : float array) l i =
  let i31 = i + i + i + 1 in
  if i31 + 2 < l then begin
    let x =
      if before descending keys.(i31) keys.(i31 + 1) then i31 + 1 else i31
    in
    if before descending keys.(x) keys.(i31 + 2) then i31 + 2 else x
  end
  else if i31 + 1 < l && before descending keys.(i31) keys.(i31 + 1) then
    i31 + 1
  else if i31 < l then i31
  else -1

let[@inline] move (keys : float array) (payload : int array) ~src ~dst =
  keys.(dst) <- keys.(src);
  payload.(dst) <- payload.(src)

let sort ~descending (keys : float array) (payload : int array) =
  let l = Array.length keys in
  if Array.length payload <> l then invalid_arg "Float_sort.sort";
  (* heapify: trickle each inner node down *)
  for i0 = ((l + 1) / 3) - 1 downto 0 do
    let k = keys.(i0) and p = payload.(i0) in
    let i = ref i0 and placed = ref false in
    while not !placed do
      let j = maxson descending keys l !i in
      if j >= 0 && before descending k keys.(j) then begin
        move keys payload ~src:j ~dst:!i;
        i := j
      end
      else begin
        keys.(!i) <- k;
        payload.(!i) <- p;
        placed := true
      end
    done
  done;
  for n = l - 1 downto 2 do
    let k = keys.(n) and p = payload.(n) in
    move keys payload ~src:0 ~dst:n;
    (* bubble the hole at the root down to a leaf along the largest sons *)
    let i = ref 0 and j = ref (maxson descending keys n 0) in
    while !j >= 0 do
      move keys payload ~src:!j ~dst:!i;
      i := !j;
      j := maxson descending keys n !i
    done;
    (* then trickle the displaced element up from that leaf *)
    let placed = ref false in
    while not !placed do
      let father = (!i - 1) / 3 in
      if before descending keys.(father) k then begin
        move keys payload ~src:father ~dst:!i;
        if father > 0 then i := father
        else begin
          keys.(0) <- k;
          payload.(0) <- p;
          placed := true
        end
      end
      else begin
        keys.(!i) <- k;
        payload.(!i) <- p;
        placed := true
      end
    done
  done;
  if l > 1 then begin
    let k = keys.(1) and p = payload.(1) in
    move keys payload ~src:0 ~dst:1;
    keys.(0) <- k;
    payload.(0) <- p
  end

(* Without NaN and -0.0, [<] is a total order under which equal keys have
   equal bits, so every correct ascending sort leaves the same array, and
   an in-place quicksort (median of three, insertion sort below 16 keys)
   may stand in for the heapsort.  Past a depth of twice log2 of the
   length it gives up, and the heapsort finishes the array. *)
exception Too_deep

let insertion (a : float array) lo hi =
  for k = lo + 1 to hi do
    let x = a.(k) in
    let m = ref (k - 1) in
    while !m >= lo && x < a.(!m) do
      a.(!m + 1) <- a.(!m);
      decr m
    done;
    a.(!m + 1) <- x
  done

let[@inline] swap (a : float array) i j =
  let x = a.(i) in
  a.(i) <- a.(j);
  a.(j) <- x

let rec quick (a : float array) lo hi depth =
  if hi - lo < 16 then insertion a lo hi
  else if depth = 0 then raise Too_deep
  else begin
    let mid = lo + ((hi - lo) / 2) in
    if a.(mid) < a.(lo) then swap a mid lo;
    if a.(hi) < a.(lo) then swap a hi lo;
    if a.(hi) < a.(mid) then swap a hi mid;
    let p = a.(mid) in
    let i = ref lo and j = ref hi in
    while !i <= !j do
      while a.(!i) < p do incr i done;
      while p < a.(!j) do decr j done;
      if !i <= !j then begin
        swap a !i !j;
        incr i;
        decr j
      end
    done;
    quick a lo !j (depth - 1);
    quick a !i hi (depth - 1)
  end

let ascending (keys : float array) =
  let l = Array.length keys in
  let plain = ref true and i = ref 0 in
  while !plain && !i < l do
    let x = keys.(!i) in
    if Float.is_nan x || (x = 0.0 && Float.sign_bit x) then plain := false;
    incr i
  done;
  let heapsort () = sort ~descending:false keys (Array.make l 0) in
  if not !plain then heapsort ()
  else begin
    let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2) in
    try quick keys 0 (l - 1) (2 * (log2 l + 1)) with Too_deep -> heapsort ()
  end
