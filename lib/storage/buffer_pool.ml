(* A page is one int, [file] above [page].  Resident pages are nodes
   0 .. used-1 of [nodes], four ints each: the key, the next node of its
   hash chain, and its more and less recent neighbours (-1 ends a chain or
   the recency list).  A hit moves its node to the front; a miss takes a
   fresh node or the tail's.  [nodes] doubles up to [capacity] nodes, so a
   new pool costs its buckets, and only a filling pool allocates. *)

let bits = (Sys.int_size - 1) / 2

let key_of ~file ~page =
  if (file lor page) lsr bits <> 0 then
    invalid_arg "Buffer_pool.access: file or page out of range";
  (file lsl bits) lor page

let key = 0 and chain = 1 and newer = 2 and older = 3  (* node fields *)

type t = {
  capacity : int;
  buckets : int array;  (* first node of each hash chain *)
  mutable nodes : int array;
  mutable used : int;
  mutable head : int;  (* most recent *)
  mutable tail : int;  (* least recent *)
  mutable hits : int;
  mutable misses : int;
}

let create ~capacity_pages =
  if capacity_pages < 1 then invalid_arg "Buffer_pool.create: capacity < 1";
  let rec pow2 n = if n >= capacity_pages then n else pow2 (2 * n) in
  { capacity = capacity_pages;
    buckets = Array.make (pow2 16) (-1);
    nodes = Array.make (4 * min capacity_pages 16) (-1);
    used = 0; head = -1; tail = -1; hits = 0; misses = 0 }

let capacity t = t.capacity

let get t n field = t.nodes.((4 * n) + field)
let set t n field v = t.nodes.((4 * n) + field) <- v

let bucket t k =
  ((k lsr bits) * 0x9E3779B1 + k) land (Array.length t.buckets - 1)

let rec find t k n = if n < 0 || get t n key = k then n else find t k (get t n chain)

let unlink t n =
  let a = get t n newer and b = get t n older in
  if a < 0 then t.head <- b else set t a older b;
  if b < 0 then t.tail <- a else set t b newer a

let push_front t n =
  set t n newer (-1);
  set t n older t.head;
  if t.head < 0 then t.tail <- n else set t t.head newer n;
  t.head <- n

(* drop [n] from the chain after node [m] *)
let rec unchain_after t n m =
  if get t m chain = n then set t m chain (get t n chain)
  else unchain_after t n (get t m chain)

let unchain t n =
  let b = bucket t (get t n key) in
  if t.buckets.(b) = n then t.buckets.(b) <- get t n chain
  else unchain_after t n t.buckets.(b)

(* a node for a new page: a fresh one while the pool fills, else the LRU's *)
let claim t =
  if t.used < t.capacity then begin
    let len = Array.length t.nodes in
    if 4 * t.used = len then begin
      let grown = Array.make (min (4 * t.capacity) (2 * len)) (-1) in
      Array.blit t.nodes 0 grown 0 len;
      t.nodes <- grown
    end;
    t.used <- t.used + 1;
    t.used - 1
  end
  else begin
    let n = t.tail in
    unlink t n; unchain t n; n
  end

let access t ~file ~page =
  let k = key_of ~file ~page in
  let b = bucket t k in
  let n = find t k t.buckets.(b) in
  if n >= 0 then begin
    t.hits <- t.hits + 1;
    if n <> t.head then (unlink t n; push_front t n);
    true
  end
  else begin
    t.misses <- t.misses + 1;
    let n = claim t in
    set t n key k;
    set t n chain t.buckets.(b);
    t.buckets.(b) <- n;
    push_front t n;
    false
  end

let hits t = t.hits
let misses t = t.misses
let resident t = t.used
