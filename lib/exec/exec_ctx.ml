open Mqr_storage

(* Buffers of at least [pooled_words] words come from a size class: the
   smallest power of two that holds the request.  Smaller ones are
   allocated on the minor heap, which frees them for nothing. *)
let pooled_words = 256

(* What a scratch keeps after a release: at most [per_class] buffers of
   each size class (and buffer pools of each power-of-two class of
   capacity), and at most [retained_cap] bytes in all.  Four of a class
   cover the largest step of the bench/perf workloads (a hash join's
   slots and two chains, a scan filter's positions; svc-mixed's steps
   run two workers), which keep 1.2-2.2 MB. *)
let per_class = 4
let retained_cap = 8 lsl 20

let classes = Sys.int_size

type scratch = {
  free_bytes : Bytes.t list array;  (* by size class: log2 of the length *)
  free_ints : int array list array;
  free_pools : Buffer_pool.t list array;  (* by log2 of the capacity, rounded up *)
  (* lent since the last release *)
  mutable lent_bytes : Bytes.t list;
  mutable lent_ints : int array list;
  mutable lent_pools : Buffer_pool.t list;
  mutable retained : int;  (* bytes the free lists hold *)
  mutable poison : bool;
}

let scratch () =
  { free_bytes = Array.make classes [];
    free_ints = Array.make classes [];
    free_pools = Array.make classes [];
    lent_bytes = [];
    lent_ints = [];
    lent_pools = [];
    retained = 0;
    poison = false }

type t = {
  clock : Sim_clock.t;
  pool : Buffer_pool.t;
  scratch : scratch option;
  mutable owns_pool : bool;  (* [pool] goes back at [release ~last:true] *)
}

let rec log2_ceil n k = if 1 lsl k >= n then k else log2_ceil n (k + 1)

let word_bytes = Sys.word_size / 8
let pool_bytes p = Buffer_pool.words p * word_bytes

(* A pool of [pages] pages: a kept one of its class (so with as many
   buckets as a new one), reset to [pages], or a new one. *)
let take_pool s pages =
  let k = log2_ceil pages 0 in
  match s.free_pools.(k) with
  | p :: rest ->
    s.free_pools.(k) <- rest;
    s.retained <- s.retained - pool_bytes p;
    Buffer_pool.reset p ~capacity_pages:pages;
    p
  | [] -> Buffer_pool.create ~capacity_pages:pages

let pool_for scratch pages =
  match scratch with
  | Some s -> take_pool s pages
  | None -> Buffer_pool.create ~capacity_pages:pages

let create ?scratch ?(pool_pages = 1024) () =
  { clock = Sim_clock.create ();
    pool = pool_for scratch pool_pages;
    scratch;
    owns_pool = Option.is_some scratch }

let worker t ~pool_pages =
  let pool = pool_for t.scratch pool_pages in
  Option.iter (fun s -> s.lent_pools <- pool :: s.lent_pools) t.scratch;
  { clock = Sim_clock.create (); pool; scratch = t.scratch; owns_pool = false }

(* A kept buffer of size class [k] from [free], or a new one made by
   [make] at the class's size; [size] is a buffer's bytes. *)
let take s free k ~size make =
  match free.(k) with
  | x :: rest ->
    free.(k) <- rest;
    s.retained <- s.retained - size x;
    x
  | [] -> make (1 lsl k)

let bytes t n =
  match t.scratch with
  | Some s when n >= pooled_words * word_bytes ->
    let b = take s s.free_bytes (log2_ceil n 0) ~size:Bytes.length Bytes.create in
    s.lent_bytes <- b :: s.lent_bytes;
    b
  | _ -> Bytes.create n

let ints t n =
  match t.scratch with
  | Some s when n >= pooled_words ->
    let size a = Array.length a * word_bytes in
    let a = take s s.free_ints (log2_ceil n 0) ~size (fun n -> Array.make n 0) in
    s.lent_ints <- a :: s.lent_ints;
    a
  | _ -> Array.make n 0

(* Whether the caps let [s] keep [size] more bytes beside [same] kept
   buffers of that class (or pools of that capacity); if so, counts
   them. *)
let room s ~size same =
  let ok = same < per_class && s.retained + size <= retained_cap in
  if ok then s.retained <- s.retained + size;
  ok

let release ?(last = false) t =
  Option.iter
    (fun s ->
       List.iter
         (fun b ->
            let size = Bytes.length b and k = log2_ceil (Bytes.length b) 0 in
            if s.poison then Bytes.fill b 0 size '\255';
            if room s ~size (List.length s.free_bytes.(k)) then
              s.free_bytes.(k) <- b :: s.free_bytes.(k))
         s.lent_bytes;
       List.iter
         (fun a ->
            let k = log2_ceil (Array.length a) 0 in
            if s.poison then Array.fill a 0 (Array.length a) (-1);
            if room s ~size:(Array.length a * word_bytes) (List.length s.free_ints.(k))
            then s.free_ints.(k) <- a :: s.free_ints.(k))
         s.lent_ints;
       let give p =
         let k = log2_ceil (Buffer_pool.capacity p) 0 in
         if room s ~size:(pool_bytes p) (List.length s.free_pools.(k)) then
           s.free_pools.(k) <- p :: s.free_pools.(k)
       in
       List.iter give s.lent_pools;
       if last && t.owns_pool then begin
         t.owns_pool <- false;
         give t.pool
       end;
       s.lent_bytes <- [];
       s.lent_ints <- [];
       s.lent_pools <- [])
    t.scratch

let poison t = Option.iter (fun s -> s.poison <- true) t.scratch

let retained_bytes s = s.retained

let lent s = List.length s.lent_bytes + List.length s.lent_ints + List.length s.lent_pools

let pages_of_bytes bytes =
  max 1 ((bytes + Heap_file.page_size_bytes - 1) / Heap_file.page_size_bytes)

let elapsed_ms t = Sim_clock.elapsed_ms t.clock
