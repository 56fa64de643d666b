(* Machine-speed calibration.  On the shared 2-vCPU VM this benchmark was
   built on, the same code runs up to 40% slower for minutes at a time,
   and a slow period moves every wall metric of a run together.  So a run
   also times short slices of fixed work between its statements -- an
   open-addressing hash build and probe and a shell sort over 8192 ints
   -- and the end-to-end wall metrics are scaled by [reference_ms /
   median slice].  Over repeated runs of one seed, the slice median
   tracked statement latency with a correlation of 0.5-0.95 and an
   elasticity of 0.6-1.8 (random reads over 64 MB tracked it worse and
   were dropped).  A slice allocates nothing and its buffers live outside
   the OCaml heap, so it does not depend on the engine's heap or
   collector. *)

open Bigarray

(* Median slice wall, ms, on that VM at a quiet time: scaled metrics read
   as the raw ones would there. *)
let reference_ms = 2.0

(* At most one slice per this much wall. *)
let every_ms = 100.0

let size = 1 lsl 13

type ints = (int, int_elt, c_layout) Array1.t

type t = {
  on : bool;
  keys : ints;
  table : ints;
  work : ints;
  mutable slices : float list;  (* wall of every slice, ms *)
  mutable spent_ms : float;     (* their sum *)
  mutable last : int64;         (* when the last slice ended *)
}

(* Off (smoke runs), [tick] does nothing and [factor] is 1. *)
let create ~on =
  let ints n = Array1.create int c_layout (if on then n else 0) in
  let keys = ints size in
  let x = ref 1 in
  for i = 0 to Array1.dim keys - 1 do
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    keys.{i} <- !x
  done;
  { on; keys; table = ints (2 * size); work = ints size; slices = [];
    spent_ms = 0.0; last = 0L }

(* One slice of fixed work; returns a checksum so it cannot be skipped. *)
let slice t =
  let mask = (2 * size) - 1 in
  Array1.fill t.table (-1);
  let rec insert k h =
    if t.table.{h} < 0 then t.table.{h} <- k else insert k ((h + 1) land mask)
  in
  for i = 0 to size - 1 do
    insert t.keys.{i} (Hashtbl.hash t.keys.{i} land mask)
  done;
  let rec probe k h =
    let v = t.table.{h} in
    if v = k then 1 else if v < 0 then 0 else probe k ((h + 1) land mask)
  in
  let hits = ref 0 in
  for i = 0 to size - 1 do
    let k = t.keys.{size - 1 - i} lxor (i land 1) in
    hits := !hits + probe k (Hashtbl.hash k land mask)
  done;
  for i = 0 to size - 1 do t.work.{i} <- t.keys.{i} lxor !hits done;
  let gap = ref (size / 2) in
  while !gap > 0 do
    for i = !gap to size - 1 do
      let x = t.work.{i} and j = ref i in
      while !j >= !gap && t.work.{!j - !gap} > x do
        t.work.{!j} <- t.work.{!j - !gap};
        j := !j - !gap
      done;
      t.work.{!j} <- x
    done;
    gap := !gap / 2
  done;
  !hits + t.work.{size / 2}

(* A slice, unless one ended less than [every_ms] ago.  Call it between
   timed statements, never inside one. *)
let tick t =
  let t0 = Spans.now_ns () in
  if t.on && (t.slices = [] || Spans.ms_between t.last t0 >= every_ms) then begin
    ignore (Sys.opaque_identity (slice t));
    t.last <- Spans.now_ns ();
    let ms = Spans.ms_between t0 t.last in
    t.slices <- ms :: t.slices;
    t.spent_ms <- t.spent_ms +. ms
  end

let median_ms t = Stat.percentile 0.5 t.slices

(* Multiply a duration by this (divide a rate by it) to scale it. *)
let factor t = match t.slices with [] -> 1.0 | _ -> reference_ms /. median_ms t
