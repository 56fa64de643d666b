module Histogram = Mqr_stats.Histogram
module Reservoir = Mqr_stats.Reservoir
module Rng = Mqr_stats.Rng

(* A long-lived service observes millions of samples per series; keeping
   them all is an unbounded leak.  Each series holds a fixed-capacity
   Algorithm R reservoir (uniform over everything offered) plus exact
   streaming n/min/max/sum.  The reservoir rng is seeded from the series
   name, so the same observation sequence always yields the same sample
   — export views stay byte-stable. *)
let reservoir_capacity = 512

type series = {
  res : float Reservoir.t;
  mutable s_min : float;
  mutable s_max : float;
  mutable s_sum : float;
}

type t = {
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, float ref) Hashtbl.t;
  series : (string, series) Hashtbl.t;
}

let create () =
  { counters = Hashtbl.create 16;
    gauges = Hashtbl.create 16;
    series = Hashtbl.create 16 }

let incr t ?(by = 1) name =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r := !r + by
  | None -> Hashtbl.replace t.counters name (ref by)

let counter t name =
  match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

let set_gauge t name v =
  match Hashtbl.find_opt t.gauges name with
  | Some r -> r := v
  | None -> Hashtbl.replace t.gauges name (ref v)

let seed_of_name name =
  (* deterministic, name-derived: two registries observing the same
     series in the same order agree sample-for-sample *)
  String.fold_left (fun h c -> (h * 131) + Char.code c) 0x9e3779b9 name
  land max_int

let observe t name v =
  let s =
    match Hashtbl.find_opt t.series name with
    | Some s -> s
    | None ->
      let s =
        { res =
            Reservoir.create
              ~rng:(Rng.create (seed_of_name name))
              ~capacity:reservoir_capacity ();
          s_min = infinity; s_max = neg_infinity; s_sum = 0.0 }
      in
      Hashtbl.replace t.series name s;
      s
  in
  Reservoir.add s.res v;
  if v < s.s_min then s.s_min <- v;
  if v > s.s_max then s.s_max <- v;
  s.s_sum <- s.s_sum +. v

type summary = {
  n : int;
  min : float;
  max : float;
  sum : float;
  p50 : float;
  p95 : float;
  p99 : float;
  buckets : (float * float * int) list;
}

(* Samples <= 0 cannot live on a log scale; clamp them to a tiny positive
   floor so zero selectivities and zero-cost spans still land in the
   smallest bucket instead of being dropped. *)
let log_floor = 1e-9

let quantile sorted q =
  let len = Array.length sorted in
  if len = 0 then 0.0
  else begin
    let rank = int_of_float (Float.ceil (q *. float_of_int len)) in
    sorted.(Stdlib.min (len - 1) (Stdlib.max 0 (rank - 1)))
  end

let summarize s =
  let sample = Reservoir.sample s.res in
  (* equi-width over log2(v) = log-scale over v; reuse lib/stats *)
  let logs =
    Array.map (fun v -> Float.log2 (Float.max log_floor v)) sample
  in
  let h = Histogram.build Histogram.Equi_width ~buckets:8 logs in
  let buckets =
    List.filter_map
      (fun (b : Histogram.bucket) ->
         let count = int_of_float (b.Histogram.rows +. 0.5) in
         if count = 0 then None
         else Some (Float.exp2 b.Histogram.lo, Float.exp2 b.Histogram.hi, count))
      (Histogram.buckets h)
  in
  let sorted = Array.copy sample in
  Array.sort Float.compare sorted;
  { n = Reservoir.seen s.res; min = s.s_min; max = s.s_max; sum = s.s_sum;
    p50 = quantile sorted 0.50;
    p95 = quantile sorted 0.95;
    p99 = quantile sorted 0.99;
    buckets }

let sorted_bindings tbl f =
  Hashtbl.fold (fun k v acc -> (k, f v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let counters t = sorted_bindings t.counters ( ! )
let gauges t = sorted_bindings t.gauges ( ! )

let histograms t = sorted_bindings t.series summarize

let pp fmt t =
  Fmt.pf fmt "@[<v>";
  List.iter (fun (k, v) -> Fmt.pf fmt "%-32s %d@," k v) (counters t);
  List.iter (fun (k, v) -> Fmt.pf fmt "%-32s %.3f@," k v) (gauges t);
  List.iter
    (fun (k, s) ->
       Fmt.pf fmt "%-32s n=%d min=%.3f max=%.3f mean=%.3f p50=%.3f p99=%.3f@,"
         k s.n s.min s.max
         (s.sum /. float_of_int (Stdlib.max 1 s.n))
         s.p50 s.p99)
    (histograms t);
  Fmt.pf fmt "@]"

(* --- Prometheus text exposition ------------------------------------ *)

let prom_name name =
  "mqr_"
  ^ String.map
      (fun c ->
         match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> c | _ -> '_')
      name

let prom_float v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.6g" v

let to_prometheus t =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let families =
    List.map (fun (k, v) -> (prom_name k, `Counter v)) (counters t)
    @ List.map (fun (k, v) -> (prom_name k, `Gauge v)) (gauges t)
    @ List.map (fun (k, s) -> (prom_name k, `Histogram s)) (histograms t)
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  List.iter
    (fun (name, family) ->
       match family with
       | `Counter v ->
         line "# TYPE %s counter\n" name;
         line "%s %d\n" name v
       | `Gauge v ->
         line "# TYPE %s gauge\n" name;
         line "%s %s\n" name (prom_float v)
       | `Histogram s ->
         line "# TYPE %s histogram\n" name;
         let cum = ref 0 in
         List.iter
           (fun (_, hi, count) ->
              cum := !cum + count;
              line "%s_bucket{le=\"%s\"} %d\n" name (prom_float hi) !cum)
           s.buckets;
         (* the reservoir under-counts vs. the true n once it saturates;
            +Inf carries the exact stream count, which keeps the series
            monotone (reservoir buckets sum to <= n) *)
         line "%s_bucket{le=\"+Inf\"} %d\n" name s.n;
         line "%s_sum %s\n" name (prom_float s.sum);
         line "%s_count %d\n" name s.n)
    families;
  Buffer.contents b
