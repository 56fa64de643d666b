type model = {
  seq_read_ms : float;
  rand_read_ms : float;
  write_ms : float;
  cpu_tuple_ms : float;
  hash_tuple_ms : float;
  sort_tuple_ms : float;
  opt_per_plan_ms : float;
}

let default_model = {
  seq_read_ms = 2.0;
  rand_read_ms = 8.0;
  write_ms = 3.0;
  cpu_tuple_ms = 0.004;
  hash_tuple_ms = 0.003;
  sort_tuple_ms = 0.002;
  opt_per_plan_ms = 0.5;
}

type counters = {
  seq_reads : int;
  rand_reads : int;
  writes : int;
  cpu_ms : float;
  opt_ms : float;
  opt_invocations : int;
}

(* A float-only record is stored flat, so updating it boxes nothing. *)
type ms = { mutable cpu : float; mutable opt : float }

type t = {
  m : model;
  mutable seq_reads : int;
  mutable rand_reads : int;
  mutable writes : int;
  mutable opt_invocations : int;
  ms : ms;
}

let create ?(model = default_model) () =
  { m = model; seq_reads = 0; rand_reads = 0; writes = 0; opt_invocations = 0;
    ms = { cpu = 0.0; opt = 0.0 } }

let model t = t.m

let charge_seq_read t n = t.seq_reads <- t.seq_reads + n
let charge_rand_read t n = t.rand_reads <- t.rand_reads + n
let charge_write t n = t.writes <- t.writes + n

let charge_cpu_ms t ms = t.ms.cpu <- t.ms.cpu +. ms

let charge_cpu_tuples t n = t.ms.cpu <- t.ms.cpu +. (float_of_int n *. t.m.cpu_tuple_ms)
let charge_hash_tuples t n = t.ms.cpu <- t.ms.cpu +. (float_of_int n *. t.m.hash_tuple_ms)
let charge_sort_tuples t n = t.ms.cpu <- t.ms.cpu +. (float_of_int n *. t.m.sort_tuple_ms)

let optimizer_ms m ~plans = float_of_int plans *. m.opt_per_plan_ms

let charge_optimizer t ~plans =
  t.ms.opt <- t.ms.opt +. optimizer_ms t.m ~plans;
  t.opt_invocations <- t.opt_invocations + 1

let elapsed_of m (c : counters) =
  (float_of_int c.seq_reads *. m.seq_read_ms)
  +. (float_of_int c.rand_reads *. m.rand_read_ms)
  +. (float_of_int c.writes *. m.write_ms)
  +. c.cpu_ms +. c.opt_ms

let counters t : counters =
  { seq_reads = t.seq_reads; rand_reads = t.rand_reads; writes = t.writes;
    cpu_ms = t.ms.cpu; opt_ms = t.ms.opt; opt_invocations = t.opt_invocations }

let elapsed_ms t =
  (float_of_int t.seq_reads *. t.m.seq_read_ms)
  +. (float_of_int t.rand_reads *. t.m.rand_read_ms)
  +. (float_of_int t.writes *. t.m.write_ms)
  +. t.ms.cpu +. t.ms.opt

let snapshot = counters

let since t (c0 : counters) =
  elapsed_of t.m
    { seq_reads = t.seq_reads - c0.seq_reads;
      rand_reads = t.rand_reads - c0.rand_reads;
      writes = t.writes - c0.writes;
      cpu_ms = t.ms.cpu -. c0.cpu_ms;
      opt_ms = t.ms.opt -. c0.opt_ms;
      opt_invocations = t.opt_invocations - c0.opt_invocations }

let reset t =
  t.seq_reads <- 0;
  t.rand_reads <- 0;
  t.writes <- 0;
  t.opt_invocations <- 0;
  t.ms.cpu <- 0.0;
  t.ms.opt <- 0.0

let pp_counters fmt (c : counters) =
  Fmt.pf fmt
    "{seq_reads=%d; rand_reads=%d; writes=%d; cpu=%.2fms; opt=%.2fms (%d invocations)}"
    c.seq_reads c.rand_reads c.writes c.cpu_ms c.opt_ms c.opt_invocations
