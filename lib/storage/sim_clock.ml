let seq_read_ms = 2.0
let rand_read_ms = 8.0
let write_ms = 3.0
let cpu_tuple_ms = 0.004
let hash_tuple_ms = 0.003
let sort_tuple_ms = 0.002
let opt_per_plan_ms = 0.5
let collect_base_tuple_ms = 0.0003
let collect_stat_tuple_ms = 0.0012
let parallel_startup_ms = 0.05
let exchange_ms_per_page = 0.4
let rf_build_tuple_ms = 0.0015
let rf_probe_tuple_ms = 0.001

type model = unit

let default_model = ()

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
  mutable seq_reads : int;
  mutable rand_reads : int;
  mutable writes : int;
  mutable opt_invocations : int;
  ms : ms;
}

let create () =
  { seq_reads = 0; rand_reads = 0; writes = 0; opt_invocations = 0;
    ms = { cpu = 0.0; opt = 0.0 } }

let charge_seq_read t n = t.seq_reads <- t.seq_reads + n
let charge_rand_read t n = t.rand_reads <- t.rand_reads + n
let charge_write t n = t.writes <- t.writes + n

let charge_cpu_ms t ms = t.ms.cpu <- t.ms.cpu +. ms

let charge_cpu_tuples t n = t.ms.cpu <- t.ms.cpu +. (float_of_int n *. cpu_tuple_ms)

(* The sum stays in a register: the same additions, in the same order,
   as [n] calls of [charge_cpu_tuples t 1], with one load and one store. *)
let charge_cpu_tuples_singly t n =
  let cpu = ref t.ms.cpu in
  for _ = 1 to n do
    cpu := !cpu +. cpu_tuple_ms
  done;
  t.ms.cpu <- !cpu

let charge_hash_tuples t n = t.ms.cpu <- t.ms.cpu +. (float_of_int n *. hash_tuple_ms)
let charge_sort_tuples t n = t.ms.cpu <- t.ms.cpu +. (float_of_int n *. sort_tuple_ms)

let optimizer_ms ~plans = float_of_int plans *. opt_per_plan_ms

let charge_optimizer t ~plans =
  t.ms.opt <- t.ms.opt +. optimizer_ms ~plans;
  t.opt_invocations <- t.opt_invocations + 1

(* The ledger's total.  Inlined, so its float arguments are never boxed. *)
let[@inline] elapsed ~seq_reads ~rand_reads ~writes ~cpu_ms ~opt_ms =
  (float_of_int seq_reads *. seq_read_ms)
  +. (float_of_int rand_reads *. rand_read_ms)
  +. (float_of_int writes *. write_ms)
  +. cpu_ms +. opt_ms

let counters t : counters =
  { seq_reads = t.seq_reads; rand_reads = t.rand_reads; writes = t.writes;
    cpu_ms = t.ms.cpu; opt_ms = t.ms.opt; opt_invocations = t.opt_invocations }

let elapsed_ms t =
  elapsed ~seq_reads:t.seq_reads ~rand_reads:t.rand_reads ~writes:t.writes
    ~cpu_ms:t.ms.cpu ~opt_ms:t.ms.opt

let snapshot = counters

let since t (c0 : counters) =
  elapsed ~seq_reads:(t.seq_reads - c0.seq_reads)
    ~rand_reads:(t.rand_reads - c0.rand_reads)
    ~writes:(t.writes - c0.writes)
    ~cpu_ms:(t.ms.cpu -. c0.cpu_ms) ~opt_ms:(t.ms.opt -. c0.opt_ms)

let pp_counters fmt (c : counters) =
  Fmt.pf fmt
    "{seq_reads=%d; rand_reads=%d; writes=%d; cpu=%.2fms; opt=%.2fms (%d invocations)}"
    c.seq_reads c.rand_reads c.writes c.cpu_ms c.opt_ms c.opt_invocations
