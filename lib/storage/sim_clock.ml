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

(* The ledger counts ticks of 1e-4 ms, and every rate above is a whole
   number of them, so a charge in ms converts exactly. *)
let ticks_of_ms ms = Float.to_int (Float.round (ms *. 1e4))
let ms_of_ticks n = float_of_int n /. 1e4

let seq_read_ticks = ticks_of_ms seq_read_ms
let rand_read_ticks = ticks_of_ms rand_read_ms
let write_ticks = ticks_of_ms write_ms
let cpu_tuple_ticks = ticks_of_ms cpu_tuple_ms
let hash_tuple_ticks = ticks_of_ms hash_tuple_ms
let sort_tuple_ticks = ticks_of_ms sort_tuple_ms
let opt_per_plan_ticks = ticks_of_ms opt_per_plan_ms

type model = unit

let default_model = ()

type t = {
  mutable seq_reads : int;
  mutable rand_reads : int;
  mutable writes : int;
  mutable cpu_ticks : int;
  mutable opt_ticks : int;
  mutable opt_invocations : int;
}

let create () =
  { seq_reads = 0; rand_reads = 0; writes = 0; cpu_ticks = 0; opt_ticks = 0;
    opt_invocations = 0 }

let charge_seq_read t n = t.seq_reads <- t.seq_reads + n
let charge_rand_read t n = t.rand_reads <- t.rand_reads + n
let charge_write t n = t.writes <- t.writes + n
let charge_cpu t ticks = t.cpu_ticks <- t.cpu_ticks + ticks
let charge_cpu_tuples t n = charge_cpu t (n * cpu_tuple_ticks)
let charge_hash_tuples t n = charge_cpu t (n * hash_tuple_ticks)
let charge_sort_tuples t n = charge_cpu t (n * sort_tuple_ticks)
let charge_cpu_ms t ms = charge_cpu t (ticks_of_ms ms)

let optimizer_ms ~plans = float_of_int plans *. opt_per_plan_ms

let charge_optimizer t ~plans =
  t.opt_ticks <- t.opt_ticks + (plans * opt_per_plan_ticks);
  t.opt_invocations <- t.opt_invocations + 1

let ticks t =
  (t.seq_reads * seq_read_ticks) + (t.rand_reads * rand_read_ticks)
  + (t.writes * write_ticks) + t.cpu_ticks + t.opt_ticks

let elapsed_ms t = ms_of_ticks (ticks t)
let snapshot t = { t with seq_reads = t.seq_reads }
let since t t0 = ms_of_ticks (ticks t - ticks t0)

type counters = {
  seq_reads : int;
  rand_reads : int;
  writes : int;
  cpu_ms : float;
  opt_ms : float;
  opt_invocations : int;
}

let counters (t : t) =
  { seq_reads = t.seq_reads; rand_reads = t.rand_reads; writes = t.writes;
    cpu_ms = ms_of_ticks t.cpu_ticks; opt_ms = ms_of_ticks t.opt_ticks;
    opt_invocations = t.opt_invocations }

let pp_counters fmt (c : counters) =
  Fmt.pf fmt
    "{seq_reads=%d; rand_reads=%d; writes=%d; cpu=%.2fms; opt=%.2fms (%d invocations)}"
    c.seq_reads c.rand_reads c.writes c.cpu_ms c.opt_ms c.opt_invocations
