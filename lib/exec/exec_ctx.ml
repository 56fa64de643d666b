open Mqr_storage

type t = {
  clock : Sim_clock.t;
  pool : Buffer_pool.t;
}

let create ?(pool_pages = 1024) () =
  { clock = Sim_clock.create (); pool = Buffer_pool.create ~capacity_pages:pool_pages }

let pages_of_bytes bytes =
  max 1 ((bytes + Heap_file.page_size_bytes - 1) / Heap_file.page_size_bytes)

let elapsed_ms t = Sim_clock.elapsed_ms t.clock
