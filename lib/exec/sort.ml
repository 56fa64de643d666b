open Mqr_storage

let sort_passes ~mem_pages ~data_pages =
  let mem = Int.max 2 mem_pages in
  if data_pages <= mem then 1
  else begin
    let fan_in = Int.max 2 (mem - 1) in
    (* merge levels until one run is left, counted in a loop so that the
       optimizer's sort prices allocate nothing *)
    let runs = ref ((data_pages + mem - 1) / mem) and levels = ref 0 in
    while !runs > 1 do
      incr levels;
      runs := (!runs + fan_in - 1) / fan_in
    done;
    1 + !levels
  end

type result = {
  rows : Tuple.t array;
  passes : int;
}

(* The keys first, then the whole row, ascending, its columns in order of
   their qualified names: a total order, so the output sequence depends
   only on the input multiset, neither on the order a plan delivered the
   rows in nor on which side of a join put its columns first.  Which
   columns a row carries depends on the plan; the optimizer ends an ORDER
   BY below a projection with the SELECT columns, so rows the whole-row
   step orders project to equal rows. *)
let comparator schema ~keys =
  let name i = Schema.qualified_name (Schema.column schema i) in
  let idxs =
    List.map (fun (c, asc) -> (Schema.index_of schema c, asc)) keys
    @ List.stable_sort
        (fun (i, _) (j, _) -> String.compare (name i) (name j))
        (List.init (Schema.arity schema) (fun i -> (i, true)))
  in
  fun a b ->
    let rec go = function
      | [] -> 0
      | (i, asc) :: rest ->
        let c = Value.compare a.(i) b.(i) in
        if c <> 0 then if asc then c else -c else go rest
    in
    go idxs

let sort ctx ~mem_pages schema ~keys rows =
  let clock = ctx.Exec_ctx.clock in
  let cmp = comparator schema ~keys in
  let out = Array.copy rows in
  Array.sort cmp out;
  let n = Array.length rows in
  let log2n = if n <= 1 then 1 else int_of_float (ceil (log (float_of_int n) /. log 2.0)) in
  Sim_clock.charge_sort_tuples clock (n * log2n);
  let data_pages = Exec_ctx.pages_of_bytes (Rows_ops.bytes_of_rows rows) in
  let passes = sort_passes ~mem_pages ~data_pages in
  for _ = 2 to passes do
    Sim_clock.charge_write clock data_pages;
    Sim_clock.charge_seq_read clock data_pages
  done;
  { rows = out; passes }
