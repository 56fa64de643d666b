open Mqr_storage

let filter ctx schema pred rows =
  let p = Mqr_expr.Expr.compile_pred schema pred in
  Sim_clock.charge_cpu_tuples ctx.Exec_ctx.clock (Array.length rows);
  let out = Array.make (Array.length rows) [||] and kept = ref 0 in
  Array.iter
    (fun t ->
       if p t then begin
         out.(!kept) <- t;
         incr kept
       end)
    rows;
  Array.sub out 0 !kept

let project ctx schema cols rows =
  let idxs = List.map (Schema.index_of schema) cols in
  Sim_clock.charge_cpu_tuples ctx.Exec_ctx.clock (Array.length rows);
  (Array.map (fun t -> Tuple.project t idxs) rows, Schema.project schema idxs)

let limit ctx n rows =
  Sim_clock.charge_cpu_tuples ctx.Exec_ctx.clock (min n (Array.length rows));
  if Array.length rows <= n then rows else Array.sub rows 0 n

let bytes_of_rows rows =
  Array.fold_left (fun acc t -> acc + Tuple.byte_size t) 0 rows
