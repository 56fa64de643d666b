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
  let total = ref 0 in
  for r = 0 to Array.length rows - 1 do
    let t = rows.(r) in
    total := !total + Tuple.header_bytes;
    for i = 0 to Array.length t - 1 do
      total := !total + Value.byte_size t.(i)
    done
  done;
  !total

module Vtbl = Hashtbl.Make (struct
    type t = Value.t

    let equal = Value.equal
    let hash = Value.hash
  end)

module Key = struct
  type t = Value.t array

  let equal a b =
    let n = Array.length a in
    n = Array.length b
    &&
    let rec go i = i >= n || (Value.equal a.(i) b.(i) && go (i + 1)) in
    go 0

  let hash k = Array.fold_left (fun acc v -> (acc * 31) + Value.hash v) 17 k
end

module Ktbl = Hashtbl.Make (Key)

module Out = struct
  type t = { mutable rows : Tuple.t array; mutable len : int }

  let create n = { rows = Array.make (max 16 n) [||]; len = 0 }

  let add b t =
    if b.len = Array.length b.rows then begin
      let bigger = Array.make (2 * b.len) [||] in
      Array.blit b.rows 0 bigger 0 b.len;
      b.rows <- bigger
    end;
    b.rows.(b.len) <- t;
    b.len <- b.len + 1

  let length b = b.len

  let contents b =
    if b.len = Array.length b.rows then b.rows else Array.sub b.rows 0 b.len
end
