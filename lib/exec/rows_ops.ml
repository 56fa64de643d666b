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
  if !kept = Array.length rows then rows else Array.sub out 0 !kept

let project ctx schema cols rows =
  let idxs = List.map (Schema.index_of schema) cols in
  Sim_clock.charge_cpu_tuples ctx.Exec_ctx.clock (Array.length rows);
  (Array.map (fun t -> Tuple.project t idxs) rows, Schema.project schema idxs)

let limit ctx n rows =
  Sim_clock.charge_cpu_tuples ctx.Exec_ctx.clock (min n (Array.length rows));
  if Array.length rows <= n then rows else Array.sub rows 0 n

let tuple_bytes t =
  let total = ref Tuple.header_bytes in
  for i = 0 to Array.length t - 1 do
    total := !total + Value.byte_size t.(i)
  done;
  !total

let bytes_of_rows rows =
  let total = ref 0 in
  for r = 0 to Array.length rows - 1 do
    total := !total + tuple_bytes rows.(r)
  done;
  !total

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

let[@inline] hash_one h = (17 * 31) + h

let row_hash t idx =
  let h = ref 17 in
  for i = 0 to Array.length idx - 1 do
    h := (!h * 31) + Value.hash t.(idx.(i))
  done;
  !h

let rec equal_from a ai b bi i =
  i = Array.length ai || (Value.equal a.(ai.(i)) b.(bi.(i)) && equal_from a ai b bi (i + 1))

let keys_equal a ai b bi = equal_from a ai b bi 0

module Table = struct
  type t = {
    key : int array;
    mutable slots : int array;  (* per slot: full hash, then id (-1: empty) *)
    rows : Out.t;  (* id -> the first row added with that key *)
  }

  let create ?ctx ~key n =
    let rec cap c = if c >= 2 * n then c else cap (2 * c) in
    let size = 2 * cap 16 in
    let slots =
      match ctx with
      | None -> Array.make size (-1)
      | Some ctx ->
        (* a power of two at least [size] long: exactly [size] *)
        let slots = Exec_ctx.ints ctx size in
        Array.fill slots 0 size (-1);
        slots
    in
    { key; slots; rows = Out.create n }

  let length t = t.rows.len
  let row t id = t.rows.rows.(id)

  let find t h row idx =
    let slots = t.slots in
    let mask = (Array.length slots lsr 1) - 1 in
    let s = ref (h land mask) and found = ref (-2) in
    while !found = -2 do
      let id = slots.((2 * !s) + 1) in
      if id < 0 || (slots.(2 * !s) = h && keys_equal t.rows.rows.(id) t.key row idx)
      then found := id
      else s := (!s + 1) land mask
    done;
    !found

  (* Puts [id] in the first empty slot from [h]. *)
  let place slots h id =
    let mask = (Array.length slots lsr 1) - 1 in
    let s = ref (h land mask) in
    while slots.((2 * !s) + 1) >= 0 do
      s := (!s + 1) land mask
    done;
    slots.(2 * !s) <- h;
    slots.((2 * !s) + 1) <- id

  (* Doubles the slots once they are half full. *)
  let add t h row =
    let id = t.rows.len in
    place t.slots h id;
    Out.add t.rows row;
    let old = t.slots in
    if 4 * (id + 1) > Array.length old then begin
      t.slots <- Array.make (2 * Array.length old) (-1);
      for s = 0 to (Array.length old / 2) - 1 do
        if old.((2 * s) + 1) >= 0 then place t.slots old.(2 * s) old.((2 * s) + 1)
      done
    end;
    id
end
