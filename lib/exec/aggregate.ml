open Mqr_storage
module Expr = Mqr_expr.Expr

type agg_fn = Count | Sum | Avg | Min | Max

type spec = {
  fn : agg_fn;
  distinct_arg : bool;
  arg : Expr.t option;
  out_name : string;
}

type result = {
  rows : Tuple.t array;
  schema : Schema.t;
  passes : int;
}

let agg_ty input_schema s =
  match s.fn, s.arg with
  | Count, _ -> Value.TInt
  | Avg, _ -> Value.TFloat
  | (Sum | Min | Max), Some e -> Expr.type_of input_schema e
  | (Sum | Min | Max), None ->
    invalid_arg "Aggregate: sum/min/max need an argument"

let output_schema input_schema ~group_by ~aggs =
  let group_cols =
    List.map
      (fun g -> Schema.column input_schema (Schema.index_of input_schema g))
      group_by
  in
  let agg_cols = List.map (fun s -> Schema.col s.out_name (agg_ty input_schema s)) aggs in
  Schema.make (group_cols @ agg_cols)

module Table = Rows_ops.Table

(* The running sum mirrors [Value.add] folded from [Null]: an unboxed int
   while only ints arrive, an unboxed float from the first float on, and
   the boxed [Value.add] for any other value, so every result is
   bit-equal to the fold. *)
type sum_state = No_sum | Int_sum | Float_sum | Boxed_sum

(* A float-only record is stored flat: updating it boxes nothing. *)
type fsum = { mutable f : float }

(* Each function updates only what it reads: Count the count, Sum and Avg
   the count and the sum, Min and Max [v]. *)
type acc = {
  mutable count : int;
  mutable state : sum_state;
  mutable isum : int;
  fsum : fsum;
  mutable v : Value.t;  (* Min/Max extreme, or the sum once boxed *)
  seen : Table.t option;  (* distinct-argument tracking, keyed by [[|x|]] *)
}

let add_sum a x =
  match a.state, x with
  | No_sum, Value.Int y -> a.state <- Int_sum; a.isum <- y
  | No_sum, Value.Float y -> a.state <- Float_sum; a.fsum.f <- y
  | Int_sum, Value.Int y -> a.isum <- a.isum + y
  | Int_sum, Value.Float y ->
    a.state <- Float_sum;
    a.fsum.f <- float_of_int a.isum +. y
  | Float_sum, Value.Float y -> a.fsum.f <- a.fsum.f +. y
  | Float_sum, Value.Int y -> a.fsum.f <- float_of_int y +. a.fsum.f
  | No_sum, x -> a.state <- Boxed_sum; a.v <- x
  | Int_sum, x -> a.state <- Boxed_sum; a.v <- Value.add (Value.Int a.isum) x
  | Float_sum, x -> a.state <- Boxed_sum; a.v <- Value.add (Value.Float a.fsum.f) x
  | Boxed_sum, x -> a.v <- Value.add a.v x

let sum_value a =
  match a.state with
  | No_sum -> Value.Null
  | Int_sum -> Value.Int a.isum
  | Float_sum -> Value.Float a.fsum.f
  | Boxed_sum -> a.v

(* Compiled form of a group-by list and its aggregate specs, shared by the
   hash and the streaming operator. *)
type prepared = {
  group_idx : int array;
  fns : agg_fn array;
  evals : (Tuple.t -> Value.t) option array;
  distinct : bool array;
  cell : Value.t array;  (* one argument value, looked up in [seen] *)
}

let prepare input_schema ~group_by ~aggs =
  let specs = Array.of_list aggs in
  { group_idx = Array.of_list (List.map (Schema.index_of input_schema) group_by);
    fns = Array.map (fun s -> s.fn) specs;
    evals = Array.map (fun s -> Option.map (Expr.compile input_schema) s.arg) specs;
    distinct = Array.map (fun s -> s.distinct_arg) specs;
    cell = [| Value.Null |] }

let cell0 = [| 0 |]

let fresh_accs p =
  Array.map
    (fun distinct ->
       { count = 0; state = No_sum; isum = 0; fsum = { f = 0.0 }; v = Value.Null;
         seen = (if distinct then Some (Table.create ~key:cell0 8) else None) })
    p.distinct

let fresh_arg p a x =
  match a.seen with
  | None -> true
  | Some set ->
    p.cell.(0) <- x;
    let h = Rows_ops.row_hash p.cell cell0 in
    Table.find set h p.cell cell0 < 0 && (ignore (Table.add set h [| x |]); true)

let feed p accs t =
  for i = 0 to Array.length accs - 1 do
    let a = accs.(i) in
    match p.evals.(i) with
    | None -> a.count <- a.count + 1
    | Some f ->
      let x = f t in
      if not (Value.is_null x) && fresh_arg p a x then
        match p.fns.(i) with
        | Count -> a.count <- a.count + 1
        | Sum | Avg ->
          a.count <- a.count + 1;
          add_sum a x
        | Min -> a.v <- Value.min_value a.v x
        | Max -> a.v <- Value.max_value a.v x
  done

let agg_value fn a =
  match fn with
  | Count -> Value.Int a.count
  | Sum -> sum_value a
  | Min | Max -> a.v
  | Avg ->
    if a.count = 0 then Value.Null
    else Value.Float (Value.to_float (sum_value a) /. float_of_int a.count)

let finalize p first accs =
  let nk = Array.length p.group_idx in
  let row = Array.make (nk + Array.length accs) Value.Null in
  Array.iteri (fun i c -> row.(i) <- first.(c)) p.group_idx;
  Array.iteri (fun i a -> row.(nk + i) <- agg_value p.fns.(i) a) accs;
  row

(* Above this many code tuples, or more than the input has rows, a GROUP
   BY over coded columns keeps no memo. *)
let memo_limit = 1 lsl 16

(* The group-id memo of a GROUP BY whose every column is coded in [leaf]:
   each column's codes, and an array indexed by the code tuple (mixed
   radix, first column least significant), -1 until the tuple's first
   row was looked up. *)
let group_memo leaf gidx =
  let codes = Array.map (Leaf.column leaf) gidx in
  if Array.length gidx = 0 || Array.exists Option.is_none codes then None
  else begin
    let codes = Array.map Option.get codes in
    let limit = min memo_limit (Leaf.length leaf) in
    let size =
      Array.fold_left
        (fun n c -> if n > limit then n else n * Heap_file.code_count c)
        1 codes
    in
    if size > limit then None else Some (codes, Array.make size (-1))
  end

let hash_aggregate ctx ~mem_pages input_schema ~group_by ~aggs leaf =
  let base = Leaf.base leaf in
  let clock = ctx.Exec_ctx.clock in
  let out_schema = output_schema input_schema ~group_by ~aggs in
  let p = prepare input_schema ~group_by ~aggs in
  let gidx = p.group_idx in
  let table = Table.create ~key:gidx 16 in
  let groups = ref (Array.make 16 [||]) in
  let lookup t =
    let h = Rows_ops.row_hash t gidx in
    let id = Table.find table h t gidx in
    if id >= 0 then id
    else begin
      let id = Table.add table h t in
      if id = Array.length !groups then
        groups := Array.append !groups (Array.make id [||]);
      !groups.(id) <- fresh_accs p;
      id
    end
  in
  (match group_memo leaf gidx with
   | None ->
     Leaf.iter leaf (fun r ->
         let t = base.(r) in
         feed p !groups.(lookup t) t)
   | Some (codes, ids) ->
     Leaf.iter leaf (fun r ->
       let t = base.(r) in
       let slot = ref 0 in
       for k = Array.length codes - 1 downto 0 do
         let c = codes.(k) in
         slot := (!slot * Heap_file.code_count c) + Heap_file.code c r
       done;
       if ids.(!slot) < 0 then ids.(!slot) <- lookup t;
       feed p !groups.(ids.(!slot)) t));
  Sim_clock.charge_hash_tuples clock (Leaf.length leaf);
  (* A global aggregate (no GROUP BY) over an empty input still yields one
     row, per SQL semantics. *)
  if group_by = [] && Table.length table = 0 then ignore (lookup [||]);
  (* Groups come out in table-id order, the order their first rows arrived. *)
  let out =
    Array.init (Table.length table) (fun id -> finalize p (Table.row table id) !groups.(id))
  in
  Sim_clock.charge_cpu_tuples clock (Array.length out);
  (* Memory model: if the group table exceeds the grant, aggregation spills
     and re-reads its input once (2-pass partitioned aggregation). *)
  let passes =
    let group_pages = Exec_ctx.pages_of_bytes (Rows_ops.bytes_of_rows out) in
    if group_pages <= max 1 mem_pages then 1
    else begin
      let input_pages =
        Exec_ctx.pages_of_bytes (Rows_ops.bytes_of_rows (Leaf.rows leaf))
      in
      Sim_clock.charge_write clock input_pages;
      Sim_clock.charge_seq_read clock input_pages;
      2
    end
  in
  { rows = out; schema = out_schema; passes }

(* Streaming variant: input grouped on the group-by columns; a group closes
   when the key changes. *)
let sorted_aggregate ctx input_schema ~group_by ~aggs rows =
  let clock = ctx.Exec_ctx.clock in
  let out_schema = output_schema input_schema ~group_by ~aggs in
  let p = prepare input_schema ~group_by ~aggs in
  let out = Rows_ops.Out.create 16 in
  let current = ref None in
  Array.iter
    (fun t ->
       match !current with
       | Some (first, accs) when Rows_ops.keys_equal first p.group_idx t p.group_idx ->
         feed p accs t
       | prev ->
         Option.iter (fun (first, accs) -> Rows_ops.Out.add out (finalize p first accs)) prev;
         let accs = fresh_accs p in
         feed p accs t;
         current := Some (t, accs))
    rows;
  (match !current with
   | Some (k, accs) -> Rows_ops.Out.add out (finalize p k accs)
   | None -> if group_by = [] then Rows_ops.Out.add out (finalize p [||] (fresh_accs p)));
  Sim_clock.charge_cpu_tuples clock (Array.length rows);
  let out = Rows_ops.Out.contents out in
  Sim_clock.charge_cpu_tuples clock (Array.length out);
  { rows = out; schema = out_schema; passes = 1 }
