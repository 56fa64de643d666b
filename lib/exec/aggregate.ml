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

module Ktbl = Rows_ops.Ktbl
module Vtbl = Rows_ops.Vtbl

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
  seen : unit Vtbl.t option;  (* distinct-argument tracking *)
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
}

let prepare input_schema ~group_by ~aggs =
  let specs = Array.of_list aggs in
  { group_idx = Array.of_list (List.map (Schema.index_of input_schema) group_by);
    fns = Array.map (fun s -> s.fn) specs;
    evals = Array.map (fun s -> Option.map (Expr.compile input_schema) s.arg) specs;
    distinct = Array.map (fun s -> s.distinct_arg) specs }

let fresh_accs p =
  Array.map
    (fun distinct ->
       { count = 0; state = No_sum; isum = 0; fsum = { f = 0.0 }; v = Value.Null;
         seen = (if distinct then Some (Vtbl.create 16) else None) })
    p.distinct

let load_key p key t =
  for i = 0 to Array.length key - 1 do
    key.(i) <- t.(p.group_idx.(i))
  done

let fresh_arg a x =
  match a.seen with
  | None -> true
  | Some set ->
    if Vtbl.mem set x then false
    else begin
      Vtbl.replace set x ();
      true
    end

let feed p accs t =
  for i = 0 to Array.length accs - 1 do
    let a = accs.(i) in
    match p.evals.(i) with
    | None -> a.count <- a.count + 1
    | Some f ->
      let x = f t in
      if not (Value.is_null x) && fresh_arg a x then
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

let finalize p key accs =
  let nk = Array.length key in
  let row = Array.make (nk + Array.length accs) Value.Null in
  Array.blit key 0 row 0 nk;
  Array.iteri (fun i a -> row.(nk + i) <- agg_value p.fns.(i) a) accs;
  row

let hash_aggregate ctx ~mem_pages input_schema ~group_by ~aggs rows =
  let clock = ctx.Exec_ctx.clock in
  let out_schema = output_schema input_schema ~group_by ~aggs in
  let p = prepare input_schema ~group_by ~aggs in
  let table : acc array Ktbl.t = Ktbl.create 256 in
  (* one scratch key, copied only when it starts a new group *)
  let key = Array.make (Array.length p.group_idx) Value.Null in
  Array.iter
    (fun t ->
       load_key p key t;
       let accs =
         match Ktbl.find table key with
         | a -> a
         | exception Not_found ->
           let a = fresh_accs p in
           Ktbl.add table (Array.copy key) a;
           a
       in
       feed p accs t)
    rows;
  Sim_clock.charge_hash_tuples clock (Array.length rows);
  (* A global aggregate (no GROUP BY) over an empty input still yields one
     row, per SQL semantics. *)
  if group_by = [] && Ktbl.length table = 0 then Ktbl.add table [||] (fresh_accs p);
  (* Groups come out in the reverse of [Ktbl.fold]'s order, which the key
     hash fixes. *)
  let n = Ktbl.length table in
  let out = Array.make n [||] in
  ignore
    (Ktbl.fold
       (fun key accs i ->
          out.(i) <- finalize p key accs;
          i - 1)
       table (n - 1));
  Sim_clock.charge_cpu_tuples clock (Array.length out);
  (* Memory model: if the group table exceeds the grant, aggregation spills
     and re-reads its input once (2-pass partitioned aggregation). *)
  let passes =
    let group_pages = Exec_ctx.pages_of_bytes (Rows_ops.bytes_of_rows out) in
    if group_pages <= max 1 mem_pages then 1
    else begin
      let input_pages = Exec_ctx.pages_of_bytes (Rows_ops.bytes_of_rows rows) in
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
  let key = Array.make (Array.length p.group_idx) Value.Null in
  let current = ref None in
  Array.iter
    (fun t ->
       load_key p key t;
       match !current with
       | Some (k, accs) when Rows_ops.Key.equal k key -> feed p accs t
       | prev ->
         Option.iter (fun (k, accs) -> Rows_ops.Out.add out (finalize p k accs)) prev;
         let accs = fresh_accs p in
         feed p accs t;
         current := Some (Array.copy key, accs))
    rows;
  (match !current with
   | Some (k, accs) -> Rows_ops.Out.add out (finalize p k accs)
   | None -> if group_by = [] then Rows_ops.Out.add out (finalize p [||] (fresh_accs p)));
  Sim_clock.charge_cpu_tuples clock (Array.length rows);
  let out = Rows_ops.Out.contents out in
  Sim_clock.charge_cpu_tuples clock (Array.length out);
  { rows = out; schema = out_schema; passes = 1 }
