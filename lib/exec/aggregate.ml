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

(* Compiled form of a group-by list and its aggregate specs. *)
type prepared = {
  group_idx : int array;
  all : int array;  (* every aggregate's index, for [feed] *)
  fns : agg_fn array;
  evals : (Tuple.t -> Value.t) option array;
  distinct : bool array;
  cell : Value.t array;  (* one argument value, looked up in [seen] *)
}

let prepare input_schema ~group_by ~aggs =
  let specs = Array.of_list aggs in
  { group_idx = Array.of_list (List.map (Schema.index_of input_schema) group_by);
    all = Array.init (Array.length specs) Fun.id;
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

(* Feeds row [t] to the aggregates [idx] lists, in that order. *)
let feed p idx accs t =
  for j = 0 to Array.length idx - 1 do
    let i = idx.(j) in
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
   each row's memo slot, its code tuple in mixed radix (first column
   least significant), and an array indexed by slot, -1 until the
   tuple's first row was looked up. *)
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
    (* one closure per column, built once: a per-row loop over [codes],
       an array of an abstract type, would check each read for a float
       array *)
    let rec slot k =
      let c = codes.(k) in
      if k = Array.length codes - 1 then fun r -> Heap_file.code c r
      else
        let radix = Heap_file.code_count c and rest = slot (k + 1) in
        fun r -> Heap_file.code c r + (radix * rest r)
    in
    if size > limit then None else Some (slot 0, Array.make size (-1))
  end

(* An aggregate that a coded GROUP BY runs in a loop of its own, after
   the pass that gives each row its group id: over the ids and its
   column's codes or payloads, reading no row.  Count-star, and SUM or
   AVG without DISTINCT of a plain column whose every value is a
   [Float]: coded, with a [Float] box for every code, or kept as [Float]
   payloads.  The [int] is the column's position in the leaf. *)
type kernel =
  | Count_rows
  | Sum_floats of int

(* Whether every code's box is a [Float] (code 0, [Null]'s, has none). *)
let all_float_boxes codes =
  let rec from k =
    k = Heap_file.code_count codes
    || ((match Heap_file.code_box codes k with Value.Float _ -> true | _ -> false)
        && from (k + 1))
  in
  from 1

let kernel schema leaf s =
  match s.fn, s.arg with
  | _ when s.distinct_arg -> None
  | Count, None -> Some Count_rows
  | (Sum | Avg), Some (Expr.Col c) ->
    let i = Schema.index_of schema c in
    (match Leaf.view leaf i with
     | Codes codes when all_float_boxes codes -> Some (Sum_floats i)
     | Floats _ -> Some (Sum_floats i)
     | Codes _ | Ints _ | Plain -> None)
  | _ -> None

(* A kernel's result: per group, the count and, for a sum, the sum. *)
type totals =
  | Counts of int array
  | Float_sums of int array * Float.Array.t

(* Runs kernel [k] over the leaf's rows, whose group ids [gids] holds (2
   bytes a row, [ng] groups).  Each group's sum is added in row order
   from its first value, which is assigned: [-0.0] and nan payloads keep
   their bits, as in [add_sum]. *)
let run_kernel leaf gids ng k =
  let n = Leaf.length leaf in
  let count = Array.make ng 0 in
  let[@inline] gid j = Bytes.get_uint16_le gids (2 * j) in
  match k with
  | Count_rows ->
    for j = 0 to n - 1 do
      let g = gid j in
      count.(g) <- count.(g) + 1
    done;
    Counts count
  | Sum_floats i ->
    let sum = Float.Array.make ng 0.0 in
    (match Leaf.view leaf i with
     | Codes codes ->
       let table =
         Float.Array.init (Heap_file.code_count codes) (fun k ->
             if k = 0 then 0.0
             else match Heap_file.code_box codes k with Value.Float x -> x | _ -> 0.0)
       in
       for j = 0 to n - 1 do
         let k = Heap_file.code codes (Leaf.position leaf j) in
         if k <> 0 then begin
           let g = gid j and y = Float.Array.get table k in
           Float.Array.set sum g (if count.(g) = 0 then y else Float.Array.get sum g +. y);
           count.(g) <- count.(g) + 1
         end
       done
     | Floats floats ->
       for j = 0 to n - 1 do
         let g = gid j and y = Heap_file.float_payload floats (Leaf.position leaf j) in
         Float.Array.set sum g (if count.(g) = 0 then y else Float.Array.get sum g +. y);
         count.(g) <- count.(g) + 1
       done
     | Ints _ | Plain -> invalid_arg "Aggregate: no Float codes or payloads");
    Float_sums (count, sum)

(* Leaves accumulator [a] of group [g] as [feed] would have: the same
   count, and the same sum state. *)
let store totals g a =
  match totals with
  | Counts count -> a.count <- count.(g)
  | Float_sums (count, sum) ->
    a.count <- count.(g);
    if a.count > 0 then begin
      a.state <- Float_sum;
      a.fsum.f <- Float.Array.get sum g
    end

exception At of int * exn

let stage ctx ~mem_pages input_schema ~group_by ~aggs leaf =
  let base = Leaf.base leaf in
  let clock = ctx.Exec_ctx.clock in
  let out_schema = output_schema input_schema ~group_by ~aggs in
  let p = prepare input_schema ~group_by ~aggs in
  let gidx = p.group_idx in
  let table = Table.create ~key:gidx 16 in
  let groups = ref (Array.make 16 [||]) in
  (* the leaf index of each group's first row *)
  let firsts = ref (Array.make 16 0) in
  let lookup j t =
    let h = Rows_ops.row_hash t gidx in
    let id = Table.find table h t gidx in
    if id >= 0 then id
    else begin
      let id = Table.add table h t in
      if id = Array.length !groups then begin
        groups := Array.append !groups (Array.make id [||]);
        firsts := Array.append !firsts (Array.make id 0)
      end;
      !groups.(id) <- fresh_accs p;
      !firsts.(id) <- j;
      id
    end
  in
  (* the leaf index of the row being fed, for [At] *)
  let j = ref 0 in
  (try
     match group_memo leaf gidx with
     | None ->
       Leaf.iter leaf (fun r ->
           let t = base.(r) in
           feed p p.all !groups.(lookup !j t) t;
           incr j)
     | Some (slot, ids) ->
       let kernels = Array.map (kernel input_schema leaf) (Array.of_list aggs) in
       let generic =
         Array.of_list (List.filter (fun i -> Option.is_none kernels.(i)) (Array.to_list p.all))
       in
       (* one pass: each row's group id, and the generic aggregates row
          by row; the ids are the step's scratch *)
       let n = Leaf.length leaf in
       let gids = Exec_ctx.bytes ctx (2 * n) in
       while !j < n do
         let r = Leaf.position leaf !j in
         let s = slot r in
         if ids.(s) < 0 then ids.(s) <- lookup !j base.(r);
         let id = ids.(s) in
         Bytes.set_uint16_le gids (2 * !j) id;
         if Array.length generic > 0 then feed p generic !groups.(id) base.(r);
         incr j
       done;
       (* then one loop per kernel; aggregates with the same kernel (Q1's
          SUM and AVG of one column) share its run *)
       let ng = Table.length table and runs = ref [] in
       Array.iteri
         (fun i k ->
            Option.iter
              (fun k ->
                 let totals =
                   match List.assoc_opt k !runs with
                   | Some totals -> totals
                   | None ->
                     let totals = run_kernel leaf gids ng k in
                     runs := (k, totals) :: !runs;
                     totals
                 in
                 for g = 0 to ng - 1 do
                   store totals g !groups.(g).(i)
                 done)
              k)
         kernels
   with e -> raise (At (!j, e)));
  Sim_clock.charge_hash_tuples clock (Leaf.length leaf);
  fun () ->
    (* A global aggregate (no GROUP BY) over an empty input still yields
       one row, per SQL semantics. *)
    if group_by = [] && Table.length table = 0 then ignore (lookup 0 [||]);
    (* Groups come out in table-id order, the order their first rows
       arrived. *)
    let out =
      Array.init (Table.length table) (fun id ->
          try finalize p (Table.row table id) !groups.(id)
          with e -> raise (At (!firsts.(id), e)))
    in
    Sim_clock.charge_cpu_tuples clock (Array.length out);
    (* Memory model: if the group table exceeds the grant, aggregation
       spills and re-reads its input once (2-pass partitioned
       aggregation). *)
    let passes =
      let group_pages = Exec_ctx.pages_of_bytes (Rows_ops.bytes_of_rows out) in
      if group_pages <= max 1 mem_pages then 1
      else begin
        let input_pages = Exec_ctx.pages_of_bytes (Leaf.byte_size leaf) in
        Sim_clock.charge_write clock input_pages;
        Sim_clock.charge_seq_read clock input_pages;
        2
      end
    in
    { rows = out; schema = out_schema; passes }

let hash_aggregate ctx ~mem_pages input_schema ~group_by ~aggs leaf =
  try stage ctx ~mem_pages input_schema ~group_by ~aggs leaf ()
  with At (_, e) -> raise e
