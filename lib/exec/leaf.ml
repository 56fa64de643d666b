open Mqr_storage
module Expr = Mqr_expr.Expr

type t = {
  rows : Tuple.t array;
  cols : Heap_file.codes option Lazy.t array;  (* per column, by row; [||]: none *)
}

let rows leaf = leaf.rows

let of_rows rows = { rows; cols = [||] }

let of_heap heap rows =
  if Array.length rows <> Heap_file.tuple_count heap then
    invalid_arg "Leaf.of_heap: not every row of the file";
  { rows;
    cols =
      Array.init (Schema.arity (Heap_file.schema heap)) (fun i ->
          Lazy.from_val (Heap_file.codes heap i)) }

let scan ctx heap =
  of_heap heap
    (Heap_file.read heap ~pool:ctx.Exec_ctx.pool ~clock:ctx.Exec_ctx.clock
       ~from_rid:0 ~to_rid:(Heap_file.tuple_count heap))

let index_scan ctx heap btree ?lo ?hi () =
  let pool = ctx.Exec_ctx.pool and clock = ctx.Exec_ctx.clock in
  let rids =
    Btree.probe btree ~pool ~clock ?lo:(Option.map fst lo)
      ?hi:(Option.map fst hi) ()
  in
  let out = Array.make (List.length rids) [||] in
  List.iteri (fun i rid -> out.(i) <- Heap_file.fetch heap ~pool ~clock rid) rids;
  of_rows out

let column leaf i =
  if i < Array.length leaf.cols then Lazy.force leaf.cols.(i) else None

type conjunct =
  | Per_row of (Tuple.t -> bool)
  | Per_code of {
      pred : Tuple.t -> bool;
      codes : Heap_file.codes;
      verdicts : Bytes.t;  (* per code: '\000' not yet known, '\001' false, '\002' true *)
    }

let conjunct schema leaf e =
  let pred = Expr.compile_pred schema e in
  match List.sort_uniq Int.compare (List.map (Schema.index_of schema) (Expr.columns e)) with
  | [ i ] when not (Expr.has_udf e) ->
    (match column leaf i with
     | Some codes ->
       Per_code
         { pred; codes; verdicts = Bytes.make (Heap_file.code_count codes) '\000' }
     | None -> Per_row pred)
  | _ -> Per_row pred

(* Whether row [r], tuple [t], passes conjunct [k]. *)
let holds cs r t k =
  match cs.(k) with
  | Per_row pred -> pred t
  | Per_code { pred; codes; verdicts } ->
    let c = Heap_file.code codes r in
    (match Bytes.get verdicts c with
     | '\001' -> false
     | '\002' -> true
     | _ ->
       let v = pred t in
       Bytes.set verdicts c (if v then '\002' else '\001');
       v)

(* Each row's verdict first, in a flag per row, then the survivors: no
   array is sized for rows that are dropped. *)
let filter ctx schema pred leaf =
  let cs = Array.of_list (List.map (conjunct schema leaf) (Expr.conjuncts pred)) in
  let rows = leaf.rows in
  let n = Array.length rows in
  Sim_clock.charge_cpu_tuples ctx.Exec_ctx.clock n;
  let kept = Bytes.create n and survivors = ref 0 in
  let last = Array.length cs - 1 in
  for r = 0 to n - 1 do
    let t = rows.(r) and k = ref 0 in
    while !k <= last && holds cs r t !k do
      incr k
    done;
    if !k > last then begin
      Bytes.set kept r '\001';
      incr survivors
    end
    else Bytes.set kept r '\000'
  done;
  let survivors = !survivors in
  if survivors = n then leaf
  else begin
    let out = Array.make survivors [||] and j = ref 0 in
    for r = 0 to n - 1 do
      if Bytes.get kept r <> '\000' then begin
        out.(!j) <- rows.(r);
        incr j
      end
    done;
    { rows = out;
      cols =
        Array.map
          (fun c ->
             lazy
               (Option.map
                  (fun c -> Heap_file.select c kept survivors)
                  (Lazy.force c)))
          leaf.cols }
  end
