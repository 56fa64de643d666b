open Mqr_storage
module Expr = Mqr_expr.Expr

type t = {
  base : Tuple.t array;  (* the rows [pos] picks from *)
  cols : Heap_file.codes option array;  (* per column, by position in [base]; [||]: none *)
  pos : int array option;  (* the leaf's rows: the first [len] positions in [base]; None: all *)
  len : int;
  rows : Tuple.t array Lazy.t;  (* the leaf's rows, gathered on first use *)
}

let make base cols pos len =
  let rows =
    match pos with
    | None -> Lazy.from_val base
    | Some pos -> lazy (Array.init len (fun i -> base.(pos.(i))))
  in
  { base; cols; pos; len; rows }

let rows leaf = Lazy.force leaf.rows

let length leaf = leaf.len

let base leaf = leaf.base

let iter leaf f =
  match leaf.pos with
  | None ->
    for r = 0 to Array.length leaf.base - 1 do
      f r
    done
  | Some pos ->
    for i = 0 to leaf.len - 1 do
      f pos.(i)
    done

let position leaf k = match leaf.pos with None -> k | Some pos -> pos.(k)

let column leaf i = if i < Array.length leaf.cols then leaf.cols.(i) else None

let of_rows rows = make rows [||] None (Array.length rows)

(* The file's rows, picked by [pos], with each column's codes, read now. *)
let of_file heap pos len =
  make (Heap_file.rows heap)
    (Array.init (Schema.arity (Heap_file.schema heap)) (Heap_file.codes heap))
    pos len

let of_heap heap = of_file heap None (Heap_file.tuple_count heap)

let charge_stripe ctx heap ~stripe ~degree =
  let n = Heap_file.tuple_count heap in
  Heap_file.charge_scan heap ~pool:ctx.Exec_ctx.pool ~clock:ctx.Exec_ctx.clock
    ~from_rid:(stripe * n / degree) ~to_rid:((stripe + 1) * n / degree)

let scan ctx heap =
  charge_stripe ctx heap ~stripe:0 ~degree:1;
  of_heap heap

let index_scan ctx heap btree ?lo ?hi () =
  let pool = ctx.Exec_ctx.pool and clock = ctx.Exec_ctx.clock in
  let rids =
    Array.of_list
      (Btree.probe btree ~pool ~clock ?lo:(Option.map fst lo)
         ?hi:(Option.map fst hi) ())
  in
  Array.iter (fun rid -> ignore (Heap_file.fetch heap ~pool ~clock rid)) rids;
  of_file heap (Some rids) (Array.length rids)

type conjunct =
  | Per_row of (Tuple.t -> bool)
  | Per_code of {
      pred : Tuple.t -> bool;
      codes : Heap_file.codes;
      verdicts : Bytes.t;  (* per code: 0 not yet known, 1 false, 2 true *)
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

(* The verdict (1 false, 2 true) of [pred] on [t], whose code is [code],
   kept for the code's later rows. *)
let learn pred verdicts code t =
  let v = if pred t then 2 else 1 in
  Bytes.set verdicts code (Char.chr v);
  v

(* Whether the row at position [r] passes conjunct [c]. *)
let holds c base r =
  match c with
  | Per_row pred -> pred base.(r)
  | Per_code { pred; codes; verdicts } ->
    let code = Heap_file.code codes r in
    (match Bytes.get verdicts code with
     | '\000' -> learn pred verdicts code base.(r) = 2
     | v -> v = '\002')

(* The row path: each row runs the conjuncts left to right until one
   fails.  Returns the survivors' positions (first in an array of the
   leaf's length, which the filtered leaf keeps: no second copy) and
   their number. *)
let by_row cs leaf =
  let out = Array.make (length leaf) 0 and kept = ref 0 in
  let last = Array.length cs - 1 in
  iter leaf (fun r ->
      let k = ref 0 in
      while !k <= last && holds cs.(!k) leaf.base r do
        incr k
      done;
      if !k > last then begin
        out.(!kept) <- r;
        incr kept
      end);
  (out, !kept)

(* Of the [m] positions [src] lists (None: 0 .. m-1), writes those that
   pass [c] to [dst], in order, and returns their number.  [dst] may be
   [src]: each position is written no later than it is read.  Every
   position is written, and the count moves by the verdict, so the loop
   takes no branch on it. *)
let sweep c base src m dst =
  let j = ref 0 in
  (match c with
   | Per_row pred ->
     for i = 0 to m - 1 do
       let r = match src with None -> i | Some src -> src.(i) in
       dst.(!j) <- r;
       j := !j + Bool.to_int (pred base.(r))
     done
   | Per_code { pred; codes; verdicts } ->
     for i = 0 to m - 1 do
       let r = match src with None -> i | Some src -> src.(i) in
       let code = Heap_file.code codes r in
       let v = Char.code (Bytes.get verdicts code) in
       let v = if v = 0 then learn pred verdicts code base.(r) else v in
       dst.(!j) <- r;
       j := !j + (v lsr 1)
     done);
  !j

(* One conjunct at a time over the positions the ones before it kept:
   the same survivors as the row path, which a conjunct that calls no
   UDF cannot tell apart, except by which row raises first. *)
let by_conjunct cs leaf =
  let dst = Array.make (length leaf) 0 in
  let live = ref (length leaf) in
  Array.iteri
    (fun k c ->
       live := sweep c leaf.base (if k = 0 then leaf.pos else Some dst) !live dst)
    cs;
  (dst, !live)

let filter ctx schema pred leaf =
  let cs = Array.of_list (List.map (conjunct schema leaf) (Expr.conjuncts pred)) in
  let n = length leaf in
  Sim_clock.charge_cpu_tuples ctx.Exec_ctx.clock n;
  let kept, survivors =
    if Expr.has_udf pred then by_row cs leaf
    else try by_conjunct cs leaf with _ -> by_row cs leaf
  in
  if survivors = n then leaf
  else make leaf.base leaf.cols (Some kept) survivors
