open Mqr_storage
module Expr = Mqr_expr.Expr

type t = {
  base : Tuple.t array;  (* the rows [pos] picks from *)
  views : Heap_file.view array;  (* per column, by position in [base]; [||]: none *)
  pos : Bytes.t option;
      (* the leaf's rows: the first [len] positions in [base], 4 bytes
         each, in a buffer borrowed for the step; None: all *)
  len : int;
  rows : Tuple.t array Lazy.t;  (* the leaf's rows, gathered on first use *)
}

(* Native-endian: positions are written and read by these two only. *)
external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32"

let[@inline] get_pos b i = Int32.to_int (get32 b (4 * i))
let[@inline] set_pos b i r = set32 b (4 * i) (Int32.of_int r)

let make base views pos len =
  let rows =
    match pos with
    | None -> Lazy.from_val base
    | Some pos -> lazy (Array.init len (fun i -> base.(get_pos pos i)))
  in
  { base; views; pos; len; rows }

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
      f (get_pos pos i)
    done

let[@inline] position leaf k = match leaf.pos with None -> k | Some pos -> get_pos pos k

let byte_size leaf =
  let total = ref 0 in
  iter leaf (fun r -> total := !total + Rows_ops.tuple_bytes leaf.base.(r));
  !total

let view leaf i : Heap_file.view =
  if i < Array.length leaf.views then leaf.views.(i) else Plain

let column leaf i = match view leaf i with Codes c -> Some c | _ -> None

let of_rows rows = make rows [||] None (Array.length rows)

(* The file's rows, picked by [pos], with what each column keeps beside
   them, read now. *)
let of_file heap pos len =
  let arity = Schema.arity (Heap_file.schema heap) in
  make (Heap_file.rows heap) (Array.init arity (Heap_file.view heap)) pos len

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
    Btree.probe btree ~pool ~clock ?lo:(Option.map fst lo) ?hi:(Option.map fst hi) ()
  in
  let n = List.length rids in
  let pos = Exec_ctx.bytes ctx (4 * n) in
  List.iteri
    (fun i rid ->
       ignore (Heap_file.fetch heap ~pool ~clock rid);
       set_pos pos i rid)
    rids;
  of_file heap (Some pos) n

type conjunct =
  | Per_row of (Tuple.t -> bool)
  | Per_code of {
      col : int;
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
         { col = i; pred; codes;
           verdicts = Bytes.make (Heap_file.code_count codes) '\000' }
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
  | Per_code { pred; codes; verdicts; _ } ->
    let code = Heap_file.code codes r in
    (match Bytes.get verdicts code with
     | '\000' -> learn pred verdicts code base.(r) = 2
     | v -> v = '\002')

(* The row path: each row runs the conjuncts left to right until one
   fails.  Returns the survivors' positions (first in a buffer of the
   leaf's length, which the filtered leaf keeps: no second copy) and
   their number. *)
let by_row ctx cs leaf =
  let out = Exec_ctx.bytes ctx (4 * length leaf) and kept = ref 0 in
  let last = Array.length cs - 1 in
  iter leaf (fun r ->
      let k = ref 0 in
      while !k <= last && holds cs.(!k) leaf.base r do
        incr k
      done;
      if !k > last then begin
        set_pos out !kept r;
        incr kept
      end);
  (out, !kept)

(* Of the [m] positions [src] lists (None: 0 .. m-1), writes those that
   pass [c] to [dst], in order, and returns their number.  [dst] may be
   [src]: each position is written no later than it is read.  Every
   position is written, and the count moves by the verdict, so the loop
   takes no branch on it; the coded loop calls [learn] at a code's first
   row and nothing else. *)
let sweep c base src m dst =
  let j = ref 0 in
  (match c with
   | Per_row pred ->
     for i = 0 to m - 1 do
       let r = match src with None -> i | Some src -> get_pos src i in
       set_pos dst !j r;
       j := !j + Bool.to_int (pred base.(r))
     done
   | Per_code { pred; codes; verdicts; _ } ->
     for i = 0 to m - 1 do
       let r = match src with None -> i | Some src -> get_pos src i in
       let code = Heap_file.code codes r in
       let v = Char.code (Bytes.get verdicts code) in
       let v = if v = 0 then learn pred verdicts code base.(r) else v in
       set_pos dst !j r;
       j := !j + (v lsr 1)
     done);
  !j

(* [cs] with each run of adjacent coded conjuncts over one column joined
   into one, in the run's place, that holds where they all hold,
   evaluated left to right at a code's first row, with a verdict table
   of its own (the row path re-reads the originals').  Only adjacent
   ones: a later conjunct moved ahead of another could drop a row before
   the other raises on it, where the row path raises. *)
let rec holds_all preds t =
  match preds with [] -> true | p :: rest -> p t && holds_all rest t

let merge_columns cs =
  let rec go = function
    | Per_code { col; codes; pred; _ } :: (Per_code { col = k; _ } :: _ as rest)
      when k = col ->
      let rec run preds = function
        | Per_code { col = k; pred; _ } :: rest when k = col -> run (pred :: preds) rest
        | rest -> (List.rev preds, rest)
      in
      let preds, rest = run [ pred ] rest in
      Per_code
        { col; codes;
          pred = holds_all preds;
          verdicts = Bytes.make (Heap_file.code_count codes) '\000' }
      :: go rest
    | c :: rest -> c :: go rest
    | [] -> []
  in
  Array.of_list (go (Array.to_list cs))

(* One conjunct at a time over the positions the ones before it kept:
   the same survivors as the row path, which a conjunct that calls no
   UDF cannot tell apart, except by which row raises first. *)
let by_conjunct ctx cs leaf =
  let dst = Exec_ctx.bytes ctx (4 * length leaf) in
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
    if Expr.has_udf pred then by_row ctx cs leaf
    else try by_conjunct ctx (merge_columns cs) leaf with _ -> by_row ctx cs leaf
  in
  if survivors = n then leaf
  else make leaf.base leaf.views (Some kept) survivors
