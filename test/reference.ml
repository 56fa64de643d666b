(* Brute-force reference executor for bound queries: cross product of all
   relations, full predicate evaluation, hash grouping, sort, limit.  Used
   by the integration tests to validate engine results independent of the
   optimizer, the memory manager and re-optimization. *)

open Mqr_storage
module Catalog = Mqr_catalog.Catalog
module Query = Mqr_sql.Query
module Expr = Mqr_expr.Expr
module Ast = Mqr_sql.Ast

let cross_product catalog (relations : Query.relation list) =
  let schemas = List.map (fun r -> r.Query.rel_schema) relations in
  let schema = List.fold_left Schema.concat (Schema.make []) schemas in
  let tables =
    List.map
      (fun (r : Query.relation) ->
         let tbl = Catalog.find_exn catalog r.Query.table in
         let rows = ref [] in
         Heap_file.iter tbl.Catalog.heap (fun _ t -> rows := t :: !rows);
         List.rev !rows)
      relations
  in
  let rec go acc = function
    | [] -> [ acc ]
    | rows :: rest -> List.concat_map (fun t -> go (Array.append acc t) rest) rows
  in
  (go [||] tables, schema)

let group_key idxs t = List.map (fun i -> t.(i)) idxs

(* The error bound of a float aggregate over [vals] (Higham): a sum of n
   terms in any order is within n·ε·Σ|xᵢ| of the same sum in any other
   order; an average divides both by n and rounds once more.  The other
   aggregates are exact. *)
let error_bound (a : Query.agg) vals =
  let n = float_of_int (List.length vals) in
  let abs_sum =
    List.fold_left (fun acc v -> acc +. Float.abs (Value.to_float v)) 0.0 vals
  in
  match a.Query.fn with
  | Ast.Sum -> n *. epsilon_float *. abs_sum
  | Ast.Avg when n > 0.0 -> (n +. 1.0) *. epsilon_float *. abs_sum /. n
  | _ -> 0.0

(* The rows, their schema and, per output column, the largest
   [error_bound] of its cells (0 for a column that is no aggregate). *)
let eval catalog (q : Query.t) =
  let rows, schema = cross_product catalog q.Query.relations in
  let bounds = ref [||] in
  let pred = Expr.compile_pred schema (Expr.conjoin q.Query.conjuncts) in
  let rows = List.filter pred rows in
  let out_rows, out_schema =
    if q.Query.aggs = [] && q.Query.group_by = [] then begin
      let idxs = List.map (Schema.index_of schema) q.Query.select_cols in
      (List.map (fun t -> Tuple.project t idxs) rows,
       Schema.project schema idxs)
    end
    else begin
      let group_idxs = List.map (Schema.index_of schema) q.Query.group_by in
      let groups = Hashtbl.create 64 in
      List.iter
        (fun t ->
           let key = group_key group_idxs t in
           let existing = Option.value ~default:[] (Hashtbl.find_opt groups key) in
           Hashtbl.replace groups key (t :: existing))
        rows;
      if q.Query.group_by = [] && Hashtbl.length groups = 0 then
        Hashtbl.replace groups [] [];
      let agg_value members (a : Query.agg) =
        let vals =
          match a.Query.arg with
          | None -> List.map (fun _ -> Value.Int 1) members
          | Some e ->
            let f = Expr.compile schema e in
            List.filter_map
              (fun t ->
                 let v = f t in
                 if Value.is_null v then None else Some v)
              members
        in
        let vals =
          if a.Query.distinct_arg then
            List.fold_left
              (fun acc v ->
                 if List.exists (Value.equal v) acc then acc else v :: acc)
              [] vals
            |> List.rev
          else vals
        in
        ( error_bound a vals,
        match a.Query.fn with
        | Ast.Count ->
          Value.Int
            (match a.Query.arg with
             | None -> List.length members
             | Some _ -> List.length vals)
        | Ast.Sum -> List.fold_left Value.add Value.Null vals
        | Ast.Min -> List.fold_left Value.min_value Value.Null vals
        | Ast.Max -> List.fold_left Value.max_value Value.Null vals
        | Ast.Avg ->
          if vals = [] then Value.Null
          else begin
            let s = List.fold_left Value.add Value.Null vals in
            Value.Float (Value.to_float s /. float_of_int (List.length vals))
          end )
      in
      let n_keys = List.length q.Query.group_by in
      bounds := Array.make (n_keys + List.length q.Query.aggs) 0.0;
      let out =
        Hashtbl.fold
          (fun key members acc ->
             let aggs = List.map (agg_value members) q.Query.aggs in
             List.iteri
               (fun i (b, _) ->
                  !bounds.(n_keys + i) <- Float.max b !bounds.(n_keys + i))
               aggs;
             Array.of_list (key @ List.map snd aggs) :: acc)
          groups []
      in
      (out, Query.output_schema catalog q)
    end
  in
  (* having *)
  let out_rows =
    match q.Query.having with
    | None -> out_rows
    | Some pred ->
      let p = Expr.compile_pred out_schema pred in
      List.filter p out_rows
  in
  (* order by, limit *)
  let out_rows =
    match q.Query.order_by with
    | [] -> out_rows
    | keys ->
      let idxs = List.map (fun (k, asc) -> (Schema.index_of out_schema k, asc)) keys in
      let cmp a b =
        let rec go = function
          | [] -> 0
          | (i, asc) :: rest ->
            let c = Value.compare a.(i) b.(i) in
            if c <> 0 then if asc then c else -c else go rest
        in
        go idxs
      in
      List.stable_sort cmp out_rows
  in
  let out_rows =
    match q.Query.limit with
    | None -> out_rows
    | Some n -> List.filteri (fun i _ -> i < n) out_rows
  in
  let bounds =
    if Array.length !bounds = 0 then
      Array.make (Schema.arity out_schema) 0.0
    else !bounds
  in
  (Array.of_list out_rows, out_schema, bounds)

let run catalog q =
  let rows, schema, _ = eval catalog q in
  (rows, schema)

(* ------------------------------------------------------------------ *)
(* One answer: the oracle of every cross-plan row check.  Two answers  *)
(* agree when they are the same multiset of rows: each non-float cell  *)
(* equal bit for bit (same constructor, same payload), each float cell *)
(* within its column's tolerance of the other's.  A float aggregate    *)
(* adds its terms in the order the plan delivers them, so two plans    *)
(* may give sums that differ in their last bits, by at most n·ε·Σ|xᵢ|  *)
(* for n terms.  No cell is compared through a printed rounding.       *)

(* [tol col a b]: how far float cells [a] and [b] of column [col] may
   lie apart. *)
type tol = int -> float -> float -> float

let exact : tol = fun _ _ _ -> 0.0

(* The reference's own bounds ([eval]). *)
let within (bounds : float array) : tol = fun col _ _ -> bounds.(col)

(* For two engine answers, with no reference at hand: a sum of at most
   [terms] terms that all share one sign, so that Σ|xᵢ| is the larger
   |sum|.  Both hold for the TPC-D queries' float sums (non-negative
   prices, quantities and discounts over foreign-key joins, each joined
   row extending one row of the largest relation, [terms] its size). *)
let one_sign ~terms : tol =
 fun _ a b ->
  float_of_int terms *. epsilon_float *. Float.max (Float.abs a) (Float.abs b)

(* The rows of the largest relation [q] reads: [one_sign]'s [terms]. *)
let largest_relation catalog (q : Query.t) =
  List.fold_left
    (fun acc (r : Query.relation) ->
       Int.max acc
         (Heap_file.tuple_count (Catalog.find_exn catalog r.Query.table).Catalog.heap))
    0 q.Query.relations

let is_float = function Value.Float _ -> true | _ -> false

(* Rows sorted by their non-float cells, then their floats: rows that
   agree then sit at the same positions. *)
let sorted rows =
  let key t =
    ( List.filter (fun v -> not (is_float v)) (Array.to_list t),
      List.filter_map
        (function Value.Float f -> Some f | _ -> None)
        (Array.to_list t) )
  in
  List.map snd
    (List.sort compare (List.map (fun t -> (key t, t)) (Array.to_list rows)))

let cell_agrees ~tol col a b =
  match a, b with
  | Value.Float x, Value.Float y ->
    Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
    || Float.abs (x -. y) <= tol col x y
  | _ -> a = b

let agree ?(tol = exact) expect got =
  if Array.length expect <> Array.length got then
    Error
      (Printf.sprintf "%d rows expected, %d got" (Array.length expect)
         (Array.length got))
  else
    let mismatch =
      List.find_opt
        (fun (e, g) ->
           Array.length e <> Array.length g
           || not
                (List.for_all Fun.id
                   (List.mapi
                      (fun col a -> cell_agrees ~tol col a g.(col))
                      (Array.to_list e))))
        (List.combine (sorted expect) (sorted got))
    in
    match mismatch with
    | None -> Ok ()
    | Some (e, g) ->
      Error
        (Printf.sprintf "row %s expected, %s got" (Tuple.to_string e)
           (Tuple.to_string g))

(* A row set's bits, as a sorted list: equal for two answers exactly when
   they are the same multiset, floats included bit for bit. *)
let bits rows =
  Array.to_list rows
  |> List.map (fun t ->
      Array.to_list t
      |> List.map (function
          | Value.Float f -> Printf.sprintf "%h" f
          | v -> Value.to_string v))
  |> List.sort compare

(* [agree] as an Alcotest check. *)
let check ?tol msg expect got =
  match agree ?tol expect got with
  | Ok () -> ()
  | Error why -> Alcotest.failf "%s: %s" msg why
