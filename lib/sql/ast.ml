module Expr = Mqr_expr.Expr

type agg_fn = Count | Sum | Avg | Min | Max

let agg_fn_to_string = function
  | Count -> "count" | Sum -> "sum" | Avg -> "avg" | Min -> "min" | Max -> "max"

type select_item =
  | Star
  | Expr_item of Expr.t * string option
  | Agg_item of agg_fn * bool * Expr.t option * string option
      (* fn, DISTINCT?, argument, alias *)

type order_item = { key : string; asc : bool }

type query = {
  select : select_item list;
  distinct : bool;
  from : (string * string option) list;
  where : Expr.t option;
  group_by : string list;
  having : Expr.t option;
  order_by : order_item list;
  limit : int option;
}

let item_to_sql = function
  | Star -> "*"
  | Expr_item (e, None) -> Expr.to_sql e
  | Expr_item (e, Some a) -> Expr.to_sql e ^ " as " ^ a
  | Agg_item (fn, distinct, arg, alias) ->
    let arg_s = match arg with None -> "*" | Some e -> Expr.to_sql e in
    let arg_s = if distinct then "distinct " ^ arg_s else arg_s in
    let base = Printf.sprintf "%s(%s)" (agg_fn_to_string fn) arg_s in
    (match alias with None -> base | Some a -> base ^ " as " ^ a)

let to_sql q =
  let buf = Buffer.create 128 in
  Buffer.add_string buf (if q.distinct then "select distinct " else "select ");
  Buffer.add_string buf (String.concat ", " (List.map item_to_sql q.select));
  Buffer.add_string buf " from ";
  Buffer.add_string buf
    (String.concat ", "
       (List.map
          (fun (t, a) -> match a with None -> t | Some a -> t ^ " " ^ a)
          q.from));
  (match q.where with
   | None -> ()
   | Some e ->
     Buffer.add_string buf " where ";
     Buffer.add_string buf (Expr.to_sql e));
  (match q.group_by with
   | [] -> ()
   | cols ->
     Buffer.add_string buf " group by ";
     Buffer.add_string buf (String.concat ", " cols));
  (match q.having with
   | None -> ()
   | Some e ->
     Buffer.add_string buf " having ";
     Buffer.add_string buf (Expr.to_sql e));
  (match q.order_by with
   | [] -> ()
   | items ->
     Buffer.add_string buf " order by ";
     Buffer.add_string buf
       (String.concat ", "
          (List.map (fun i -> i.key ^ if i.asc then "" else " desc") items)));
  (match q.limit with
   | None -> ()
   | Some n -> Buffer.add_string buf (" limit " ^ string_of_int n));
  Buffer.contents buf
