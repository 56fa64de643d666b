type column = {
  name : string;
  qualifier : string;
  ty : Value.ty;
  avg_width : int;
}

(* [width] is [header_bytes] plus every column's [avg_width], kept so the
   optimizer and heap files size tuples without re-summing columns. *)
type t = { cols : column array; width : int }

exception Ambiguous of string

let header_bytes = Tuple.header_bytes

let of_array cols =
  { cols;
    width = Array.fold_left (fun acc c -> acc + c.avg_width) header_bytes cols }

let make cols = of_array (Array.of_list cols)
let columns t = Array.to_list t.cols
let arity t = Array.length t.cols
let column t i = t.cols.(i)

let qualified_name c =
  if c.qualifier = "" then c.name else c.qualifier ^ "." ^ c.name

let qualify t alias =
  { t with cols = Array.map (fun c -> { c with qualifier = alias }) t.cols }

let concat a b =
  { cols = Array.append a.cols b.cols; width = a.width + b.width - header_bytes }

let filter keep t =
  let kept = List.filter keep (Array.to_list t.cols) in
  if List.compare_length_with kept (Array.length t.cols) = 0 then t
  else make kept

let project t idxs = of_array (Array.of_list (List.map (fun i -> t.cols.(i)) idxs))

let split_ref r =
  match String.index_opt r '.' with
  | None -> ("", r)
  | Some i ->
    (String.sub r 0 i, String.sub r (i + 1) (String.length r - i - 1))

let index_of t r =
  let q, n = split_ref r in
  let matches = ref [] in
  Array.iteri
    (fun i c ->
       if c.name = n && (q = "" || c.qualifier = q) then matches := i :: !matches)
    t.cols;
  match !matches with
  | [ i ] -> i
  | [] -> raise Not_found
  | _ -> raise (Ambiguous r)

let avg_tuple_width t = t.width

let default_width ty =
  match ty with
  | Value.TBool -> 1
  | Value.TInt -> 8
  | Value.TFloat -> 8
  | Value.TDate -> 4
  | Value.TString -> 16

let col ?(qualifier = "") ?width name ty =
  let avg_width = match width with Some w -> w | None -> default_width ty in
  { name; qualifier; ty; avg_width }

let pp fmt t =
  let pp_col fmt c =
    if c.qualifier = "" then Fmt.pf fmt "%s:%a" c.name Value.pp_ty c.ty
    else Fmt.pf fmt "%s.%s:%a" c.qualifier c.name Value.pp_ty c.ty
  in
  Fmt.pf fmt "(%a)" (Fmt.array ~sep:(Fmt.any ", ") pp_col) t.cols
