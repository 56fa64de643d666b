type t = Value.t array

let arity = Array.length
let project t idxs = Array.of_list (List.map (fun i -> t.(i)) idxs)

let header_bytes = 8

let byte_size t =
  header_bytes + Array.fold_left (fun acc v -> acc + Value.byte_size v) 0 t

let equal a b = Array.length a = Array.length b && Array.for_all2 Value.equal a b

let pp fmt t = Fmt.pf fmt "[%a]" (Fmt.array ~sep:(Fmt.any "|") Value.pp) t
let to_string t = Fmt.str "%a" pp t
