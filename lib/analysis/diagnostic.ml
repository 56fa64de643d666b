type severity = Error | Warning | Info

type t = {
  code : string;
  severity : severity;
  pass_name : string;
  node_id : int;
  path : string list;
  message : string;
  hint : string option;
}

let make severity ~pass ~code ?hint ~node_id ~path message =
  { code; severity; pass_name = pass; node_id; path; message; hint }

let error ~pass ~code ?hint ~node_id ~path message =
  make Error ~pass ~code ?hint ~node_id ~path message

let warning ~pass ~code ?hint ~node_id ~path message =
  make Warning ~pass ~code ?hint ~node_id ~path message

let is_error d = d.severity = Error
let errors ds = List.filter is_error ds
let warnings ds = List.filter (fun d -> d.severity = Warning) ds

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

let compare a b =
  match Stdlib.compare (severity_rank a.severity) (severity_rank b.severity) with
  | 0 ->
    (match Stdlib.compare a.node_id b.node_id with
     | 0 -> Stdlib.compare a.code b.code
     | c -> c)
  | c -> c

let pp fmt d =
  Fmt.pf fmt "%s[%s] at #%d %s: %s"
    (severity_to_string d.severity) d.code d.node_id
    (String.concat " > " d.path)
    d.message;
  match d.hint with
  | Some h -> Fmt.pf fmt " (fix: %s)" h
  | None -> ()

let pp_report fmt ds =
  let ds = List.stable_sort compare ds in
  List.iter (fun d -> Fmt.pf fmt "%a@." pp d) ds;
  Fmt.pf fmt "%d error(s), %d warning(s)@."
    (List.length (errors ds))
    (List.length (warnings ds))
