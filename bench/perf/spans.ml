(* In-memory span recorder for the traced run.  Spans are opened around
   the benchmark's own calls into each layer; with the recorder off, [span]
   only calls its body, so the untraced run executes the same path. *)

let now_ns () = Monotonic_clock.now ()
let ms_between a b = Int64.to_float (Int64.sub b a) /. 1e6

type span = {
  id : int;
  name : string;
  parent : int;  (* [root] for top-level spans *)
  stmt : int;    (* shared by every span of one statement *)
  t0 : int64;
  mutable t1 : int64;
  mutable args : (string * string) list;  (* rendered JSON values *)
}

let root = -1

type t = { on : bool; mutable spans : span list; by_id : (int, span) Hashtbl.t }

let create ~on = { on; spans = []; by_id = Hashtbl.create 1024 }

let span t ?(parent = root) ?(args = []) ~stmt name f =
  if not t.on then f root
  else begin
    let id = Hashtbl.length t.by_id in
    let t0 = now_ns () in
    let s = { id; name; parent; stmt; t0; t1 = t0; args } in
    t.spans <- s :: t.spans;
    Hashtbl.replace t.by_id id s;
    Fun.protect ~finally:(fun () -> s.t1 <- now_ns ()) (fun () -> f id)
  end

let annotate t id args =
  match Hashtbl.find_opt t.by_id id with
  | Some s -> s.args <- s.args @ args
  | None -> ()

let spans t = List.rev t.spans
let dur_ms s = ms_between s.t0 s.t1

let children t =
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun s ->
       if s.parent <> root then
         Hashtbl.replace tbl s.parent
           (s :: Option.value ~default:[] (Hashtbl.find_opt tbl s.parent)))
    (spans t);
  fun id -> Option.value ~default:[] (Hashtbl.find_opt tbl id)

(* Self time per span name: each span's duration minus the part its
   children cover (children of one span never overlap: they are calls made
   one after another). *)
let self_ms t =
  let kids = children t in
  let acc = Hashtbl.create 16 in
  List.iter
    (fun s ->
       let self =
         dur_ms s -. Stat.sum (List.map dur_ms (kids s.id))
       in
       Hashtbl.replace acc s.name
         (self +. Option.value ~default:0.0 (Hashtbl.find_opt acc s.name)))
    (spans t);
  Hashtbl.fold (fun k v l -> (k, v) :: l) acc [] |> List.sort compare

(* Share of top-level wall (statements, service episodes) covered by child
   spans, in percent.  Probes sit outside it: they are the traced run's own
   extra work. *)
let coverage_pct t =
  let kids = children t in
  let covered, total =
    List.fold_left
      (fun (c, w) s ->
         if s.parent = root && s.name <> "probe" then
           (c +. Stat.sum (List.map dur_ms (kids s.id)), w +. dur_ms s)
         else (c, w))
      (0.0, 0.0) (spans t)
  in
  100.0 *. Stat.ratio covered total

(* Chrome trace-event JSON: one lane per statement. *)
let write_chrome t file =
  let origin = match spans t with [] -> 0L | s :: _ -> s.t0 in
  let us x = Int64.to_float (Int64.sub x origin) /. 1e3 in
  let oc = open_out file in
  output_string oc "{\"traceEvents\": [\n";
  List.iteri
    (fun i s ->
       if i > 0 then output_string oc ",\n";
       Printf.fprintf oc
         "{\"name\": %S, \"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"ts\": %.3f, \
          \"dur\": %.3f, \"args\": {\"id\": %d, \"parent\": %d%s}}"
         s.name s.stmt (us s.t0) (us s.t1 -. us s.t0) s.id s.parent
         (String.concat ""
            (List.map (fun (k, v) -> Printf.sprintf ", %S: %s" k v) s.args)))
    (spans t);
  output_string oc "\n]}\n";
  close_out oc
