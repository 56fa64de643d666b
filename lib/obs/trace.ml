type arg =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

type span = {
  sp_tid : int;
  sp_name : string;
  sp_cat : string;
  sp_depth : int;
  sp_begin_ms : float;
  sp_end_ms : float;
  sp_args : (string * arg) list;
}

type instant = {
  i_tid : int;
  i_name : string;
  i_cat : string;
  i_ts_ms : float;
  i_args : (string * arg) list;
}

type t = {
  m : Metrics.t;
  mutable scopes : (int * string) list;  (* (tid, label), newest first *)
  mutable t_spans : span list;           (* newest first *)
  mutable t_instants : instant list;     (* newest first *)
  mutable next_tid : int;
  mutable t_open : int;                  (* spans currently open *)
  mutable t_tenants : (string * int) list;  (* tenant -> pid, newest first *)
  mutable tid_pid : (int * int) list;    (* only non-default pids *)
  mutable next_pid : int;
}

let create () =
  { m = Metrics.create ();
    scopes = [];
    t_spans = [];
    t_instants = [];
    next_tid = 0;
    t_open = 0;
    t_tenants = [];
    tid_pid = [];
    (* pid 1 is the default (tenant-less) process, so Chrome output for
       single-tenant sessions stays byte-identical to the old exporter *)
    next_pid = 2 }

let metrics t = t.m

(* ------------------------------------------------------------------ *)
(* Scopes                                                              *)

type pending = { p_name : string; p_cat : string; p_begin : float }

type token = pending

type scope = {
  parent : t;
  tid : int;
  label : string;
  offset : float;
  tenant : string option;
  mutable stack : pending list;  (* innermost first *)
  mutable seq : int;             (* decision-point ordinal *)
  mutable lanes : (int * scope) list;  (* memoized worker lanes *)
}

(* Each distinct tenant becomes its own Chrome-trace *process*, so a
   multi-tenant service renders one swimlane group per tenant.  Scopes
   without a tenant stay on the default pid 1 and the exporter output is
   unchanged. *)
let tenant_pid t = function
  | None -> 1
  | Some name ->
    (match List.assoc_opt name t.t_tenants with
     | Some pid -> pid
     | None ->
       let pid = t.next_pid in
       t.next_pid <- pid + 1;
       t.t_tenants <- (name, pid) :: t.t_tenants;
       pid)

let scope t ?(offset_ms = 0.0) ?tenant ~label () =
  let tid = t.next_tid in
  t.next_tid <- tid + 1;
  t.scopes <- (tid, label) :: t.scopes;
  let pid = tenant_pid t tenant in
  if pid <> 1 then t.tid_pid <- (tid, pid) :: t.tid_pid;
  { parent = t; tid; label; offset = offset_ms; tenant; stack = []; seq = 0;
    lanes = [] }

(* One extra Chrome-trace thread per parallel worker of a query, so the
   per-worker spans of an exchange operator render as their own tracks.
   Lanes share the query's offset (and tenant lane) and are memoized:
   every operator's worker [i] lands on the same track. *)
let worker_lane s i =
  match List.assoc_opt i s.lanes with
  | Some lane -> lane
  | None ->
    let lane =
      scope s.parent ~offset_ms:s.offset ?tenant:s.tenant
        ~label:(Printf.sprintf "%s#w%d" s.label i) ()
    in
    s.lanes <- (i, lane) :: s.lanes;
    lane

let scope_label s = s.label
let scope_metrics s = s.parent.m

let open_span s ?(cat = "span") ~name ~ts_ms () =
  let p = { p_name = name; p_cat = cat; p_begin = s.offset +. ts_ms } in
  s.stack <- p :: s.stack;
  s.parent.t_open <- s.parent.t_open + 1;
  p

let close_span s ?(args = []) ~ts_ms token =
  match s.stack with
  | p :: rest when p == token ->
    s.stack <- rest;
    s.parent.t_open <- s.parent.t_open - 1;
    s.parent.t_spans <-
      { sp_tid = s.tid;
        sp_name = p.p_name;
        sp_cat = p.p_cat;
        sp_depth = List.length rest;
        sp_begin_ms = p.p_begin;
        sp_end_ms = s.offset +. ts_ms;
        sp_args = args }
      :: s.parent.t_spans
  | _ -> invalid_arg "Trace.close_span: span closed out of order"

(* Error-path teardown: close every span still open in the scope,
   innermost first, so an exception thrown mid-unit leaves the trace
   well-formed (a long-lived service keeps exporting after failures). *)
let rec unwind s ?(args = []) ~ts_ms () =
  match s.stack with
  | [] -> ()
  | p :: _ ->
    close_span s ~args ~ts_ms p;
    unwind s ~args ~ts_ms ()

let instant s ?(cat = "event") ?(args = []) ~name ~ts_ms () =
  s.parent.t_instants <-
    { i_tid = s.tid;
      i_name = name;
      i_cat = cat;
      i_ts_ms = s.offset +. ts_ms;
      i_args = args }
    :: s.parent.t_instants

let new_decision_point s =
  s.seq <- s.seq + 1;
  s.seq

(* Ledger entries are instants of this category. *)
let decision_cat = "decision"

let decision s ~ts_ms ~unit_op ~est_rows ~actual_rows ~kind args =
  instant s ~cat:decision_cat ~name:kind ~ts_ms
    ~args:
      (("query", Str s.label)
       :: ("seq", Int s.seq)
       :: ("ts_ms", Float (s.offset +. ts_ms))
       :: ("unit_op", Str unit_op)
       :: ("est_rows", Float est_rows)
       :: ("actual_rows", Int actual_rows)
       :: ("cardinality_error",
           Float (float_of_int actual_rows /. Float.max 1e-9 est_rows))
       :: ("kind", Str kind)
       :: args)
    ()

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)

let queries t = List.rev t.scopes
let spans t = List.rev t.t_spans
let instants t = List.rev t.t_instants
let is_decision i = i.i_cat = decision_cat
let ledger t = List.filter is_decision (instants t)
let open_spans t = t.t_open
let tenant_lanes t = List.rev t.t_tenants

(* ------------------------------------------------------------------ *)
(* JSON rendering (hand-rolled: deterministic, dependency-free)        *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
       match c with
       | '"' -> Buffer.add_string buf "\\\""
       | '\\' -> Buffer.add_string buf "\\\\"
       | '\n' -> Buffer.add_string buf "\\n"
       | '\t' -> Buffer.add_string buf "\\t"
       | '\r' -> Buffer.add_string buf "\\r"
       | c when Char.code c < 0x20 ->
         Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
       | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let arg_json = function
  | Int i -> string_of_int i
  | Float f when Float.is_finite f -> Printf.sprintf "%.3f" f
  | Float _ -> "null"
  | Str s -> Printf.sprintf "\"%s\"" (json_escape s)
  | Bool b -> if b then "true" else "false"

let args_json args =
  String.concat ", "
    (List.map
       (fun (k, v) ->
          Printf.sprintf "\"%s\": %s" (json_escape k) (arg_json v))
       args)

(* simulated milliseconds -> integral trace microseconds: exact for the
   cost model's resolution, and byte-stable *)
let us ms = int_of_float (Float.round (ms *. 1000.0))

let to_chrome_json t =
  let buf = Buffer.create 4096 in
  let first = ref true in
  let event line =
    if !first then first := false else Buffer.add_string buf ",\n";
    Buffer.add_string buf "  ";
    Buffer.add_string buf line
  in
  let pids = Hashtbl.create 16 in
  List.iter (fun (tid, pid) -> Hashtbl.replace pids tid pid) t.tid_pid;
  let pid_of tid = Option.value ~default:1 (Hashtbl.find_opt pids tid) in
  Buffer.add_string buf "{\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n";
  List.iter
    (fun (name, pid) ->
       event
         (Printf.sprintf
            "{\"ph\": \"M\", \"pid\": %d, \"tid\": 0, \"name\": \
             \"process_name\", \"args\": {\"name\": \"%s\"}}"
            pid (json_escape name)))
    (tenant_lanes t);
  List.iter
    (fun (tid, label) ->
       event
         (Printf.sprintf
            "{\"ph\": \"M\", \"pid\": %d, \"tid\": %d, \"name\": \
             \"thread_name\", \"args\": {\"name\": \"%s\"}}"
            (pid_of tid) tid (json_escape label)))
    (queries t);
  List.iter
    (fun sp ->
       event
         (Printf.sprintf
            "{\"ph\": \"X\", \"pid\": %d, \"tid\": %d, \"name\": \"%s\", \
             \"cat\": \"%s\", \"ts\": %d, \"dur\": %d, \"args\": {%s}}"
            (pid_of sp.sp_tid) sp.sp_tid (json_escape sp.sp_name)
            (json_escape sp.sp_cat)
            (us sp.sp_begin_ms)
            (max 0 (us sp.sp_end_ms - us sp.sp_begin_ms))
            (args_json (("depth", Int sp.sp_depth) :: sp.sp_args))))
    (spans t);
  (* ledger entries after every other instant; each group chronological *)
  let others, decisions =
    List.partition (fun i -> not (is_decision i)) (instants t)
  in
  List.iter
    (fun i ->
       event
         (Printf.sprintf
            "{\"ph\": \"i\", \"pid\": %d, \"tid\": %d, \"name\": \"%s\", \
             \"cat\": \"%s\", \"ts\": %d, \"s\": \"t\", \"args\": {%s}}"
            (pid_of i.i_tid) i.i_tid (json_escape i.i_name)
            (json_escape i.i_cat)
            (us i.i_ts_ms)
            (args_json i.i_args)))
    (others @ decisions);
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf

let to_summary_json t =
  let buf = Buffer.create 4096 in
  let obj fields = "{" ^ args_json fields ^ "}" in
  Buffer.add_string buf "{\n  \"queries\": [";
  Buffer.add_string buf
    (String.concat ", "
       (List.map
          (fun (tid, label) -> obj [ ("tid", Int tid); ("label", Str label) ])
          (queries t)));
  Buffer.add_string buf
    (Printf.sprintf "],\n  \"spans\": %d,\n  \"open_spans\": %d,\n"
       (List.length t.t_spans) t.t_open);
  Buffer.add_string buf "  \"metrics\": {\n    \"counters\": {";
  Buffer.add_string buf
    (String.concat ", "
       (List.map
          (fun (k, v) -> Printf.sprintf "\"%s\": %d" (json_escape k) v)
          (Metrics.counters t.m)));
  Buffer.add_string buf "},\n    \"gauges\": {";
  Buffer.add_string buf
    (String.concat ", "
       (List.map
          (fun (k, v) -> Printf.sprintf "\"%s\": %.3f" (json_escape k) v)
          (Metrics.gauges t.m)));
  Buffer.add_string buf "},\n    \"histograms\": {";
  Buffer.add_string buf
    (String.concat ", "
       (List.map
          (fun (k, (s : Metrics.summary)) ->
             Printf.sprintf
               "\"%s\": {\"n\": %d, \"min\": %.3f, \"max\": %.3f, \"sum\": \
                %.3f, \"p50\": %.3f, \"p95\": %.3f, \"p99\": %.3f, \
                \"buckets\": [%s]}"
               (json_escape k) s.Metrics.n s.Metrics.min s.Metrics.max
               s.Metrics.sum s.Metrics.p50 s.Metrics.p95 s.Metrics.p99
               (String.concat ", "
                  (List.map
                     (fun (lo, hi, n) ->
                        Printf.sprintf "[%.6g, %.6g, %d]" lo hi n)
                     s.Metrics.buckets)))
          (Metrics.histograms t.m)));
  Buffer.add_string buf "}\n  },\n  \"ledger\": [\n";
  List.iteri
    (fun i d ->
       if i > 0 then Buffer.add_string buf ",\n";
       Buffer.add_string buf ("    " ^ obj d.i_args))
    (ledger t);
  Buffer.add_string buf "\n  ]\n}\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Human-readable ledger                                               *)

(* The header names the entry; every other arg follows as key=value. *)
let header_keys = [ "query"; "seq"; "ts_ms"; "unit_op"; "kind" ]

let pp_decision fmt i =
  let str k =
    match List.assoc_opt k i.i_args with
    | Some (Str s) -> s
    | Some v -> arg_json v
    | None -> ""
  in
  Fmt.pf fmt "%-10s #%s @%9.1fms %-12s %s  %s" (str "query") (str "seq")
    i.i_ts_ms i.i_name (str "unit_op")
    (String.concat " "
       (List.filter_map
          (fun (k, v) ->
             if List.mem k header_keys then None
             else Some (k ^ "=" ^ arg_json v))
          i.i_args))

let pp_ledger fmt t =
  match ledger t with
  | [] -> Fmt.pf fmt "audit ledger: empty@."
  | ds ->
    Fmt.pf fmt "audit ledger (%d decision entries):@." (List.length ds);
    List.iter (fun d -> Fmt.pf fmt "  %a@." pp_decision d) ds
