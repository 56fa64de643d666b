(* Smoke-check the engine's machine-readable outputs: parse them with a
   hand-rolled JSON reader (the image has no JSON library — the emitters
   in mqr_cli are hand-rolled too, so this closes the loop) and validate
   the shape.  Three formats:

     json_check plan_lint.gen.json             lint diagnostics (default)
     json_check --format monitor VIEW.json     serve `monitor ... json` views
     json_check --format prom METRICS.prom     Prometheus text exposition

   lint: a top-level array of per-query objects, each carrying "query",
   "mode", "errors", "warnings" and a "diagnostics" array whose members
   have the code/severity/pass/node_id/path/message fields.

   monitor: one object with the common view/now_ms/queued/running header
   and a per-view payload (statements, sessions, tenants, broker,
   ledger), with the cross-checks the emitter guarantees (percentages in
   [0,100], eta_hi >= eta_lo, per-status session counts summing to the
   statement count, cumulative-consistent broker leases).

   prom: not JSON at all — the Prometheus text format.  Every sample
   must belong to a preceding # TYPE family, families must be sorted by
   name, histogram buckets must be cumulative with le="+Inf" last and
   equal to _count. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

(* --- parser ------------------------------------------------------- *)

type cursor = { s : string; mutable i : int }

let peek c = if c.i < String.length c.s then Some c.s.[c.i] else None

let skip_ws c =
  while
    c.i < String.length c.s
    && (match c.s.[c.i] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
  do
    c.i <- c.i + 1
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> c.i <- c.i + 1
  | Some x -> bad "offset %d: expected %c, found %c" c.i ch x
  | None -> bad "offset %d: expected %c, found end of input" c.i ch

let literal c word value =
  let n = String.length word in
  if c.i + n <= String.length c.s && String.sub c.s c.i n = word then begin
    c.i <- c.i + n;
    value
  end
  else bad "offset %d: expected %s" c.i word

let parse_string c =
  expect c '"';
  let b = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> bad "offset %d: unterminated string" c.i
    | Some '"' -> c.i <- c.i + 1
    | Some '\\' ->
      c.i <- c.i + 1;
      (match peek c with
       | None -> bad "offset %d: unterminated escape" c.i
       | Some e ->
         c.i <- c.i + 1;
         (match e with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
            if c.i + 4 > String.length c.s then
              bad "offset %d: truncated \\u escape" c.i;
            let hex = String.sub c.s c.i 4 in
            let code =
              try int_of_string ("0x" ^ hex)
              with _ -> bad "offset %d: bad \\u escape %s" c.i hex
            in
            c.i <- c.i + 4;
            (* the emitter only escapes control characters, so plain
               byte append is enough for the round-trip check *)
            if code < 0x80 then Buffer.add_char b (Char.chr code)
            else Buffer.add_string b (Printf.sprintf "\\u%04x" code)
          | e -> bad "offset %d: bad escape \\%c" c.i e));
      go ()
    | Some ch ->
      c.i <- c.i + 1;
      Buffer.add_char b ch;
      go ()
  in
  go ();
  Buffer.contents b

let parse_number c =
  let start = c.i in
  let numchar ch =
    match ch with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while (match peek c with Some ch -> numchar ch | None -> false) do
    c.i <- c.i + 1
  done;
  let text = String.sub c.s start (c.i - start) in
  match float_of_string_opt text with
  | Some f -> f
  | None -> bad "offset %d: bad number %s" start text

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> bad "offset %d: unexpected end of input" c.i
  | Some '"' -> Str (parse_string c)
  | Some '{' ->
    c.i <- c.i + 1;
    skip_ws c;
    if peek c = Some '}' then begin c.i <- c.i + 1; Obj [] end
    else begin
      let rec members acc =
        skip_ws c;
        let key = parse_string c in
        skip_ws c;
        expect c ':';
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' -> c.i <- c.i + 1; members ((key, v) :: acc)
        | Some '}' -> c.i <- c.i + 1; List.rev ((key, v) :: acc)
        | _ -> bad "offset %d: expected , or } in object" c.i
      in
      Obj (members [])
    end
  | Some '[' ->
    c.i <- c.i + 1;
    skip_ws c;
    if peek c = Some ']' then begin c.i <- c.i + 1; Arr [] end
    else begin
      let rec elements acc =
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' -> c.i <- c.i + 1; elements (v :: acc)
        | Some ']' -> c.i <- c.i + 1; List.rev (v :: acc)
        | _ -> bad "offset %d: expected , or ] in array" c.i
      in
      Arr (elements [])
    end
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some _ -> Num (parse_number c)

let parse s =
  let c = { s; i = 0 } in
  let v = parse_value c in
  skip_ws c;
  if c.i <> String.length s then bad "offset %d: trailing garbage" c.i;
  v

(* --- shape checks -------------------------------------------------- *)

let field obj key =
  match obj with
  | Obj kvs ->
    (match List.assoc_opt key kvs with
     | Some v -> v
     | None -> bad "missing field %S" key)
  | _ -> bad "expected an object around field %S" key

let str what = function Str s -> s | _ -> bad "%s: expected a string" what
let num what = function Num f -> f | _ -> bad "%s: expected a number" what
let arr what = function Arr xs -> xs | _ -> bad "%s: expected an array" what

let severities = [ "error"; "warning"; "info" ]

let check_diag d =
  let code = str "code" (field d "code") in
  if code = "" then bad "empty diagnostic code";
  let sev = str "severity" (field d "severity") in
  if not (List.mem sev severities) then bad "unknown severity %S" sev;
  ignore (str "pass" (field d "pass"));
  ignore (num "node_id" (field d "node_id"));
  List.iter (fun p -> ignore (str "path element" p)) (arr "path" (field d "path"));
  ignore (str "message" (field d "message"));
  (match d with
   | Obj kvs ->
     (match List.assoc_opt "hint" kvs with
      | Some h -> ignore (str "hint" h)
      | None -> ())
   | _ -> ());
  sev

let check_query q =
  let name = str "query" (field q "query") in
  if name = "" then bad "empty query name";
  ignore (str "mode" (field q "mode"));
  let errors = int_of_float (num "errors" (field q "errors")) in
  let warnings = int_of_float (num "warnings" (field q "warnings")) in
  let diags = arr "diagnostics" (field q "diagnostics") in
  let sevs = List.map check_diag diags in
  let count s = List.length (List.filter (( = ) s) sevs) in
  if count "error" <> errors then
    bad "%s: errors field says %d, diagnostics carry %d" name errors
      (count "error");
  if count "warning" <> warnings then
    bad "%s: warnings field says %d, diagnostics carry %d" name warnings
      (count "warning");
  (name, List.length diags)

(* --- monitor views (serve `monitor VIEW json`) --------------------- *)

let bool_ what = function Bool b -> b | _ -> bad "%s: expected a bool" what

let int_ what v = int_of_float (num what v)

(* number or null: the emitter writes null for absent/non-finite values *)
let opt_num what = function
  | Null -> None
  | Num f -> Some f
  | _ -> bad "%s: expected a number or null" what

let statement_states =
  [ "queued"; "running"; "done"; "failed"; "cancelled"; "shed" ]

let check_statement s =
  ignore (int_ "id" (field s "id"));
  if str "label" (field s "label") = "" then bad "empty statement label";
  ignore (str "tenant" (field s "tenant"));
  ignore (int_ "session" (field s "session"));
  let state = str "state" (field s "state") in
  if not (List.mem state statement_states) then
    bad "unknown statement state %S" state;
  ignore (str "mode" (field s "mode"));
  ignore (num "arrival_ms" (field s "arrival_ms"));
  ignore (num "deadline_ms" (field s "deadline_ms"));
  (match opt_num "percent" (field s "percent") with
   | Some p when p < 0.0 || p > 100.0 -> bad "percent %g outside [0,100]" p
   | _ -> ());
  let lo = opt_num "eta_lo_ms" (field s "eta_lo_ms") in
  let hi = opt_num "eta_hi_ms" (field s "eta_hi_ms") in
  (match lo, hi with
   | Some lo, Some hi when hi < lo ->
     bad "eta interval inverted: [%g, %g]" lo hi
   | _ -> ());
  if int_ "updates" (field s "updates") < 0 then bad "negative updates";
  if int_ "pages" (field s "pages") < 0 then bad "negative pages";
  ignore (bool_ "deadline_risk" (field s "deadline_risk"))

let check_session s =
  ignore (int_ "id" (field s "id"));
  ignore (str "tenant" (field s "tenant"));
  ignore (str "slo" (field s "slo"));
  ignore (bool_ "closed" (field s "closed"));
  let total = int_ "statements" (field s "statements") in
  let by_status =
    List.map
      (fun k -> int_ k (field s k))
      [ "queued"; "running"; "done"; "failed"; "cancelled"; "shed" ]
  in
  let sum = List.fold_left ( + ) 0 by_status in
  if sum <> total then
    bad "session status counts sum to %d, statements says %d" sum total

let check_tenant t =
  if str "tenant" (field t "tenant") = "" then bad "empty tenant name";
  ignore (str "slo" (field t "slo"));
  if int_ "weight" (field t "weight") <= 0 then bad "non-positive weight";
  ignore (num "target_ms" (field t "target_ms"));
  List.iter
    (fun k -> if int_ k (field t k) < 0 then bad "negative %s" k)
    [ "submitted"; "completed"; "failed"; "cancelled"; "shed"; "replans";
      "slo_violations"; "deadline_misses"; "at_risk"; "share_pages";
      "leased_pages"; "peak_leased_pages"; "floor_waits" ];
  ignore (opt_num "min_headroom_ms" (field t "min_headroom_ms"));
  (match opt_num "share_utilization" (field t "share_utilization") with
   | Some u when u < 0.0 -> bad "negative share_utilization"
   | _ -> ());
  ignore (num "queue_ms" (field t "queue_ms"));
  ignore (num "exec_ms" (field t "exec_ms"))

let check_broker v =
  List.iter
    (fun k -> if int_ k (field v k) < 0 then bad "negative %s" k)
    [ "budget_pages"; "floor_pages"; "total_leased"; "free_pages";
      "outstanding"; "peak_leased"; "grants"; "reclaimed_pages" ];
  let total = int_ "total_leased" (field v "total_leased") in
  let leases = arr "leases" (field v "leases") in
  let sum =
    List.fold_left
      (fun acc l ->
         ignore (int_ "lease id" (field l "id"));
         ignore (str "lease tenant" (field l "tenant"));
         ignore (str "lease label" (field l "label"));
         let pages = int_ "lease pages" (field l "pages") in
         if pages <= 0 then bad "lease with %d pages listed" pages;
         acc + pages)
      0 leases
  in
  if sum > total then
    bad "lease table holds %d pages but total_leased says %d" sum total;
  List.length leases

let ledger_kinds = [ "considered"; "switched"; "rejected"; "realloc" ]

let check_ledger_entry d =
  if str "query" (field d "query") = "" then bad "empty ledger query";
  ignore (int_ "seq" (field d "seq"));
  ignore (num "ts_ms" (field d "ts_ms"));
  ignore (str "unit_op" (field d "unit_op"));
  ignore (num "est_rows" (field d "est_rows"));
  ignore (int_ "actual_rows" (field d "actual_rows"));
  ignore (num "cardinality_error" (field d "cardinality_error"));
  let kind = str "kind" (field d "kind") in
  if not (List.mem kind ledger_kinds) then bad "unknown ledger kind %S" kind;
  (match kind with
   | "considered" ->
     ignore (str "decision" (field d "decision"));
     ignore (num "t_improved_ms" (field d "t_improved_ms"));
     ignore (num "t_optimizer_ms" (field d "t_optimizer_ms"));
     ignore (num "t_opt_estimated_ms" (field d "t_opt_estimated_ms"));
     ignore
       (bool_ "forced_by_filter_surprise"
          (field d "forced_by_filter_surprise"))
   | "switched" ->
     ignore (num "t_new_total_ms" (field d "t_new_total_ms"));
     ignore (num "t_improved_ms" (field d "t_improved_ms"));
     ignore (num "materialize_ms" (field d "materialize_ms"))
   | "rejected" ->
     ignore (num "t_new_total_ms" (field d "t_new_total_ms"));
     ignore (num "t_improved_ms" (field d "t_improved_ms"))
   | _ ->
     ignore (int_ "granted_pages" (field d "granted_pages"));
     ignore (int_ "consumers" (field d "consumers")))

let check_monitor v =
  let view = str "view" (field v "view") in
  ignore (num "now_ms" (field v "now_ms"));
  if int_ "queued" (field v "queued") < 0 then bad "negative queued";
  if int_ "running" (field v "running") < 0 then bad "negative running";
  let count_of key check =
    let xs = arr key (field v key) in
    List.iter check xs;
    List.length xs
  in
  let n =
    match view with
    | "statements" -> count_of "statements" check_statement
    | "sessions" -> count_of "sessions" check_session
    | "tenants" -> count_of "tenants" check_tenant
    | "broker" -> check_broker v
    | "ledger" -> count_of "ledger" check_ledger_entry
    | s -> bad "unknown monitor view %S" s
  in
  (view, n)

(* --- Prometheus text exposition ------------------------------------ *)

(* Not JSON: one line per sample, `# TYPE family kind` headers.  Checks:
   every sample belongs to the current family, families sorted by name,
   histogram buckets cumulative with le="+Inf" last and equal to
   _count. *)

let prom_name_ok name =
  name <> ""
  && (match name.[0] with
      | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true
      | _ -> false)
  && String.for_all
       (fun c ->
          match c with
          | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
          | _ -> false)
       name

let prom_kinds = [ "counter"; "gauge"; "histogram" ]

type prom_family = {
  mutable pf_name : string;
  mutable pf_kind : string;
  mutable pf_samples : int;
  (* histogram state *)
  mutable pf_last_cum : int;       (* last bucket's cumulative count *)
  mutable pf_inf : int option;     (* le="+Inf" bucket value *)
  mutable pf_inf_last : bool;      (* no bucket may follow +Inf *)
  mutable pf_count : int option;   (* _count sample value *)
}

let finish_family fam total =
  if fam.pf_name <> "" then begin
    if fam.pf_kind = "histogram" then begin
      (match fam.pf_inf with
       | None -> bad "%s: histogram without a +Inf bucket" fam.pf_name
       | Some inf ->
         (match fam.pf_count with
          | None -> bad "%s: histogram without a _count sample" fam.pf_name
          | Some c when c <> inf ->
            bad "%s: +Inf bucket %d disagrees with _count %d" fam.pf_name
              inf c
          | Some _ -> ()))
    end;
    if fam.pf_samples = 0 then bad "%s: family with no samples" fam.pf_name;
    incr total
  end

let check_prom text =
  let lines = String.split_on_char '\n' text in
  let fam =
    { pf_name = ""; pf_kind = ""; pf_samples = 0; pf_last_cum = 0;
      pf_inf = None; pf_inf_last = false; pf_count = None }
  in
  let families = ref 0 in
  let samples = ref 0 in
  let lineno = ref 0 in
  let fail fmt =
    Printf.ksprintf (fun m -> bad "line %d: %s" !lineno m) fmt
  in
  List.iter
    (fun line ->
       incr lineno;
       if line = "" then ()
       else if String.length line > 7 && String.sub line 0 7 = "# TYPE " then begin
         finish_family fam families;
         let rest = String.sub line 7 (String.length line - 7) in
         match String.split_on_char ' ' rest with
         | [ name; kind ] ->
           if not (prom_name_ok name) then fail "bad family name %S" name;
           if not (List.mem kind prom_kinds) then
             fail "unknown family kind %S" kind;
           if fam.pf_name <> "" && String.compare name fam.pf_name <= 0 then
             fail "family %s out of order after %s" name fam.pf_name;
           fam.pf_name <- name;
           fam.pf_kind <- kind;
           fam.pf_samples <- 0;
           fam.pf_last_cum <- 0;
           fam.pf_inf <- None;
           fam.pf_inf_last <- false;
           fam.pf_count <- None
         | _ -> fail "malformed TYPE line"
       end
       else if line.[0] = '#' then ()
       else begin
         (* sample: name[{le="..."}] value *)
         if fam.pf_name = "" then fail "sample before any # TYPE line";
         let name_end =
           match String.index_opt line ' ', String.index_opt line '{' with
           | Some sp, Some br -> Stdlib.min sp br
           | Some sp, None -> sp
           | None, _ -> fail "sample line without a value"
         in
         let name = String.sub line 0 name_end in
         if not (prom_name_ok name) then fail "bad metric name %S" name;
         let value_str =
           match String.rindex_opt line ' ' with
           | Some sp -> String.sub line (sp + 1) (String.length line - sp - 1)
           | None -> fail "sample line without a value"
         in
         let value =
           match float_of_string_opt value_str with
           | Some v -> v
           | None -> fail "bad sample value %S" value_str
         in
         let suffix_of base =
           if name = base then ""
           else if
             String.length name > String.length base
             && String.sub name 0 (String.length base) = base
           then String.sub name (String.length base)
               (String.length name - String.length base)
           else fail "sample %s outside family %s" name fam.pf_name
         in
         (match fam.pf_kind with
          | "counter" | "gauge" ->
            if name <> fam.pf_name then
              fail "sample %s outside family %s" name fam.pf_name;
            if fam.pf_kind = "counter" && value < 0.0 then
              fail "negative counter %s" name
          | _ ->
            (match suffix_of fam.pf_name with
             | "_bucket" ->
               if fam.pf_inf_last then
                 fail "%s: bucket after le=\"+Inf\"" fam.pf_name;
               let v = int_of_float value in
               if v < fam.pf_last_cum then
                 fail "%s: bucket counts not cumulative (%d after %d)"
                   fam.pf_name v fam.pf_last_cum;
               fam.pf_last_cum <- v;
               (* `le="+Inf"` closes the bucket series *)
               let is_inf =
                 let marker = {|le="+Inf"|} in
                 let rec find i =
                   i + String.length marker <= String.length line
                   && (String.sub line i (String.length marker) = marker
                       || find (i + 1))
                 in
                 find 0
               in
               if is_inf then begin
                 fam.pf_inf <- Some v;
                 fam.pf_inf_last <- true
               end
             | "_sum" -> ()
             | "_count" ->
               if not fam.pf_inf_last then
                 fail "%s: _count before the +Inf bucket" fam.pf_name;
               fam.pf_count <- Some (int_of_float value)
             | s -> fail "unknown histogram suffix %S" s));
         fam.pf_samples <- fam.pf_samples + 1;
         incr samples
       end)
    lines;
  finish_family fam families;
  (!families, !samples)

(* --- driver --------------------------------------------------------- *)

let check_lint file text =
  match parse text with
  | Arr queries ->
    let checked = List.map check_query queries in
    let diags = List.fold_left (fun acc (_, n) -> acc + n) 0 checked in
    Printf.printf "json_check: %s ok (%d queries, %d diagnostics)\n" file
      (List.length checked) diags
  | _ -> bad "top level must be an array"

let check_monitor_file file text =
  match parse text with
  | Obj _ as v ->
    let view, n = check_monitor v in
    Printf.printf "json_check: %s ok (monitor %s, %d entries)\n" file view n
  | _ -> bad "top level must be an object"

let check_prom_file file text =
  let families, samples = check_prom text in
  Printf.printf "json_check: %s ok (prometheus, %d families, %d samples)\n"
    file families samples

let () =
  let usage () =
    prerr_endline "usage: json_check [--format lint|monitor|prom] FILE";
    exit 2
  in
  let format, file =
    match Sys.argv with
    | [| _; f |] -> ("lint", f)
    | [| _; "--format"; fmt; f |] -> (fmt, f)
    | _ -> usage ()
  in
  let text = In_channel.with_open_text file In_channel.input_all in
  let run = function
    | "lint" -> check_lint file text
    | "monitor" -> check_monitor_file file text
    | "prom" -> check_prom_file file text
    | _ -> usage ()
  in
  match run format with
  | () -> ()
  | exception Bad m ->
    Printf.eprintf "json_check: %s: %s\n" file m;
    exit 1
