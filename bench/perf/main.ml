(* The repository's benchmark.  See README.md beside this file.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
     main.exe compare [--bench BENCHMARK.json] BASE.json... -- NEW.json...
     main.exe smoke [--bench BENCHMARK.json]

   A run prints every metric by name with its unit, writes typed records
   to DIR (default bench/perf/out), and ends with one JSON line holding the
   declared end-to-end metrics (--trace 0) or per-layer metrics (--trace 1).
   It exits 1 when any statement failed its correctness check. *)

module W = Workloads

let workload name =
  match List.find_opt (fun (w : W.spec) -> w.W.name = name) W.all with
  | Some w -> w
  | None ->
    Printf.eprintf "unknown workload %S (one of: %s)\n" name
      (String.concat ", " (List.map (fun (w : W.spec) -> w.W.name) W.all));
    exit 2

(* The metric names and units BENCHMARK.json declares, per section. *)
let declared file section =
  List.map
    (fun m -> (Json.to_string (Json.field "name" m), m))
    (Json.to_list (Json.field section (Json.of_file file)))

let nproc () =
  match Sys.getenv_opt "PERF_NPROC" with
  | Some n -> (try int_of_string n with _ -> 0)
  | None -> Domain.recommended_domain_count ()

let header (w : W.spec) (o : W.opts) (r : W.result) =
  [ ("workload", Json.str w.W.name);
    ("seed", string_of_int o.W.seed);
    ("sf", Json.num r.W.sf_used);
    ("seconds", Json.num o.W.seconds);
    ("trace", string_of_bool o.W.trace);
    ("nproc", string_of_int (nproc ()));
    ("recommended_domain_count",
     string_of_int (Domain.recommended_domain_count ()));
    ("ocaml", Json.str Sys.ocaml_version);
    ("attempted", string_of_int r.W.attempted);
    ("failed", string_of_int r.W.failed) ]

let record (w : W.spec) (o : W.opts) (m : W.metric) =
  Json.obj
    [ ("workload", Json.str w.W.name);
      ("metric", Json.str m.W.name);
      ("kind", Json.str (if m.W.e2e then "e2e" else "layer"));
      ("clock", Json.str m.W.clock);
      ("unit", Json.str m.W.unit_);
      ("value", Json.num m.W.value);
      ("stat", Json.str m.W.stat);
      ("n", string_of_int m.W.n);
      ("seed", string_of_int o.W.seed) ]

let rec mkdir_p d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let run_one ~out (w : W.spec) (o : W.opts) =
  let r = W.run w o in
  Printf.printf
    "# %s  seed=%d sf=%g seconds=%g trace=%b nproc=%d domains=%d ocaml=%s\n"
    w.W.name o.W.seed r.W.sf_used o.W.seconds o.W.trace (nproc ())
    (Domain.recommended_domain_count ()) Sys.ocaml_version;
  List.iter
    (fun (m : W.metric) ->
       Printf.printf "%-5s %-32s %16.6f %-8s %-5s %-6s n=%d\n"
         (if m.W.e2e then "e2e" else "layer")
         m.W.name m.W.value m.W.unit_ m.W.clock m.W.stat m.W.n)
    r.W.metrics;
  if o.W.trace then begin
    Printf.printf "# self time per span (ms)\n";
    List.iter
      (fun (name, ms) -> Printf.printf "self  %-32s %16.3f\n" name ms)
      (Spans.self_ms r.W.spans)
  end;
  List.iter (Printf.printf "FAILED %s\n") r.W.errors;
  mkdir_p out;
  let base =
    Filename.concat out
      (Printf.sprintf "%s-seed%d-trace%d" w.W.name o.W.seed
         (if o.W.trace then 1 else 0))
  in
  Out_channel.with_open_bin (base ^ ".json") (fun oc ->
      Printf.fprintf oc "{\"header\": %s,\n \"records\": [\n  %s\n]}\n"
        (Json.obj (header w o r))
        (String.concat ",\n  " (List.map (record w o) r.W.metrics)));
  if o.W.trace then Spans.write_chrome r.W.spans (base ^ ".trace.json");
  Printf.printf "# records: %s.json%s\n" base
    (if o.W.trace then Printf.sprintf ", Chrome trace: %s.trace.json" base else "");
  r

(* The last stdout line: the metrics BENCHMARK.json declares for this kind
   of run (all of them when it is not at hand). *)
let final_line ~bench (o : W.opts) (r : W.result) =
  let section = if o.W.trace then "per_layer" else "end_to_end" in
  let wanted =
    if Sys.file_exists bench then Some (declared bench section) else None
  in
  let ms =
    List.filter
      (fun (m : W.metric) ->
         match wanted with
         | Some names -> List.mem_assoc m.W.name names
         | None -> m.W.e2e <> o.W.trace)
      r.W.metrics
  in
  Json.obj
    [ ("correct", string_of_bool (r.W.failed = 0));
      ("attempted", string_of_int r.W.attempted);
      ("failed", string_of_int r.W.failed);
      ("metrics",
       Json.obj
         (List.map
            (fun (m : W.metric) ->
               ( m.W.name,
                 Json.obj
                   [ ("value", Json.num m.W.value);
                     ("unit", Json.str m.W.unit_) ] ))
            ms)) ]

(* --- smoke: every workload, tiny, every declared metric present --------- *)

let smoke ~bench =
  let want = declared bench "end_to_end" @ declared bench "per_layer" in
  let ok = ref true in
  List.iter
    (fun (w : W.spec) ->
       let o =
         { W.seed = 1; seconds = 0.0; trace = true; max_stmts = Some 3;
           sf = Some 0.002 }
       in
       let t0 = Spans.now_ns () in
       let r = W.run w o in
       let bad =
         List.filter_map
           (fun (name, m) ->
              let unit_ = Json.to_string (Json.field "unit" m) in
              match
                List.find_opt (fun (x : W.metric) -> x.W.name = name) r.W.metrics
              with
              | Some x when x.W.unit_ = unit_ && Float.is_finite x.W.value -> None
              | Some x ->
                Some
                  (Printf.sprintf "%s: unit %s, value %g" name x.W.unit_
                     x.W.value)
              | None -> Some (name ^ ": missing"))
           want
         @ List.map (fun e -> "failed " ^ e) r.W.errors
         @ (if r.W.failed = 0 && r.W.attempted > 0 then []
            else
              [ Printf.sprintf "%d of %d statements failed" r.W.failed
                  r.W.attempted ])
       in
       Printf.printf "smoke %-12s %3d statements %6.2f s %s\n" w.W.name
         r.W.attempted
         (Spans.ms_between t0 (Spans.now_ns ()) /. 1000.0)
         (if bad = [] then "ok" else "FAILED");
       List.iter (Printf.printf "  %s\n") bad;
       if bad <> [] then ok := false)
    W.all;
  if not !ok then exit 1

(* --- command line ------------------------------------------------------- *)

let () =
  let argv = Array.to_list Sys.argv in
  let bench = ref "BENCHMARK.json" in
  match argv with
  | _ :: "compare" :: rest ->
    let rec split acc = function
      | "--bench" :: f :: tl -> bench := f; split acc tl
      | "--" :: tl -> (List.rev acc, tl)
      | x :: tl -> split (x :: acc) tl
      | [] -> (List.rev acc, [])
    in
    let base, next = split [] rest in
    if base = [] || next = [] then begin
      prerr_endline
        "usage: main.exe compare [--bench FILE] BASE.json... -- NEW.json...";
      exit 2
    end;
    exit (Compare.run ~bench:!bench ~base ~next)
  | _ :: "smoke" :: rest ->
    (match rest with "--bench" :: f :: _ -> bench := f | _ -> ());
    smoke ~bench:!bench
  | _ ->
    let name = ref "" and seed = ref 1 and seconds = ref 15.0 and trace = ref 0 in
    let out = ref "bench/perf/out" in
    Arg.parse
      [ ("--workload", Arg.Set_string name, "NAME workload to run");
        ("--seed", Arg.Set_int seed, "N input seed");
        ("--seconds", Arg.Set_float seconds, "S length of the timed window");
        ("--trace", Arg.Set_int trace,
         "0|1 1 adds the traced run (per-layer metrics)");
        ("--out", Arg.Set_string out, "DIR where records and traces go") ]
      (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
      "main.exe --workload NAME --seed N --seconds S --trace 0|1";
    let w = workload !name in
    let o =
      { W.seed = !seed; seconds = !seconds; trace = !trace = 1; max_stmts = None;
        sf = None }
    in
    let r = run_one ~out:!out w o in
    print_endline (final_line ~bench:!bench o r);
    if r.W.failed > 0 then exit 1
