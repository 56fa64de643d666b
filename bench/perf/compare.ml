(* [compare]: two sets of result files, one verdict per workload x metric.

   End-to-end metrics (bounded in BENCHMARK.json):
   - worse:      the new median is worse than the base median by more than
                 the bound;
   - improved:   the new side wins at least 9/10 of the pairs (ties count
                 for neither) and the medians differ by more than the base
                 side's own spread (distance between its quartiles);
   - unresolved: neither, and a side's spread is wider than the bound;
   - unchanged:  otherwise.
   Per-layer metrics have no bound: they get the direction of a change
   that passes the same win/spread rule (higher/lower) or "same".
   Exits 1 on any "worse", or when the new side failed more statements. *)

type side = {
  values : (string * string, float list) Hashtbl.t;  (* workload, metric *)
  units : (string * string, string) Hashtbl.t;
  mutable failed : int;
}

let str k j = Json.to_string (Json.field k j)

let load files =
  let s = { values = Hashtbl.create 64; units = Hashtbl.create 64; failed = 0 } in
  List.iter
    (fun f ->
       let j = Json.of_file f in
       let failed = Json.to_float (Json.field "failed" (Json.field "header" j)) in
       s.failed <- s.failed + int_of_float failed;
       List.iter
         (fun r ->
            let key = (str "workload" r, str "metric" r) in
            let prev = Option.value ~default:[] (Hashtbl.find_opt s.values key) in
            Hashtbl.replace s.values key
              (prev @ [ Json.to_float (Json.field "value" r) ]);
            Hashtbl.replace s.units key (str "unit" r))
         (Json.to_list (Json.field "records" j)))
    files;
  s

(* Share of pairs the new side wins: index pairs when both sides ran the
   same number of times (runs alternate), else every cross pair. *)
let win_frac ~lower base next =
  let better a b = if lower then a < b else a > b in
  let pairs =
    if List.length base = List.length next then List.combine next base
    else List.concat_map (fun n -> List.map (fun b -> (n, b)) base) next
  in
  let wins = List.length (List.filter (fun (n, b) -> better n b) pairs) in
  Stat.ratio (float_of_int wins) (float_of_int (List.length pairs))

let verdict ~lower ~bound base next =
  let q1b, mb, q3b = Stat.quartiles base and q1n, mn, q3n = Stat.quartiles next in
  (* the §8 rule: the side wins 9/10 of the pairs and the medians differ
     by more than the base side's own spread *)
  let shifted ~up =
    win_frac ~lower:(not up) base next >= 0.9 && Float.abs (mn -. mb) > q3b -. q1b
  in
  match bound with
  | None ->
    if shifted ~up:true then "higher"
    else if shifted ~up:false then "lower"
    else "same"
  | Some bound ->
    let delta = (mn -. mb) *. if lower then 1.0 else -1.0 in
    let worse_by =
      if mb = 0.0 then (if delta > 0.0 then infinity else 0.0)
      else delta /. Float.abs mb
    in
    let spread q1 q3 m = Stat.ratio (q3 -. q1) (Float.abs m) in
    if worse_by > bound then "worse"
    else if shifted ~up:(not lower) then "improved"
    else if spread q1b q3b mb > bound || spread q1n q3n mn > bound then "unresolved"
    else "unchanged"

let run ~bench ~base ~next =
  let b = load base and n = load next in
  let bench = Json.of_file bench in
  let section k = Json.to_list (Json.field k bench) in
  let defs = section "end_to_end" @ section "per_layer" in
  let def name = List.find_opt (fun m -> str "name" m = name) defs in
  let keys =
    Hashtbl.fold
      (fun k _ acc -> if Hashtbl.mem n.values k then k :: acc else acc)
      b.values []
    |> List.sort compare
  in
  Printf.printf "%-12s %-30s %-7s %36s %36s %5s  %s\n" "workload" "metric" "unit"
    "base median [q1, q3]" "new median [q1, q3]" "win%" "verdict";
  let worse = ref 0 in
  List.iter
    (fun ((wl, metric) as key) ->
       match def metric with
       | None -> ()
       | Some d ->
         let bv = Hashtbl.find b.values key and nv = Hashtbl.find n.values key in
         let lower = str "better" d = "lower" in
         (* only end-to-end metrics carry a bound *)
         let bound =
           match Json.field "bound" d with Json.Num x -> Some x | _ -> None
         in
         let v = verdict ~lower ~bound bv nv in
         if v = "worse" then incr worse;
         let q xs =
           let q1, m, q3 = Stat.quartiles xs in
           Printf.sprintf "%.6g [%.6g, %.6g]" m q1 q3
         in
         Printf.printf "%-12s %-30s %-7s %36s %36s %5.0f  %s\n" wl metric
           (Hashtbl.find b.units key) (q bv) (q nv)
           (100.0 *. win_frac ~lower bv nv) v)
    keys;
  Printf.printf "failed statements: base %d, new %d\n" b.failed n.failed;
  if !worse > 0 || n.failed > b.failed then 1 else 0
