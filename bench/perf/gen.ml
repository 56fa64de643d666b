(* Seeded workload inputs: query parameters drawn from the generator's own
   value domains (read back from the generated tables), statement
   sequences, write batches and open-loop arrivals.  Everything here is a
   pure function of the catalog and the seed, so one seed always yields the
   same inputs. *)

open Mqr_storage
module Catalog = Mqr_catalog.Catalog

let rng seed salt = Random.State.make [| seed; salt |]

let pick st a = a.(Random.State.int st (Array.length a))

let shuffle st l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

let heap catalog table = (Catalog.find_exn catalog table).Catalog.heap

let rows catalog table = Heap_file.tuple_count (heap catalog table)

(* Distinct values of one column, in first-seen order (deterministic for
   a given catalog). *)
let domain catalog table column =
  let h = heap catalog table in
  let ci = Schema.index_of (Heap_file.schema h) column in
  let seen = Hashtbl.create 16 and acc = ref [] in
  Heap_file.iter h (fun _ t ->
      let v = t.(ci) in
      if not (Hashtbl.mem seen v) then begin
        Hashtbl.add seen v ();
        acc := v :: !acc
      end);
  Array.of_list (List.rev !acc)

let str = function Value.String s -> s | v -> Value.to_string v

type domains = {
  segments : string array;
  regions : string array;
  nations : string array;
  part_types : string array;
  priorities : string array;
  flags : string array;
  ship_modes : string array;
}

let domains catalog =
  let names table col = Array.map str (domain catalog table col) in
  { segments = names "customer" "c_mktsegment";
    regions = names "region" "r_name";
    nations = names "nation" "n_name";
    part_types = names "part" "p_type";
    priorities = names "orders" "o_orderpriority";
    flags = names "lineitem" "l_returnflag";
    ship_modes = names "lineitem" "l_shipmode" }

let day s = match Value.date_of_string s with Value.Date d -> d | _ -> 0
let date d = Value.date_to_string d

(* A statement template: the TPC-D query shape of [Mqr_tpcd.Queries] with
   its substitution parameters drawn the TPC-H way (ranges chosen so every
   draw selects a similar fraction of the data). *)
type template = { tname : string; draw : Random.State.t -> domains -> string }

let q1 =
  { tname = "Q1";
    draw =
      (fun st _ ->
         let delta = 60 + Random.State.int st 61 in
         Printf.sprintf
           "select l_returnflag, l_linestatus, sum(l_quantity) as sum_qty, \
            sum(l_extendedprice) as sum_price, avg(l_quantity) as avg_qty, \
            avg(l_discount) as avg_disc, count(*) as count_order from \
            lineitem where l_shipdate <= date '%s' group by l_returnflag, \
            l_linestatus order by l_returnflag, l_linestatus"
           (date (day "1998-12-01" - delta))) }

let q3 =
  { tname = "Q3";
    draw =
      (fun st d ->
         let cut = date (day "1995-03-01" + Random.State.int st 31) in
         Printf.sprintf
           "select l_orderkey, sum(l_extendedprice) as revenue, o_orderdate, \
            o_shippriority from customer, orders, lineitem where \
            c_mktsegment = '%s' and c_custkey = o_custkey and l_orderkey = \
            o_orderkey and o_orderdate < date '%s' and l_shipdate > date \
            '%s' group by l_orderkey, o_orderdate, o_shippriority order by \
            revenue desc, o_orderdate limit 10"
           (pick st d.segments) cut cut) }

let year_window st =
  let y = 1993 + Random.State.int st 5 in
  (Printf.sprintf "%d-01-01" y, Printf.sprintf "%d-01-01" (y + 1))

let q5 =
  { tname = "Q5";
    draw =
      (fun st d ->
         let region = pick st d.regions in
         let lo, hi = year_window st in
         Printf.sprintf
           "select n_name, sum(l_extendedprice) as revenue from customer, \
            orders, lineitem, supplier, nation, region where c_custkey = \
            o_custkey and l_orderkey = o_orderkey and l_suppkey = s_suppkey \
            and c_nationkey = s_nationkey and s_nationkey = n_nationkey and \
            n_regionkey = r_regionkey and r_name = '%s' and o_orderdate >= \
            date '%s' and o_orderdate < date '%s' group by n_name order by \
            revenue desc"
           region lo hi) }

let q6 =
  { tname = "Q6";
    draw =
      (fun st _ ->
         let lo, hi = year_window st in
         let disc = 2 + Random.State.int st 8 in
         let qty = 24 + Random.State.int st 2 in
         Printf.sprintf
           "select sum(l_extendedprice) as revenue from lineitem where \
            l_shipdate >= date '%s' and l_shipdate < date '%s' and \
            l_discount between 0.%02d and 0.%02d and l_quantity < %d"
           lo hi (disc - 1) (disc + 1) qty) }

let q7 =
  { tname = "Q7";
    draw =
      (fun st d ->
         let n1 = pick st d.nations in
         let rec other () =
           let n = pick st d.nations in
           if n = n1 then other () else n
         in
         let n2 = other () in
         Printf.sprintf
           "select n1.n_name as supp_nation, n2.n_name as cust_nation, \
            sum(l_extendedprice) as revenue from supplier, lineitem, orders, \
            customer, nation n1, nation n2 where s_suppkey = l_suppkey and \
            o_orderkey = l_orderkey and c_custkey = o_custkey and \
            s_nationkey = n1.n_nationkey and c_nationkey = n2.n_nationkey \
            and ((n1.n_name = '%s' and n2.n_name = '%s') or (n1.n_name = \
            '%s' and n2.n_name = '%s')) and l_shipdate between date \
            '1995-01-01' and date '1996-12-31' group by n1.n_name, n2.n_name"
           n1 n2 n2 n1) }

let q8 =
  { tname = "Q8";
    draw =
      (fun st d ->
         let region = pick st d.regions in
         let ptype = pick st d.part_types in
         Printf.sprintf
           "select n2.n_name as nation, sum(l_extendedprice) as volume from \
            part, supplier, lineitem, orders, customer, nation n1, nation \
            n2, region where p_partkey = l_partkey and s_suppkey = \
            l_suppkey and l_orderkey = o_orderkey and o_custkey = c_custkey \
            and c_nationkey = n1.n_nationkey and n1.n_regionkey = \
            r_regionkey and r_name = '%s' and s_nationkey = n2.n_nationkey \
            and o_orderdate between date '1995-01-01' and date '1996-12-31' \
            and p_type = '%s' group by n2.n_name"
           region ptype) }

let q10 =
  { tname = "Q10";
    draw =
      (fun st _ ->
         (* first day of a month between 1993-02 and 1995-01, plus 3 months *)
         let m = 1 + Random.State.int st 24 in
         let ym k =
           Printf.sprintf "%d-%02d-01" (1993 + (k / 12)) (1 + (k mod 12))
         in
         Printf.sprintf
           "select c_custkey, c_name, sum(l_extendedprice) as revenue, \
            n_name from customer, orders, lineitem, nation where c_custkey \
            = o_custkey and l_orderkey = o_orderkey and o_orderdate >= date \
            '%s' and o_orderdate < date '%s' and l_returnflag = 'R' and \
            c_nationkey = n_nationkey group by c_custkey, c_name, n_name \
            order by revenue desc limit 20"
           (ym m) (ym (m + 3))) }

(* One statement of a sequence: its label (template name and parameter
   set) and SQL text.  Equal labels always carry equal SQL. *)
type stmt = { label : string; sql : string }

(* [sets] parameter sets per template, drawn once per seed. *)
let param_sets ~seed ~sets catalog templates =
  let st = rng seed 1 in
  let d = domains catalog in
  List.map
    (fun t ->
       Array.init sets (fun i ->
           { label = Printf.sprintf "%s#%d" t.tname i; sql = t.draw st d }))
    templates

(* Closed-loop rounds: round [r] runs every template once with parameter
   set [r mod sets], in a seeded order.  Every round has the same template
   mix, so per-round averages do not depend on how many rounds a run
   completes. *)
let round ~seed sets r =
  shuffle (rng seed (1000 + r)) (List.map (fun a -> a.(r mod Array.length a)) sets)

(* --- drift-rw write batches ------------------------------------------ *)

(* [orders] new orders numbered from [first_key], with [lines_per]
   lineitems each: foreign keys inside the generated ranges and order dates
   inside the canonical query windows, so the new rows change what the
   reads return.  Returns the two INSERT statements. *)
let write_batch ~seed ~round ~first_key ~orders ~lines_per d catalog =
  let st = rng seed (50_000 + round) in
  let customers = rows catalog "customer"
  and parts = rows catalog "part"
  and suppliers = rows catalog "supplier" in
  let lo = day "1993-10-01" in
  let span = day "1996-12-31" - lo in
  let ob = Buffer.create 8192 and lb = Buffer.create 65536 in
  Buffer.add_string ob "insert into orders values ";
  Buffer.add_string lb "insert into lineitem values ";
  for o = 0 to orders - 1 do
    let odate = lo + Random.State.int st span in
    if o > 0 then Buffer.add_string ob ", ";
    Printf.bprintf ob "(%d, %d, 'O', %d.0, date '%s', '%s', 0)" (first_key + o)
      (Random.State.int st customers)
      (1000 + Random.State.int st 100_000)
      (date odate) (pick st d.priorities);
    for l = 1 to lines_per do
      let qty = 1 + Random.State.int st 50 in
      let ship = odate + 1 + Random.State.int st 121 in
      if o > 0 || l > 1 then Buffer.add_string lb ", ";
      Printf.bprintf lb
        "(%d, %d, %d, %d, %d.0, %d.0, 0.0%d, 0.0%d, '%s', 'O', date '%s', \
         date '%s', date '%s', '%s')"
        (first_key + o)
        (Random.State.int st parts)
        (Random.State.int st suppliers)
        l qty
        (qty * (900 + Random.State.int st 1100) / 10)
        (Random.State.int st 10) (Random.State.int st 9)
        (pick st d.flags) (date ship)
        (date (odate + 30 + Random.State.int st 60))
        (date (ship + 1 + Random.State.int st 30))
        (pick st d.ship_modes)
    done
  done;
  (Buffer.contents ob, Buffer.contents lb)

(* --- svc-mixed arrivals ------------------------------------------------ *)

type arrival = { at_ms : float; tenant : string; stmt : stmt }

(* Endless sequence of [pool]'s statements, each block of |pool| a seeded
   permutation: every statement recurs at the same rate. *)
let blocks st pool =
  let rec go () = Seq.append (List.to_seq (shuffle st pool)) (fun () -> go () ()) in
  go ()

(* Poisson arrivals at [rate] statements per simulated second, with the
   exponential gaps stratified (one gap per n-quantile band of the
   exponential distribution, in seeded order) so every seed sees the same
   burstiness.  Exactly one arrival in five goes to the batch [etl] tenant
   (at a seeded place in each block of five), the rest to the interactive
   [web] tenant, and each tenant cycles through its statements in seeded
   blocks: the seed moves arrival order, never the mix. *)
let arrivals ~seed ~rate ~n ~web ~etl =
  let st = rng seed 7 in
  let gaps =
    shuffle st
      (List.init n (fun k ->
           let u =
             (float_of_int k +. Random.State.float st 1.0) /. float_of_int n
           in
           -.log (1.0 -. u) /. rate *. 1000.0))
  in
  let web = ref (blocks st web) and etl = ref (blocks st etl) in
  let next r =
    match !r () with
    | Seq.Cons (x, rest) -> r := rest; x
    | Seq.Nil -> assert false
  in
  let t = ref 0.0 and etl_slot = ref 0 in
  List.mapi
    (fun i gap ->
       if i mod 5 = 0 then etl_slot := Random.State.int st 5;
       t := !t +. gap;
       if i mod 5 = !etl_slot then { at_ms = !t; tenant = "etl"; stmt = next etl }
       else { at_ms = !t; tenant = "web"; stmt = next web })
    gaps
