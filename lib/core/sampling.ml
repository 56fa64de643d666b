open Mqr_storage
module Catalog = Mqr_catalog.Catalog
module Query = Mqr_sql.Query
module Expr = Mqr_expr.Expr
module Selectivity = Mqr_expr.Selectivity
module Stats_env = Mqr_opt.Stats_env
module Exec_ctx = Mqr_exec.Exec_ctx

type probe = {
  alias : string;
  sampled : int;
  matched : int;
  observed_selectivity : float;
  estimated_selectivity : float;
}

let local_conjuncts env (q : Query.t) alias =
  List.filter
    (fun conj ->
       match Expr.columns conj with
       | [] -> false
       | cols ->
         List.for_all
           (fun c ->
              let rel = Stats_env.rel env ~alias in
              Stats_env.owns rel c)
           cols)
    q.Query.conjuncts

let probe_relation ~catalog ~ctx (r : Query.relation) pred ~sample_rows =
  let tbl = Catalog.find_exn catalog r.Query.table in
  let heap = tbl.Catalog.heap in
  let n = Heap_file.tuple_count heap in
  if n = 0 then None
  else begin
    (* seeded by the table's name, so a probe draws the same rows however
       many heap files the process made before it *)
    let rng =
      Mqr_stats.Rng.create (0x5a17 + Hash_mix.string_hash r.Query.table)
    in
    let test = Expr.compile_pred r.Query.rel_schema pred in
    let sample = min sample_rows n in
    let matched = ref 0 in
    for _ = 1 to sample do
      let rid = Mqr_stats.Rng.int rng n in
      let tuple =
        Heap_file.fetch heap ~pool:ctx.Exec_ctx.pool ~clock:ctx.Exec_ctx.clock
          rid
      in
      if test tuple then incr matched
    done;
    (* add-one smoothing keeps zero-match probes from predicting an empty
       result outright *)
    let observed =
      (float_of_int !matched +. 1.0) /. (float_of_int sample +. 2.0)
    in
    Some (sample, !matched, observed)
  end

let probe_and_override ~catalog ~ctx ~env (q : Query.t) ~sample_rows =
  let sel_env = Stats_env.selectivity_env env in
  List.filter_map
    (fun (r : Query.relation) ->
       let alias = r.Query.alias in
       match local_conjuncts env q alias with
       | [] -> None
       | conjs ->
         let pred = Expr.conjoin conjs in
         let level = Inaccuracy.filter_level env (Some pred) in
         if Inaccuracy.compare_level level Inaccuracy.Medium < 0 then None
         else begin
           match probe_relation ~catalog ~ctx r pred ~sample_rows with
           | None -> None
           | Some (sampled, matched, observed) ->
             let estimated = Selectivity.selectivity sel_env pred in
             Stats_env.override_local_selectivity env ~alias
               ~selectivity:observed;
             Some
               { alias;
                 sampled;
                 matched;
                 observed_selectivity = observed;
                 estimated_selectivity = estimated }
         end)
    q.Query.relations

let pp_probe fmt p =
  Fmt.pf fmt
    "sampled %s: %d/%d matched -> selectivity %.4f (optimizer assumed %.4f)"
    p.alias p.matched p.sampled p.observed_selectivity
    p.estimated_selectivity
