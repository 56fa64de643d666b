(** Start-time selectivity probing — the hybrid direction the paper
    sketches in Sections 4–5: combine run-time re-optimization with
    plans informed by information gathered just before execution
    (parameterized/dynamic plans à la Graefe–Cole and Ioannidis et al.).

    Before the optimizer runs, each relation whose local predicate has a
    Medium/High inaccuracy potential is probed: a small random sample of
    its tuples is fetched (paying random-read cost through the buffer
    pool) and the predicate's true selectivity is measured.  The
    measurement is installed in the {!Mqr_opt.Stats_env} as a local
    selectivity override, so the very first plan already reflects reality
    for those predicates.  Mid-query re-optimization then handles what
    sampling cannot see: join selectivities and distribution changes at
    intermediate results.

    A relation's probe draws its rows from a stream seeded by its table's
    name, so it samples the same rows whatever the process ran or created
    before it. *)



type probe = {
  alias : string;
  sampled : int;
  matched : int;
  observed_selectivity : float;  (** with add-one smoothing *)
  estimated_selectivity : float; (** what the optimizer would have used *)
}

(** [probe_and_override ~catalog ~ctx ~env query ~sample_rows] probes every
    relation with an uncertain local predicate, installs the overrides in
    [env] and returns what was measured.  Costs are charged to
    [ctx.clock]. *)
val probe_and_override :
  catalog:Mqr_catalog.Catalog.t -> ctx:Mqr_exec.Exec_ctx.t ->
  env:Mqr_opt.Stats_env.t -> Mqr_sql.Query.t -> sample_rows:int -> probe list

val pp_probe : Format.formatter -> probe -> unit
