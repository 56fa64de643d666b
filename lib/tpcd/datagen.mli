(** Scaled-down TPC-D data generator.

    Follows dbgen's shapes: fixed region/nation dimension tables, 1–7
    lineitems per order, ship/commit/receipt dates derived from the order
    date.  Two deliberate departures used by the experiments:

    - [skew_z > 0] draws every non-key attribute (and the foreign-key
      references) from a generalized Zipfian distribution, as in the
      paper's skew experiments (z = 0.3, 0.6);
    - [correlated] (on by default, as in real data) ties [l_discount] to
      [l_quantity] and [l_receiptdate] to [l_shipdate], producing the
      multi-attribute selection correlations that break the optimizer's
      independence assumption (the paper's footnote 2). *)

type options = {
  sf : float;          (** scale factor; 1.0 = full TPC-D sizes *)
  skew_z : float;      (** Zipf parameter; 0 = uniform *)
  seed : int;
  correlated : bool;
  hist_kind : Mqr_stats.Histogram.kind;  (** catalog histogram kind *)
  hist_buckets : int;
}

val default : options

(** Populate a fresh catalog: tables loaded, statistics analyzed with the
    requested histogram kind, B+-tree indexes built per
    {!Schema_def.indexes}. *)
val generate : options -> Mqr_catalog.Catalog.t
