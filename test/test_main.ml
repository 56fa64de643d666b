let () =
  Alcotest.run "mid-query-reoptimization"
    [ ("value", Test_value.suite);
      ("schema", Test_schema.suite);
      ("stats", Test_stats.suite);
      ("histogram", Test_histogram.suite);
      ("storage", Test_storage.suite);
      ("catalog", Test_catalog.suite);
      ("expr", Test_expr.suite);
      ("sql", Test_sql.suite);
      ("exec", Test_exec.suite);
      ("opt", Test_opt.suite);
      ("memman", Test_memman.suite);
      ("core", Test_core.suite);
      ("features", Test_features.suite);
      ("fuzz", Test_fuzz.suite);
      ("more", Test_more.suite);
      ("persist", Test_persist.suite);
      ("parallel", Test_parallel.suite);
      ("pardet", Test_pardet.suite);
      ("tpcd", Test_tpcd.suite);
      ("wlm", Test_wlm.suite);
      ("service", Test_service.suite);
      ("rf", Test_rf.suite);
      ("verify", Test_verify.suite);
      ("bounds", Test_bounds.suite);
      ("obs", Test_obs.suite);
      ("json_escape", Test_obs.json_escape_suite);
      ("progress", Test_progress.suite);
      ("monitor", Test_monitor.suite) ]
