let () =
  Alcotest.run "fcsl"
    [
      ("pcm", Test_pcm.suite);
      ("heap-graph", Test_heap.suite);
      ("core", Test_core.suite);
      ("span", Test_span.suite);
      ("locks", Test_locks.suite);
      ("snapshot", Test_snapshot.suite);
      ("treiber", Test_treiber.suite);
      ("flatcombiner", Test_fc.suite);
      ("lang", Test_lang.suite);
      ("extract", Test_extract.suite);
      ("rules", Test_rules.suite);
      ("semantics", Test_semantics.suite);
      ("explore-dedup", Test_explore_dedup.suite);
      ("assertions", Test_assrt.suite);
      ("infra", Test_infra.suite);
      ("misc", Test_misc.suite);
      ("report", Test_report.suite);
      ("analysis", Test_analysis.suite);
      ("deadlock", Test_deadlock.suite);
      ("robust", Test_robust.suite);
      ("journal", Test_journal.suite);
      ("repr", Test_repr.suite);
      ("service", Test_service.suite);
    ]
