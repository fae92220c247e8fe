let () =
  Alcotest.run "lsra"
    [
      ("ir", Suite_ir.suite);
      ("analysis", Suite_analysis.suite);
      ("lifetime", Suite_lifetime.suite);
      ("interp", Suite_interp.suite);
      ("verify", Suite_verify.suite);
      ("resolution", Suite_resolution.suite);
      ("motion", Suite_motion.suite);
      ("passes", Suite_passes.suite);
      ("extensions", Suite_extensions.suite);
      ("torture", Suite_torture.suite);
      ("minilang", Suite_minilang.suite);
      ("binpack", Suite_binpack.suite);
      ("coloring", Suite_coloring.suite);
      ("coloring-internals", Suite_coloring_internals.suite);
      ("baselines", Suite_baselines.suite);
      ("optimal", Suite_optimal.suite);
      ("properties", Suite_props.suite);
      ("diffexec", Suite_diffexec.suite);
      ("sweep", Suite_sweep.suite);
      ("workloads", Suite_workloads.suite);
      ("text", Suite_text.suite);
      ("trace", Suite_trace.suite);
      ("service", Suite_service.suite);
      ("server", Suite_server.suite);
      ("parallel", Suite_parallel.suite);
      ("native", Suite_native.suite);
    ]
