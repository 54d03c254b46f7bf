let () =
  Alcotest.run "propeller"
    [
      ("support", Test_support.suite);
      ("faultsim", Test_faultsim.suite);
      ("pool", Test_pool.suite);
      ("isa", Test_isa.suite);
      ("ir", Test_ir.suite);
      ("layout", Test_layout.suite);
      ("objfile", Test_objfile.suite);
      ("codegen", Test_codegen.suite);
      ("inline", Test_inline.suite);
      ("linker", Test_linker.suite);
      ("exec", Test_exec.suite);
      ("perfmon", Test_perfmon.suite);
      ("uarch", Test_uarch.suite);
      ("obs", Test_obs.suite);
      ("selfprof", Test_selfprof.suite);
      ("buildsys", Test_buildsys.suite);
      ("propeller", Test_propeller.suite);
      ("prefetch", Test_prefetch.suite);
      ("boltsim", Test_boltsim.suite);
      ("diagnostics", Test_diagnostics.suite);
      ("inspect", Test_inspect.suite);
      ("integration", Test_integration.suite);
      ("addr-index", Test_addr_index.suite);
      ("properties", Test_properties.suite);
    ]
