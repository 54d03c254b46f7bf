(* Compiler-workload scenario: optimize a clang-shaped binary (Table 2
   row: 72 MB text / 160 K functions / 2.1 M blocks, generated at 16:1
   scale) and compare walltime, i-cache and iTLB behaviour against the
   PGO+ThinLTO baseline and against a BOLT-style rewriter.

   Run with: dune exec examples/clang_pipeline.exe *)

let requests = 200

let measure program binary =
  let image = Exec.Image.build program binary in
  let core = Uarch.Core.create Uarch.Core.default_config in
  let (_ : Exec.Interp.stats) =
    Exec.Interp.run image { Exec.Interp.default_config with requests } (Uarch.Core.consume core)
  in
  Uarch.Core.counters core

let () =
  print_endline "=== clang pipeline ===";
  let spec = { Progen.Suite.clang with Progen.Spec.requests } in
  Printf.printf "generating the clang-shaped program (scale %d:1)...\n%!" spec.scale;
  let program = Progen.Generate.program spec in
  Printf.printf "  %d units, %d functions, %d blocks, %d code bytes\n%!"
    (List.length (Ir.Program.units program))
    (Ir.Program.num_funcs program) (Ir.Program.num_blocks program)
    (Ir.Program.code_bytes program);

  let env = Buildsys.Driver.make_env () in
  print_endline "building baseline (PGO + ThinLTO)...";
  let base = Propeller.Pipeline.baseline_build ~env ~program ~name:"clang" in

  print_endline "running Propeller phases 1-4...";
  let prop =
    Propeller.Pipeline.run
      ~config:
        {
          Propeller.Pipeline.default_config with
          profile_run = { Exec.Interp.default_config with requests };
        }
      ~env ~program ~name:"clang" ()
  in
  Printf.printf "  hot functions: %d; objects re-generated: %d/%d; relink reused %.0f%% of objects\n"
    prop.wpa.hot_funcs prop.hot_objects prop.total_objects
    (100.0 *. float_of_int (prop.total_objects - prop.hot_objects)
    /. float_of_int prop.total_objects);

  print_endline "running BOLT on the same profile...";
  let bm =
    Buildsys.Driver.build env ~name:"clang.bm" ~program
      ~codegen_options:Codegen.default_options
      ~link_options:{ Linker.Link.default_options with emit_relocs = true }
  in
  let is_asm f =
    match Ir.Program.find_func program f with
    | Some fn -> fn.Ir.Func.attrs.has_inline_asm
    | None -> false
  in
  let bolt =
    Boltsim.Driver.optimize ~profile:prop.profile ~binary:bm.binary ~is_asm
      ~hazards:Boltsim.Driver.no_hazards ~name:"clang" ()
  in

  print_endline "\nmeasuring (simulated Skylake front end):";
  let cb = measure program base.binary in
  let cp = measure program (Propeller.Pipeline.optimized_binary prop) in
  let co = measure program bolt.binary in
  let row label (c : Uarch.Core.counters) =
    Printf.printf "  %-10s walltime=%.3e cycles  L1i=%d  iTLB=%d  taken=%d  (%+.2f%% vs base)\n"
      label c.cycles c.i1_l1i_miss c.t1_itlb_miss c.b2_taken_branches
      ((cb.cycles -. c.cycles) /. cb.cycles *. 100.0)
  in
  row "baseline" cb;
  row "propeller" cp;
  row "bolt" co;

  Printf.printf "\nbinary sizes: baseline %d, PM %d (+%.1f%%), PO %d (+%.1f%%), BOLT %d (+%.0f%%)\n"
    (Linker.Binary.total_size base.binary)
    (Linker.Binary.total_size prop.metadata_build.binary)
    (100.
    *. (float_of_int (Linker.Binary.total_size prop.metadata_build.binary)
        /. float_of_int (Linker.Binary.total_size base.binary)
       -. 1.))
    (Linker.Binary.total_size (Propeller.Pipeline.optimized_binary prop))
    (100.
    *. (float_of_int (Linker.Binary.total_size (Propeller.Pipeline.optimized_binary prop))
        /. float_of_int (Linker.Binary.total_size base.binary)
       -. 1.))
    (Linker.Binary.total_size bolt.binary)
    (100.
    *. (float_of_int (Linker.Binary.total_size bolt.binary)
        /. float_of_int (Linker.Binary.total_size base.binary)
       -. 1.))
