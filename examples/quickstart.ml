(* Quickstart: drive a tiny hand-written program through the full
   Propeller pipeline and look at every intermediate artifact.

   Run with: dune exec examples/quickstart.exe *)

let () =
  print_endline "=== Propeller quickstart ===\n";

  (* 1. A tiny program: [main] runs a hot loop that mostly calls
     [fast], rarely [slow]; both have a cold error path. *)
  let worker name =
    Ir.Func.make ~name
      [|
        Ir.Block.make ~id:0 ~body:[ Ir.Inst.Compute 12 ]
          ~term:
            (Ir.Term.Branch
               { cond = Isa.Cond.Eq; taken = 2; fallthrough = 1; prob = 0.001; pgo_prob = 0.3 })
          ();
        Ir.Block.make ~id:1 ~body:[ Ir.Inst.Compute 16 ] ~term:Ir.Term.Return ();
        (* Cold error path: big, and in the middle of nowhere useful. *)
        Ir.Block.make ~id:2 ~body:[ Ir.Inst.Compute 120 ] ~term:Ir.Term.Return ();
      |]
  in
  let main =
    Ir.Func.make ~name:"main"
      [|
        Ir.Block.make ~id:0 ~body:[ Ir.Inst.Compute 8 ] ~term:(Ir.Term.Jump 1) ();
        Ir.Block.make ~id:1
          ~body:
            [ Ir.Inst.VirtualCall { callees = [| ("fast", 0.9); ("slow", 0.1) |] } ]
          ~term:
            (Ir.Term.Branch
               { cond = Isa.Cond.Ne; taken = 1; fallthrough = 2; prob = 0.8; pgo_prob = 0.8 })
          ();
        Ir.Block.make ~id:2 ~body:[ Ir.Inst.Compute 4 ] ~term:Ir.Term.Return ();
      |]
  in
  let program =
    Ir.Program.make ~name:"quickstart" ~main:"main"
      [
        Ir.Cunit.make ~name:"main_unit" [ main ];
        Ir.Cunit.make ~name:"workers" [ worker "fast"; worker "slow" ];
      ]
  in
  Printf.printf "program: %d functions, %d basic blocks, %d code bytes\n"
    (Ir.Program.num_funcs program) (Ir.Program.num_blocks program)
    (Ir.Program.code_bytes program);

  (* 2. Phases 1-2: build the metadata (PM) binary through the build
     system. The PGO estimate above wrongly thinks the error path is
     30% likely - exactly the staleness Propeller fixes. *)
  let env = Buildsys.Driver.make_env () in
  let config =
    {
      Propeller.Pipeline.default_config with
      profile_run = { Exec.Interp.default_config with requests = 500 };
    }
  in
  let result = Propeller.Pipeline.run ~config ~env ~program ~name:"quickstart" () in
  let pm = result.metadata_build.binary in
  Printf.printf "\nPhase 1-2: metadata binary: %d text bytes, %d bytes of .llvm_bb_addr_map\n"
    (Linker.Binary.text_bytes pm)
    (Linker.Binary.size_of_kind pm Objfile.Section.Bb_addr_map);

  (* 3. Phase 3 artifacts: the profile and the layout directives. *)
  Printf.printf "\nPhase 3: %d LBR samples -> DCFG with %d blocks / %d edges in %d hot functions\n"
    result.profile.num_samples result.wpa.dcfg_blocks result.wpa.dcfg_edges
    result.wpa.hot_funcs;
  print_endline "\ncc_prof.txt (cluster directives):";
  print_string (Codegen.Directive.to_text result.wpa.plans);
  print_endline "\nld_prof.txt (symbol ordering):";
  List.iter (fun s -> Printf.printf "  %s\n" s) result.wpa.ordering;

  (* 4. Phase 4: the optimized binary. Cold object files came from the
     cache; hot ones were re-generated with the directives. *)
  Printf.printf "\nPhase 4: %d/%d objects re-generated (rest cached)\n" result.hot_objects
    result.total_objects;
  let po = Propeller.Pipeline.optimized_binary result in
  List.iter
    (fun (p : Linker.Binary.placed) ->
      if p.kind = Objfile.Section.Text then
        Printf.printf "  %-28s @ 0x%x (%d bytes)\n" p.name p.addr p.size)
    po.sections;

  (* 5. Measure both binaries on the simulated core. *)
  let measure label binary =
    let image = Exec.Image.build program binary in
    let core = Uarch.Core.create Uarch.Core.default_config in
    let (_ : Exec.Interp.stats) =
      Exec.Interp.run image { Exec.Interp.default_config with requests = 500 }
        (Uarch.Core.consume core)
    in
    let c = Uarch.Core.counters core in
    Printf.printf "  %-10s cycles=%10.0f  L1i-miss=%-6d taken-branches=%d\n" label c.cycles
      c.i1_l1i_miss c.b2_taken_branches;
    c.cycles
  in
  print_endline "\nPerformance (simulated):";
  let base = Propeller.Pipeline.baseline_build ~env ~program ~name:"quickstart.base" in
  let cb = measure "baseline" base.binary in
  let cp = measure "propeller" po in
  Printf.printf "\nPropeller speedup: %+.2f%%\n" ((cb -. cp) /. cb *. 100.0);
  print_endline
    "(a 300-byte toy fits every cache, so the win is ~0 here; see\n\
    \ examples/clang_pipeline.exe and examples/search_service.exe for\n\
    \ workloads where layout actually moves the needle)"

