open Testutil

(* End-to-end scenarios exercising several subsystems together. *)

let test_progen_shape () =
  let spec = Option.get (Progen.Suite.by_name "505.mcf") in
  let program = Progen.Generate.program spec in
  (* Calibration against Table 2's mcf row: 80 funcs, ~1K blocks,
     ~34KB text — generated values should land within 30%. *)
  let funcs = Ir.Program.num_funcs program in
  let blocks = Ir.Program.num_blocks program in
  check tb "funcs near 80" true (funcs > 50 && funcs < 110);
  check tb "blocks near 1K" true (blocks > 700 && blocks < 1500);
  check tb "main exists" true (Option.is_some (Ir.Program.find_func program "main"))

let test_progen_deterministic () =
  let spec = Option.get (Progen.Suite.by_name "505.mcf") in
  let p1 = Progen.Generate.program spec in
  let p2 = Progen.Generate.program spec in
  check ti "same funcs" (Ir.Program.num_funcs p1) (Ir.Program.num_funcs p2);
  check ti "same blocks" (Ir.Program.num_blocks p1) (Ir.Program.num_blocks p2);
  check ti "same bytes" (Ir.Program.code_bytes p1) (Ir.Program.code_bytes p2)

let test_progen_cold_units () =
  let spec, program = medium_program () in
  let hot = Progen.Generate.hot_units spec in
  check tb "some units cold" true (hot < List.length (Ir.Program.units program))

let test_pm_layout_matches_baseline () =
  (* The metadata build must not perturb the text layout: profiles
     taken on PM apply to the baseline/BM binaries (5 methodology). *)
  let _, program = medium_program () in
  let _, { Linker.Link.binary = base; _ } = compile_and_link program in
  let _, { Linker.Link.binary = pm; _ } = metadata_link program in
  Array.iter
    (fun (b : Linker.Binary.block_info) ->
      let p = Linker.Binary.block_info_exn pm ~func:b.func ~block:b.block in
      check ti "same addr" b.addr p.Linker.Binary.addr;
      check ti "same size" b.size p.Linker.Binary.size)
    base.blocks

let test_profile_addresses_all_map () =
  (* Every LBR destination must resolve through the BB address map:
     the no-disassembly pipeline loses nothing. *)
  let _, program = medium_program () in
  let _, { Linker.Link.binary; _ } = metadata_link program in
  let _, profile = run_with_profile ~requests:30 program binary in
  let dcfg = Propeller.Dcfg.build ~profile ~binary in
  let unmapped = ref 0 and total = ref 0 in
  Perfmon.Lbr.iter_pairs
    (fun ~src:_ ~dst _ ->
      incr total;
      if Propeller.Dcfg.find_block dcfg dst = None then incr unmapped)
    profile.branches;
  check ti "every LBR destination maps to a block" 0 !unmapped;
  check tb "profile nonempty" true (!total > 0)

let test_propeller_improves_frontend_counters () =
  (* On a mid-sized program with cold paths, Propeller must cut iTLB
     misses (the 4.6 effect) and not increase taken branches. *)
  let spec, program = medium_program ~seed:99L () in
  let env = Buildsys.Driver.make_env () in
  let base = Propeller.Pipeline.baseline_build ~env ~program ~name:"b" in
  let prop =
    Propeller.Pipeline.run
      ~config:
        {
          Propeller.Pipeline.default_config with
          profile_run = { Exec.Interp.default_config with requests = spec.requests };
        }
      ~env ~program ~name:"p" ()
  in
  let counters binary =
    let image = Exec.Image.build program binary in
    let core = Uarch.Core.create Uarch.Core.default_config in
    let (_ : Exec.Interp.stats) =
      Exec.Interp.run image
        { Exec.Interp.default_config with requests = spec.requests }
        (Uarch.Core.sink core)
    in
    Uarch.Core.counters core
  in
  let cb = counters base.binary in
  let cp = counters (Propeller.Pipeline.optimized_binary prop) in
  check tb "taken branches do not increase" true
    (cp.b2_taken_branches <= cb.b2_taken_branches);
  check tb "L1i misses do not increase" true (cp.i1_l1i_miss <= cb.i1_l1i_miss)

let test_full_cycle_determinism () =
  (* The whole pipeline is reproducible end to end. *)
  let run () =
    let spec, program = medium_program ~seed:5L () in
    let env = Buildsys.Driver.make_env () in
    let prop =
      Propeller.Pipeline.run
        ~config:
          {
            Propeller.Pipeline.default_config with
            profile_run = { Exec.Interp.default_config with requests = spec.requests };
          }
        ~env ~program ~name:"d" ()
    in
    ( prop.wpa.hot_funcs,
      prop.wpa.dcfg_blocks,
      prop.hot_objects,
      Linker.Binary.total_size (Propeller.Pipeline.optimized_binary prop) )
  in
  check tb "two full runs agree" true (run () = run ())

let test_exploded_sections_cost_more () =
  (* The 4.1 cluster rationale: one section per block inflates objects
     and link inputs. *)
  let _, program = medium_program () in
  let all_bb_plans =
    Ir.Program.fold_funcs program [] (fun acc f ->
        if Ir.Func.num_blocks f < 2 then acc
        else begin
          let clusters =
            List.init (Ir.Func.num_blocks f) (fun b ->
                if b = 0 then { Codegen.Directive.kind = Codegen.Directive.Primary; blocks = [ 0 ] }
                else { Codegen.Directive.kind = Codegen.Directive.Extra b; blocks = [ b ] })
          in
          { Codegen.Directive.func = f.name; clusters } :: acc
        end)
  in
  let objs_plain = Codegen.compile_program Codegen.default_options program in
  let objs_exploded =
    Codegen.compile_program { Codegen.default_options with plans = all_bb_plans } program
  in
  let total objs = List.fold_left (fun a o -> a + Objfile.File.total_size o) 0 objs in
  let sections objs =
    List.fold_left (fun a o -> a + Objfile.File.num_text_sections o) 0 objs
  in
  check tb "exploded objects bigger" true (total objs_exploded > total objs_plain);
  check tb "way more sections" true (sections objs_exploded > 4 * sections objs_plain)

let test_table3_shape_mcf () =
  (* The SPEC regression mechanism: on a cache-resident benchmark the
     gains are tiny (within +-2%), unlike warehouse apps. *)
  let spec = { (Option.get (Progen.Suite.by_name "505.mcf")) with Progen.Spec.requests = 60 } in
  let program = Progen.Generate.program spec in
  let env = Buildsys.Driver.make_env () in
  let base = Propeller.Pipeline.baseline_build ~env ~program ~name:"mcf.b" in
  let prop =
    Propeller.Pipeline.run
      ~config:
        {
          Propeller.Pipeline.default_config with
          profile_run = { Exec.Interp.default_config with requests = 60 };
        }
      ~env ~program ~name:"mcf.p" ()
  in
  let cycles binary =
    let image = Exec.Image.build program binary in
    let core = Uarch.Core.create Uarch.Core.default_config in
    let (_ : Exec.Interp.stats) =
      Exec.Interp.run image { Exec.Interp.default_config with requests = 60 } (Uarch.Core.sink core)
    in
    Uarch.Core.cycles core
  in
  let delta =
    (cycles base.binary -. cycles (Propeller.Pipeline.optimized_binary prop))
    /. cycles base.binary *. 100.0
  in
  check tb "small-program delta within +-2%" true (abs_float delta < 2.0)

let suite =
  [
    Alcotest.test_case "progen: table-2 shape" `Quick test_progen_shape;
    Alcotest.test_case "progen: deterministic" `Quick test_progen_deterministic;
    Alcotest.test_case "progen: cold units" `Quick test_progen_cold_units;
    Alcotest.test_case "PM layout matches baseline" `Quick test_pm_layout_matches_baseline;
    Alcotest.test_case "profile addresses all map" `Quick test_profile_addresses_all_map;
    Alcotest.test_case "propeller improves frontend counters" `Slow test_propeller_improves_frontend_counters;
    Alcotest.test_case "full-cycle determinism" `Slow test_full_cycle_determinism;
    Alcotest.test_case "exploded sections cost more" `Quick test_exploded_sections_cost_more;
    Alcotest.test_case "mcf: small-program shape" `Slow test_table3_shape_mcf;
  ]
