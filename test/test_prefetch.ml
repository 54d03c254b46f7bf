open Testutil

(* A single hot loop whose body does a delinquent load every iteration:
   the simplest prefetch target. *)
let delinquent_program ?(miss_prob = 0.5) () =
  let f =
    Ir.Func.make ~name:"main"
      [|
        Ir.Block.make ~id:0 ~body:[ Ir.Inst.Compute 6 ] ~term:(Ir.Term.Jump 1) ();
        Ir.Block.make ~id:1
          ~body:[ Ir.Inst.DelinquentLoad { bytes = 6; miss_prob }; Ir.Inst.Compute 8 ]
          ~term:(branch ~taken:1 ~fallthrough:2 ~prob:0.9 ())
          ();
        Ir.Block.make ~id:2 ~body:[ Ir.Inst.Compute 4 ] ~term:Ir.Term.Return ();
      |]
  in
  Ir.Program.make ~name:"p" ~main:"main" [ Ir.Cunit.make ~name:"u" [ f ] ]

let link_and_run ?(codegen = Codegen.default_options) ?(requests = 200) program =
  let ctx = ctx () in
  let objs = Codegen.compile_program ~ctx codegen program in
  let { Linker.Link.binary; _ } = Linker.Link.link ~ctx ~name:"t" ~entry:"main" objs in
  let image = Exec.Image.build program binary in
  let stats =
    Exec.Interp.run ~ctx image { Exec.Interp.default_config with requests } Exec.Event.null
  in
  (binary, stats)

let test_delinquent_loads_miss () =
  let program = delinquent_program () in
  let _, stats = link_and_run program in
  check tb "loads retired" true (stats.dloads > 0);
  let rate = float_of_int stats.dmisses /. float_of_int stats.dloads in
  check tb "miss rate near probability" true (rate > 0.4 && rate < 0.6);
  check ti "nothing covered without prefetch" 0 stats.dcovered

let test_prefetch_covers_misses () =
  let program = delinquent_program () in
  let codegen = { Codegen.default_options with prefetch_sites = [ ("main", 1) ] } in
  let _, stats = link_and_run ~codegen program in
  check ti "all misses covered" 0 stats.dmisses;
  check tb "coverage recorded" true (stats.dcovered > 0)

let test_prefetch_instruction_emitted () =
  let program = delinquent_program () in
  let codegen = { Codegen.default_options with prefetch_sites = [ ("main", 1) ] } in
  let binary, _ = link_and_run ~codegen program in
  let insts block = func_block_insts binary ~func:"main" ~block in
  check tb "prefetch in block 1" true (List.mem Isa.Prefetch (insts 1));
  check tb "no prefetch elsewhere" false (List.mem Isa.Prefetch (insts 0))

let test_miss_roll_layout_invariant () =
  (* Whether a load would miss is logical, so covered + uncovered counts
     are conserved across prefetch insertion. *)
  let program = delinquent_program () in
  let _, plain = link_and_run program in
  let _, covered =
    link_and_run ~codegen:{ Codegen.default_options with prefetch_sites = [ ("main", 1) ] } program
  in
  check ti "total would-miss conserved" (plain.dmisses + plain.dcovered)
    (covered.dmisses + covered.dcovered)

let test_pebs_sampling () =
  let program = delinquent_program () in
  let objs = Codegen.compile_program ~ctx:(ctx ()) Codegen.default_options program in
  let { Linker.Link.binary; _ } = Linker.Link.link ~ctx:(ctx ()) ~name:"t" ~entry:"main" objs in
  let image = Exec.Image.build program binary in
  let pebs = Perfmon.Pebs.create_profile () in
  let stats =
    run_pebs image { Exec.Interp.default_config with requests = 300 } { Perfmon.Pebs.period = 7 } pebs
  in
  check tb "samples collected" true (pebs.num_samples > 0);
  check tb "sampling thins" true (Support.Itab.fold (fun _ c acc -> acc + c) pebs.misses 0 < stats.dmisses);
  check tb "sampling ratio near period" true
    (abs (pebs.num_samples - (stats.dmisses / 7)) <= 1)

let test_analysis_finds_site () =
  let program = delinquent_program () in
  let objs =
    Codegen.compile_program ~ctx:(ctx ())
      { Codegen.default_options with emit_bb_addr_map = true } program
  in
  let { Linker.Link.binary; _ } =
    Linker.Link.link ~ctx:(ctx ())
      ~options:{ Linker.Link.default_options with keep_bb_addr_map = true }
      ~name:"t" ~entry:"main" objs
  in
  let image = Exec.Image.build program binary in
  let pebs = Perfmon.Pebs.create_profile () in
  let (_ : Exec.Interp.stats) =
    run_pebs image { Exec.Interp.default_config with requests = 300 } Perfmon.Pebs.default_config pebs
  in
  let r = Propeller.Prefetch.analyze ~pebs ~binary in
  check tb "the loop body is nominated" true (List.mem ("main", 1) r.sites);
  check tb "coverage accounted" true (r.covered_misses > 0 && r.covered_misses <= r.sampled_misses)

let test_end_to_end_prefetch_pipeline () =
  let spec, program = medium_program ~seed:77L () in
  let env = Buildsys.Driver.make_env ~ctx:(ctx ()) () in
  let result =
    Propeller.Pipeline.run
      ~config:
        {
          Propeller.Pipeline.default_config with
          profile_run = { Exec.Interp.default_config with requests = spec.requests };
          prefetch = true;
        }
      ~env ~program ~name:"pf" ()
  in
  (match result.prefetch with
  | None -> Alcotest.fail "prefetch analysis missing"
  | Some p -> check tb "sites nominated" true (p.sites <> []));
  (* The optimized binary must stall on fewer data misses. *)
  let run binary =
    let image = Exec.Image.build program binary in
    Exec.Interp.run ~ctx:(ctx ()) image
      { Exec.Interp.default_config with requests = spec.requests }
      Exec.Event.null
  in
  let before = run result.metadata_build.binary in
  let after = run (Propeller.Pipeline.optimized_binary result) in
  check tb "uncovered misses reduced" true (after.dmisses < before.dmisses);
  check tb "covered misses appeared" true (after.dcovered > 0)

let suite =
  [
    Alcotest.test_case "delinquent loads miss" `Quick test_delinquent_loads_miss;
    Alcotest.test_case "prefetch covers misses" `Quick test_prefetch_covers_misses;
    Alcotest.test_case "prefetch instruction emitted" `Quick test_prefetch_instruction_emitted;
    Alcotest.test_case "miss roll layout invariant" `Quick test_miss_roll_layout_invariant;
    Alcotest.test_case "pebs sampling" `Quick test_pebs_sampling;
    Alcotest.test_case "analysis finds the site" `Quick test_analysis_finds_site;
    Alcotest.test_case "end-to-end pipeline" `Slow test_end_to_end_prefetch_pipeline;
  ]
