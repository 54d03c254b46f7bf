open Testutil

(* Shared BOLT run on the medium program. *)
let fixture =
  lazy
    (let spec, program = medium_program ~seed:21L () in
     let env = Buildsys.Driver.make_env () in
     let bm =
       Buildsys.Driver.build env ~name:"bm" ~program ~codegen_options:Codegen.default_options
         ~link_options:{ Linker.Link.default_options with emit_relocs = true }
     in
     let _, profile = run_with_profile ~requests:spec.requests program bm.binary in
     let is_asm f =
       match Ir.Program.find_func program f with
       | Some fn -> fn.Ir.Func.attrs.has_inline_asm
       | None -> false
     in
     let bolt =
       Boltsim.Driver.optimize ~profile ~binary:bm.binary ~is_asm
         ~hazards:Boltsim.Driver.no_hazards ~name:"bolted" ()
     in
     (spec, program, bm, profile, bolt))

let test_rewrite_preserves_blocks () =
  let _, program, bm, _, bolt = Lazy.force fixture in
  (* Every block of the original binary exists in the rewritten one. *)
  Array.iter
    (fun (b : Linker.Binary.block_info) ->
      if Linker.Binary.block_info bolt.binary ~func:b.func ~block:b.block = None then
        Alcotest.failf "block lost in rewrite: %s#%d" b.func b.block)
    bm.binary.blocks;
  check ti "same block count" (Array.length bm.binary.blocks)
    (Array.length bolt.binary.blocks);
  ignore program

let test_rewrite_new_segment_above () =
  let _, _, bm, _, bolt = Lazy.force fixture in
  (* New code lives above the original text, 2M aligned (Fig 7c). *)
  let new_blocks =
    Array.fold_left (fun acc (b : Linker.Binary.block_info) -> min acc b.addr) max_int
      bolt.binary.blocks
  in
  check tb "all code relocated above old text" true (new_blocks >= bm.binary.text_end);
  check ti "2M aligned segment" 0 (new_blocks mod (2 * 1024 * 1024));
  check tb "binary grew (old text retained)" true
    (Linker.Binary.total_size bolt.binary > Linker.Binary.total_size bm.binary)

let test_rewrite_trace_invariant () =
  let spec, program, bm, _, bolt = Lazy.force fixture in
  let run binary =
    let image = Exec.Image.build program binary in
    Exec.Interp.run image
      { Exec.Interp.default_config with requests = spec.requests }
      Exec.Event.null
  in
  let s1 = run bm.binary and s2 = run bolt.binary in
  check ti "same logical blocks" s1.blocks_executed s2.blocks_executed;
  check ti "same calls" s1.calls s2.calls;
  check ti "same conditionals" s1.cond_branches s2.cond_branches

let test_rewrite_improves_layout () =
  let spec, program, bm, _, bolt = Lazy.force fixture in
  let cycles binary =
    let image = Exec.Image.build program binary in
    let core = Uarch.Core.create Uarch.Core.default_config in
    let (_ : Exec.Interp.stats) =
      Exec.Interp.run image
        { Exec.Interp.default_config with requests = spec.requests }
        (Uarch.Core.consume core)
    in
    (Uarch.Core.counters core).cycles
  in
  check tb "bolt does not regress the cycle model" true
    (cycles bolt.binary <= cycles bm.binary *. 1.005)

let test_asm_functions_skipped () =
  let _, program, bm, profile, _ = Lazy.force fixture in
  (* Force every function to be "assembly": nothing is rewritten. *)
  let bolt =
    Boltsim.Driver.optimize ~profile ~binary:bm.binary
      ~is_asm:(fun _ -> true)
      ~hazards:Boltsim.Driver.no_hazards ~name:"allasm" ()
  in
  check ti "nothing rewritten" 0 bolt.rewritten_funcs;
  check tb "all hot funcs skipped" true (bolt.skipped_funcs > 0);
  ignore program

let test_hazards_crash () =
  let _, _, bm, profile, _ = Lazy.force fixture in
  let bolt =
    Boltsim.Driver.optimize ~profile ~binary:bm.binary ~is_asm:(fun _ -> false)
      ~hazards:{ Boltsim.Driver.rseq = true; fips_check = false }
      ~name:"rseq" ()
  in
  check tb "rseq binary fails startup" false bolt.startup_ok;
  let bolt2 =
    Boltsim.Driver.optimize ~profile ~binary:bm.binary ~is_asm:(fun _ -> false)
      ~hazards:{ Boltsim.Driver.rseq = false; fips_check = true }
      ~name:"fips" ()
  in
  check tb "fips binary fails startup" false bolt2.startup_ok

let test_lite_lowers_memory () =
  let _, _, bm, profile, _ = Lazy.force fixture in
  let run options =
    Boltsim.Driver.optimize ~options ~profile ~binary:bm.binary ~is_asm:(fun _ -> false)
      ~hazards:Boltsim.Driver.no_hazards ~name:"m" ()
  in
  let lite = run Boltsim.Driver.fast_options in
  let full = run Boltsim.Driver.perf_options in
  check tb "lite uses less memory" true (lite.optimize_mem_bytes < full.optimize_mem_bytes)

let test_conversion_cost_scales_with_text () =
  let m1 = Boltsim.Costmodel.conversion_mem ~text_bytes:1_000_000 ~profile_bytes:0 in
  let m2 = Boltsim.Costmodel.conversion_mem ~text_bytes:100_000_000 ~profile_bytes:0 in
  (* Unlike Propeller's profile-bound conversion, BOLT's is text-bound
     (5.1): 100x the binary is ~100x the memory. *)
  check tb "text-proportional" true (m2 > 10 * m1)

let test_bolt_binary_has_no_metadata () =
  let _, _, _, _, bolt = Lazy.force fixture in
  check ti "no bb maps" 0
    (Linker.Binary.size_of_kind bolt.binary Objfile.Section.Bb_addr_map);
  check tb "rela retained" true
    (Linker.Binary.size_of_kind bolt.binary Objfile.Section.Rela > 0)

let suite =
  [
    Alcotest.test_case "rewrite preserves blocks" `Quick test_rewrite_preserves_blocks;
    Alcotest.test_case "new segment above old text" `Quick test_rewrite_new_segment_above;
    Alcotest.test_case "rewrite keeps logical trace" `Quick test_rewrite_trace_invariant;
    Alcotest.test_case "rewrite improves layout" `Quick test_rewrite_improves_layout;
    Alcotest.test_case "asm functions skipped" `Quick test_asm_functions_skipped;
    Alcotest.test_case "hazards crash at startup" `Quick test_hazards_crash;
    Alcotest.test_case "lite lowers memory" `Quick test_lite_lowers_memory;
    Alcotest.test_case "conversion cost is text-bound" `Quick test_conversion_cost_scales_with_text;
    Alcotest.test_case "no metadata in BO binary" `Quick test_bolt_binary_has_no_metadata;
  ]
