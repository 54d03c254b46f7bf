type options = {
  lite : bool;
  split_functions : bool;
  peephole : bool;
}

let fast_options =
  { lite = true; split_functions = true; peephole = false }

let perf_options = { fast_options with lite = false; peephole = true }

type hazards = { rseq : bool; fips_check : bool }

let no_hazards = { rseq = false; fips_check = false }

type result = {
  binary : Linker.Binary.t;
  startup_ok : bool;
  rewritten_funcs : int;
  skipped_funcs : int;
  conversion_mem_bytes : int;
  conversion_seconds : float;
  optimize_mem_bytes : int;
  optimize_seconds : float;
}

let optimize ?(options = perf_options) ~profile ~(binary : Linker.Binary.t) ~is_asm ~hazards
    ~name () =
  (* "perf2bolt": disassemble and aggregate the profile against the
     reconstructed CFG. *)
  let dcfg = Propeller.Dcfg.build_of_blocks ~profile ~binary in
  let hot = Array.to_list dcfg.funcs in
  let rewritable = List.filter (fun (d : Propeller.Dcfg.dfunc) -> not (is_asm d.name)) hot in
  let plans =
    List.map
      (fun (d : Propeller.Dcfg.dfunc) ->
        let hot_order = Propeller.Wpa.block_layout dcfg d in
        (* Every other block the binary has for this function. *)
        let rest = ref [] in
        for r = d.last - 1 downto d.first do
          let bb = (Propeller.Dcfg.block dcfg r).block in
          if not (List.mem bb hot_order) then rest := bb :: !rest
        done;
        if options.split_functions then (d.name, hot_order, !rest)
        else (d.name, hot_order @ !rest, []))
      rewritable
  in
  let func_order = Propeller.Dcfg.function_order dcfg rewritable in
  let rw = Rewrite.rewrite ~binary ~plans ~func_order ~peephole:options.peephole ~name in
  let text_bytes = Linker.Binary.text_bytes binary in
  let hot_text_bytes =
    List.fold_left (fun acc d -> acc + Propeller.Dcfg.sampled_bytes dcfg d) 0 hot
  in
  let profile_bytes = Perfmon.Lbr.raw_bytes profile in
  {
    binary = rw.binary;
    startup_ok = not (hazards.rseq || hazards.fips_check);
    rewritten_funcs = rw.rewritten_funcs;
    skipped_funcs = List.length hot - List.length rewritable;
    conversion_mem_bytes = Costmodel.conversion_mem ~text_bytes ~profile_bytes;
    conversion_seconds =
      Costmodel.conversion_seconds ~text_bytes
        ~profile_edges:(Perfmon.Lbr.distinct_edges profile);
    optimize_mem_bytes = Costmodel.optimize_mem ~text_bytes ~hot_text_bytes ~lite:options.lite;
    optimize_seconds =
      Costmodel.optimize_seconds ~text_bytes ~hot_text_bytes ~lite:options.lite;
  }
