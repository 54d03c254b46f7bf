type options = {
  lite : bool;
  reorder_blocks : bool;
  reorder_functions : bool;
  split_functions : bool;
  peephole : bool;
}

let fast_options =
  { lite = true; reorder_blocks = true; reorder_functions = true; split_functions = true;
    peephole = false }

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
  let hot = Propeller.Dcfg.hot_funcs dcfg in
  let shapes = Propeller.Dcfg.shapes dcfg hot in
  let rewritable = List.filter (fun (d : Propeller.Dcfg.dfunc) -> not (is_asm d.dname)) hot in
  let idx = Linker.Binary.index binary in
  let plans =
    List.map
      (fun (d : Propeller.Dcfg.dfunc) ->
        let hot_order =
          if options.reorder_blocks then (Propeller.Wpa.block_layout shapes d).blocks
          else begin
            let bbs = Hashtbl.fold (fun bb _ acc -> bb :: acc) d.dblocks [] in
            List.sort_uniq compare (0 :: bbs)
          end
        in
        (* Every other block the binary has for this function. *)
        let rest =
          Array.to_list (Linker.Binary.func_blocks idx d.dname)
          |> List.map (fun i -> idx.ordered.(i).Linker.Binary.block)
          |> List.sort_uniq compare
          |> List.filter (fun bb -> not (List.mem bb hot_order))
        in
        if options.split_functions then (d.dname, hot_order, rest)
        else (d.dname, hot_order @ rest, []))
      rewritable
  in
  let func_order =
    if options.reorder_functions then Propeller.Dcfg.function_order dcfg rewritable
    else List.map (fun (f, _, _) -> f) plans
  in
  let rw = Rewrite.rewrite ~binary ~plans ~func_order ~peephole:options.peephole ~name in
  let text_bytes = Linker.Binary.text_bytes binary in
  let hot_text_bytes =
    List.fold_left
      (fun acc (d : Propeller.Dcfg.dfunc) ->
        Hashtbl.fold (fun _ (b : Propeller.Dcfg.mblock) a -> a + b.msize) d.dblocks acc)
      0 hot
  in
  let profile_bytes = Perfmon.Lbr.raw_bytes Perfmon.Lbr.default_config profile in
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
