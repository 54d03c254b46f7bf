(* Server scenario: a Search-shaped service (413 MB text, 95% cold
   objects in the paper; generated at 64:1 scale) measured in QPS, with
   2M hugepages for the text segment like production, plus the Fig-7
   style instruction-access heat map.

   Run with: dune exec examples/search_service.exe *)

let requests = 150

let qps cycles = float_of_int requests /. (cycles /. 2.0e9) (* a 2 GHz core *)

let measure ~hugepages program binary =
  let image = Exec.Image.build program binary in
  let core = Uarch.Core.create { Uarch.Core.default_config with hugepages } in
  let (_ : Exec.Interp.stats) =
    Exec.Interp.run image { Exec.Interp.default_config with requests } (Uarch.Core.consume core)
  in
  Uarch.Core.counters core

let heatmap program (binary : Linker.Binary.t) =
  let hm =
    Uarch.Heatmap.create ~lo:binary.text_start ~hi:binary.text_end ~rows:16 ~cols:60
      ~total_requests:requests
  in
  let image = Exec.Image.build program binary in
  let (_ : Exec.Interp.stats) =
    Exec.Interp.run image { Exec.Interp.default_config with requests } (Uarch.Heatmap.consume hm)
  in
  hm

let () =
  print_endline "=== search service ===";
  let spec = { Progen.Suite.search with Progen.Spec.requests } in
  Printf.printf "generating the search-shaped service (scale %d:1, hugepages=%b)...\n%!"
    spec.scale spec.hugepages;
  let program = Progen.Generate.program spec in
  let env = Buildsys.Driver.make_env () in
  let base = Propeller.Pipeline.baseline_build ~env ~program ~name:"search" in
  Printf.printf "baseline built: %d objects, text %d bytes\n%!"
    (List.length base.objs)
    (Linker.Binary.text_bytes base.binary);

  let prop =
    Propeller.Pipeline.run
      ~config:
        {
          Propeller.Pipeline.default_config with
          profile_run = { Exec.Interp.default_config with requests };
          hugepages = true;
        }
      ~env ~program ~name:"search" ()
  in
  Printf.printf "propeller: %d hot / %d objects; Phase 3 peak memory (modelled) %.2f GB\n%!"
    prop.hot_objects prop.total_objects
    (float_of_int prop.wpa.peak_mem_bytes /. 1.0e9);

  let cb = measure ~hugepages:true program base.binary in
  let cp = measure ~hugepages:true program (Propeller.Pipeline.optimized_binary prop) in
  Printf.printf "\nQPS: baseline %.0f -> propeller %.0f (%+.2f%%)\n" (qps cb.cycles)
    (qps cp.cycles)
    (((qps cp.cycles /. qps cb.cycles) -. 1.0) *. 100.0);
  Printf.printf "iTLB stall misses: %d -> %d (%+.0f%%)\n" cb.t2_itlb_stall_miss
    cp.t2_itlb_stall_miss
    (Support.Stats.ratio_pct (float_of_int cp.t2_itlb_stall_miss)
       (float_of_int cb.t2_itlb_stall_miss));
  Printf.printf "L1i misses:        %d -> %d (%+.0f%%)\n" cb.i1_l1i_miss cp.i1_l1i_miss
    (Support.Stats.ratio_pct (float_of_int cp.i1_l1i_miss) (float_of_int cb.i1_l1i_miss));

  print_endline "\ninstruction-access heat map, baseline (addr rows x time cols):";
  print_string (Uarch.Heatmap.render (heatmap program base.binary));
  print_endline "\ninstruction-access heat map, propeller (hot band packed low):";
  print_string (Uarch.Heatmap.render (heatmap program (Propeller.Pipeline.optimized_binary prop)))
