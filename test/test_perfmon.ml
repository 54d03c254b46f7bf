open Testutil

let profile_of ?(requests = 30) program =
  let _, { Linker.Link.binary; _ } = metadata_link program in
  let stats, profile = run_with_profile ~requests program binary in
  (binary, stats, profile)

let test_collector_samples () =
  let _, program = medium_program () in
  let _, stats, profile = profile_of program in
  check tb "samples collected" true (profile.num_samples > 0);
  check tb "records accumulate" true (profile.num_records >= profile.num_samples);
  (* One sample per [period] taken branches, buffers hold up to 32. *)
  let taken = taken_branches stats in
  let expected = taken / Perfmon.Lbr.default_config.period in
  check tb "sample count near expectation" true
    (abs (profile.num_samples - expected) <= 1)

let test_branch_pairs_valid () =
  let program = call_program () in
  let binary, _, profile = profile_of ~requests:50 program in
  Perfmon.Lbr.iter_pairs
    (fun ~src ~dst n ->
      check tb "count positive" true (n > 0);
      check tb "src in text" true (src > binary.text_start && src <= binary.text_end);
      (* Root returns target the exit stub below the text segment. *)
      check tb "dst in text or exit stub" true
        (dst < binary.text_start || (dst >= binary.text_start && dst < binary.text_end)))
    profile.branches

let test_ranges_ordered () =
  let _, program = medium_program () in
  let _, _, profile = profile_of program in
  Perfmon.Lbr.iter_pairs
    (fun ~src:lo ~dst:hi _ -> check tb "range well formed" true (lo <= hi))
    profile.ranges

let test_sampling_period_thins_profile () =
  let _, program = medium_program () in
  let _, { Linker.Link.binary; _ } = metadata_link program in
  let collect period =
    let profile = Perfmon.Lbr.create_profile () in
    let c = Perfmon.Lbr.collector_state { Perfmon.Lbr.period } profile in
    let image = Exec.Image.build program binary in
    let (_ : Exec.Interp.stats) =
      Exec.Interp.run image
        { Exec.Interp.default_config with requests = 30 }
        (Perfmon.Lbr.consume c)
    in
    profile
  in
  let dense = collect 13 and sparse = collect 1009 in
  check tb "longer period, fewer samples" true (sparse.num_samples < dense.num_samples);
  check tb "still nonempty" true (sparse.num_samples > 0)

let test_raw_bytes_model () =
  let program = call_program () in
  let _, _, profile = profile_of program in
  let bytes = Perfmon.Lbr.raw_bytes profile in
  check tb "scales with samples" true
    (bytes >= profile.num_samples * 24 * 32)

let test_hot_edge_dominates () =
  (* The loop back-edge of a hot loop must be among the most counted
     branch pairs. *)
  let f = loop_func ~name:"main" () in
  let program = Ir.Program.make ~name:"p" ~main:"main" [ Ir.Cunit.make ~name:"u" [ f ] ] in
  let binary, _, profile = profile_of ~requests:400 program in
  let b1 = block_info_exn binary ~func:"main" ~block:1 in
  let back_edge_count = ref 0 in
  Perfmon.Lbr.iter_pairs
    (fun ~src:_ ~dst n -> if dst = b1.addr then back_edge_count := max !back_edge_count n)
    profile.branches;
  let back_edge_count = !back_edge_count in
  let max_count = Support.Itab.fold (fun _ n acc -> max acc n) profile.branches 0 in
  check ti "back edge is the hottest pair" max_count back_edge_count

(* --- Software stack sampler --------------------------------------- *)

let samples_of ?(config = Perfmon.Sampler.default_config) ?(requests = 40) program binary =
  let profile = Perfmon.Sampler.create_profile () in
  let c = Perfmon.Sampler.collector_state config profile in
  let image = Exec.Image.build program binary in
  let stats =
    Exec.Interp.run image
      { Exec.Interp.default_config with requests }
      (Perfmon.Sampler.consume c)
  in
  (stats, profile)

let test_sampler_collects () =
  let _, program = medium_program () in
  let _, { Linker.Link.binary; _ } = metadata_link program in
  let _, p = samples_of program binary in
  check tb "samples collected" true (p.num_samples > 0);
  check ti "leaf counts sum to samples" p.num_samples
    (Hashtbl.fold (fun _ c acc -> acc + c) p.leaves 0);
  check tb "stack walks recorded frames" true (p.num_frames >= p.num_samples);
  Hashtbl.iter
    (fun leaf c ->
      check tb "leaf count positive" true (c > 0);
      check tb "leaf inside text" true (leaf >= binary.text_start && leaf < binary.text_end))
    p.leaves

let test_sampler_deterministic () =
  let _, program = medium_program () in
  let _, { Linker.Link.binary; _ } = metadata_link program in
  let _, p1 = samples_of program binary in
  let _, p2 = samples_of program binary in
  check ti "same sample count" p1.num_samples p2.num_samples;
  check ti "same frame count" p1.num_frames p2.num_frames;
  check ti "same leaf cardinality" (Hashtbl.length p1.leaves) (Hashtbl.length p2.leaves);
  Hashtbl.iter
    (fun k c -> check ti "leaf count equal" c (Option.value ~default:0 (Hashtbl.find_opt p2.leaves k)))
    p1.leaves;
  Hashtbl.iter
    (fun k c -> check ti "arc count equal" c (Option.value ~default:0 (Hashtbl.find_opt p2.arcs k)))
    p1.arcs

let test_sampler_seed_moves_schedule () =
  (* A different jitter seed shifts the sample points; the profile must
     change (observed once, then locked in by determinism). *)
  let _, program = medium_program () in
  let _, { Linker.Link.binary; _ } = metadata_link program in
  let collect seed =
    samples_of ~config:{ Perfmon.Sampler.default_config with seed } program binary |> snd
  in
  let a = collect 0 and b = collect 1 in
  let leaves p =
    Hashtbl.fold (fun k c acc -> (k, c) :: acc) p.Perfmon.Sampler.leaves []
    |> List.sort compare
  in
  check tb "seed changes the sampled profile" true
    (a.num_samples <> b.num_samples || leaves a <> leaves b)

let test_sampler_period_thins () =
  let _, program = medium_program () in
  let _, { Linker.Link.binary; _ } = metadata_link program in
  let collect period =
    samples_of ~config:{ Perfmon.Sampler.default_config with period } program binary |> snd
  in
  let dense = collect 7 and sparse = collect 431 in
  check tb "longer period, fewer samples" true (sparse.num_samples < dense.num_samples);
  check tb "sparse still lands" true (sparse.num_samples > 0)

let test_sampler_arcs_land_on_entries () =
  let program = call_program () in
  let _, { Linker.Link.binary; _ } = metadata_link program in
  let _, p = samples_of ~requests:200 program binary in
  check tb "arcs observed" true (Hashtbl.length p.arcs > 0);
  (* Every recorded callee entry is a real function entry address. *)
  let entries =
    Array.fold_left
      (fun acc (info : Linker.Binary.block_info) ->
        if String.length info.func > 0 then info.addr :: acc else acc)
      [] binary.blocks
  in
  Hashtbl.iter
    (fun (_, centry) _ ->
      check tb "arc lands on a block entry" true (List.mem centry entries))
    p.arcs

(* The sampler's profile of 505.mcf's metadata image under the
   benchmark's traffic: its counts, and an MD5 of its sorted leaves and
   arcs. *)
let test_sampler_pinned_mcf () =
  let program, binary = Lazy.force mcf_metadata in
  let _, p = samples_of ~requests:mcf_spec.requests program binary in
  let sorted tbl = List.sort compare (Hashtbl.fold (fun k c acc -> (k, c) :: acc) tbl []) in
  let b = Buffer.create 65536 in
  List.iter (fun (leaf, c) -> Printf.bprintf b "%d %d\n" leaf c) (sorted p.leaves);
  List.iter (fun ((src, dst), c) -> Printf.bprintf b "%d %d %d\n" src dst c) (sorted p.arcs);
  check ti "samples" 959025 p.num_samples;
  check ti "frames" 8048810 p.num_frames;
  check ts "leaves and arcs" "d6bd33a2104e2e12ab7497fa332509ac" (Digest.to_hex (Digest.string (Buffer.contents b)))

(* --- PEBS data-miss sampling ------------------------------------- *)

let pebs_of ?(period = Perfmon.Pebs.default_config.Perfmon.Pebs.period) ?(requests = 40)
    program binary =
  let profile = Perfmon.Pebs.create_profile () in
  let image = Exec.Image.build program binary in
  let stats =
    run_pebs image { Exec.Interp.default_config with requests } { Perfmon.Pebs.period } profile
  in
  (stats, profile)

let test_pebs_period_one_samples_every_miss () =
  let _, program = medium_program () in
  let _, { Linker.Link.binary; _ } = metadata_link program in
  let stats, profile = pebs_of ~period:1 program binary in
  check ti "every uncovered miss sampled" stats.Exec.Interp.dmisses profile.num_samples;
  check ti "per-site counts sum to the samples" profile.num_samples
    (Support.Itab.fold (fun _ c acc -> acc + c) profile.misses 0)

let test_pebs_period_exceeds_misses () =
  let _, program = medium_program () in
  let _, { Linker.Link.binary; _ } = metadata_link program in
  let stats, profile = pebs_of ~period:(10 * 1000 * 1000) program binary in
  check tb "workload does miss" true (stats.Exec.Interp.dmisses > 0);
  check ti "period beyond the miss count collects nothing" 0 profile.num_samples;
  check ti "no sites recorded" 0 (Support.Itab.length profile.misses)

let test_pebs_period_edge () =
  (* Exactly [dmisses] misses at period [dmisses] yields one sample. *)
  let _, program = medium_program () in
  let _, { Linker.Link.binary; _ } = metadata_link program in
  let stats, _ = pebs_of ~period:1 program binary in
  let n = stats.Exec.Interp.dmisses in
  let _, profile = pebs_of ~period:n program binary in
  check ti "last miss of the run is the one sample" 1 profile.num_samples

let test_pebs_collector_deterministic () =
  (* The miss roll is seeded by logical block identity, so two
     identical runs sample identical sites with identical counts. *)
  let _, program = medium_program () in
  let _, { Linker.Link.binary; _ } = metadata_link program in
  let _, p1 = pebs_of program binary in
  let _, p2 = pebs_of program binary in
  check ti "same sample count" p1.num_samples p2.num_samples;
  check ti "same site cardinality" (Support.Itab.length p1.misses)
    (Support.Itab.length p2.misses);
  Support.Itab.iter
    (fun src c ->
      check ti (Printf.sprintf "site %x count" src) c (Support.Itab.find p2.misses src))
    p1.misses

(* The collector's predictor probes each table once per branch; the
   reference in [Ref_lbr] reads and writes its state with two probes
   and polymorphic saturation. Both drain the same tapes, and every
   table must come out the same, slot for slot. *)
let check_collector_law what program binary ~requests =
  let image = Exec.Image.build program binary in
  let got = Perfmon.Lbr.create_profile () and want = Perfmon.Lbr.create_profile () in
  let c = Perfmon.Lbr.collector_state Perfmon.Lbr.default_config got in
  let r = Ref_lbr.create Perfmon.Lbr.default_config want in
  let (_ : Exec.Interp.stats) =
    Exec.Interp.run image
      { Exec.Interp.default_config with requests }
      (fun tape ->
        Perfmon.Lbr.consume c tape;
        Ref_lbr.consume r tape)
  in
  let items tbl = List.rev (Support.Itab.fold (fun k v acc -> (k, v) :: acc) tbl []) in
  let same table a b =
    check tb (Printf.sprintf "%s: %s" what table) true (items a = items b)
  in
  check tb (what ^ ": some mispredicts") true (Support.Itab.length got.mispredicts > 0);
  same "branches" want.branches got.branches;
  same "ranges" want.ranges got.ranges;
  same "mispredicts" want.mispredicts got.mispredicts;
  check ti (what ^ ": samples") want.num_samples got.num_samples;
  check ti (what ^ ": records") want.num_records got.num_records

let test_collector_law () =
  let requests = Progen.Suite.clang.requests / 16 in
  for k = 0 to 3 do
    let program = relink_family_program k in
    let _, { Linker.Link.binary; _ } = metadata_link program in
    check_collector_law (Printf.sprintf "relink %d" k) program binary ~requests
  done;
  let _, r = Lazy.force relink0_run in
  check_collector_law "relink 0 optimized" (relink_family_program 0)
    (Propeller.Pipeline.optimized_binary r) ~requests;
  let program =
    Codegen.Inline.program (Progen.Generate.program (Option.get (Progen.Suite.by_name "505.mcf")))
  in
  let _, { Linker.Link.binary; _ } = metadata_link program in
  check_collector_law "505.mcf" program binary ~requests:40

let suite =
  [
    Alcotest.test_case "collector samples" `Quick test_collector_samples;
    Alcotest.test_case "branch pairs valid" `Quick test_branch_pairs_valid;
    Alcotest.test_case "ranges ordered" `Quick test_ranges_ordered;
    Alcotest.test_case "sampling period" `Quick test_sampling_period_thins_profile;
    Alcotest.test_case "raw bytes model" `Quick test_raw_bytes_model;
    Alcotest.test_case "hot edge dominates" `Quick test_hot_edge_dominates;
    Alcotest.test_case "sampler collects" `Quick test_sampler_collects;
    Alcotest.test_case "sampler deterministic" `Quick test_sampler_deterministic;
    Alcotest.test_case "sampler seed moves schedule" `Quick test_sampler_seed_moves_schedule;
    Alcotest.test_case "sampler period thins" `Quick test_sampler_period_thins;
    Alcotest.test_case "sampler arcs land on entries" `Quick test_sampler_arcs_land_on_entries;
    Alcotest.test_case "sampler: pinned profile of 505.mcf" `Quick test_sampler_pinned_mcf;
    Alcotest.test_case "pebs period one samples every miss" `Quick
      test_pebs_period_one_samples_every_miss;
    Alcotest.test_case "pebs period beyond miss count" `Quick test_pebs_period_exceeds_misses;
    Alcotest.test_case "pebs period edge" `Quick test_pebs_period_edge;
    Alcotest.test_case "pebs collector deterministic" `Quick test_pebs_collector_deterministic;
    Alcotest.test_case "collector = reference predictor on relink and 505.mcf tapes" `Quick
      test_collector_law;
  ]
