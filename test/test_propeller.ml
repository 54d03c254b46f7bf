open Testutil

(* Shared mid-sized pipeline run (built once; tests read from it). *)
let fixture =
  lazy
    (let spec, program = medium_program () in
     let env = Buildsys.Driver.make_env ~ctx:(ctx ()) () in
     let result =
       Propeller.Pipeline.run
         ~config:
           {
             Propeller.Pipeline.default_config with
             profile_run = { Exec.Interp.default_config with requests = spec.requests };
           }
         ~env ~program ~name:"testprog" ()
     in
     (spec, program, env, result))

(* --- Dcfg --------------------------------------------------------- *)

let test_dcfg_requires_metadata () =
  let program = call_program () in
  let _, { Linker.Link.binary; _ } = compile_and_link program in
  let profile = Perfmon.Lbr.create_profile () in
  try
    ignore (Propeller.Dcfg.build ~profile ~binary);
    Alcotest.fail "expected rejection of metadata-less binary"
  with Invalid_argument _ -> ()

let func_named (dcfg : Propeller.Dcfg.t) name =
  Array.find_opt (fun (d : Propeller.Dcfg.dfunc) -> d.name = name) dcfg.funcs

(* A function's intra-function edges as (src bb, dst bb, count). *)
let edge_list (dcfg : Propeller.Dcfg.t) (d : Propeller.Dcfg.dfunc) =
  List.init (d.elast - d.efirst) (fun i ->
      let k = d.efirst + i in
      let key = dcfg.edges.(k) in
      ( (Propeller.Dcfg.block dcfg (Support.Packed.src key)).block,
        (Propeller.Dcfg.block dcfg (Support.Packed.dst key)).block,
        dcfg.edge_counts.(k) ))

let ranks (d : Propeller.Dcfg.dfunc) = List.init (d.last - d.first) (fun i -> d.first + i)

let test_dcfg_reconstruction () =
  (* Execute a loop and check the DCFG recovers its back edge. *)
  let f = loop_func ~name:"main" () in
  let program = Ir.Program.make ~name:"p" ~main:"main" [ Ir.Cunit.make ~name:"u" [ f ] ] in
  let _, { Linker.Link.binary; _ } = metadata_link program in
  let _, profile = run_with_profile ~requests:400 program binary in
  let dcfg = Propeller.Dcfg.build ~profile ~binary in
  match func_named dcfg "main" with
  | None -> Alcotest.fail "main not in DCFG"
  | Some d ->
    let edges = edge_list dcfg d in
    let back = List.fold_left (fun acc (s, t, w) -> if s = 1 && t = 1 then w else acc) 0 edges in
    check tb "back edge recovered" true (back > 0);
    check tb "back edge dominant" true (List.for_all (fun (_, _, w) -> w <= back) edges);
    check tb "samples attributed" true (d.samples > 0)

let test_dcfg_block_mapping () =
  let _, program, _, result = Lazy.force (fixture) in
  let binary = result.metadata_build.binary in
  let dcfg = Propeller.Dcfg.build ~profile:result.profile ~binary in
  (* Every sampled block must map back to a real program block. *)
  Array.iter
    (fun (d : Propeller.Dcfg.dfunc) ->
      match Ir.Program.find_func program d.name with
      | None -> Alcotest.failf "unknown function in DCFG: %s" d.name
      | Some f ->
        List.iter
          (fun r ->
            let bb = (Propeller.Dcfg.block dcfg r).block in
            if Propeller.Dcfg.count dcfg r > 0 && (bb < 0 || bb >= Ir.Func.num_blocks f) then
              Alcotest.failf "bogus block %s#%d" d.name bb)
          (ranks d))
    dcfg.funcs

let test_dcfg_call_arcs () =
  let program = call_program () in
  let _, { Linker.Link.binary; _ } = metadata_link program in
  let _, profile = run_with_profile ~requests:100 program binary in
  let dcfg = Propeller.Dcfg.build ~profile ~binary in
  let seen = ref false in
  Array.iteri
    (fun k key ->
      let caller = Propeller.Dcfg.block dcfg (Support.Packed.src key) in
      let callee = dcfg.funcs.(Support.Packed.dst key) in
      if caller.func = "main" && callee.name = "callee" && dcfg.arc_counts.(k) > 0 then
        seen := true)
    dcfg.arcs;
  check tb "main->callee arc seen" true !seen

let test_dcfg_disasm_view_agrees () =
  let _, program, _, result = Lazy.force (fixture) in
  ignore program;
  let binary = result.metadata_build.binary in
  let via_map = Propeller.Dcfg.build ~profile:result.profile ~binary in
  let via_blocks = Propeller.Dcfg.build_of_blocks ~profile:result.profile ~binary in
  (* Metadata covers exactly what disassembly would recover. *)
  check ti "same sampled blocks" (Propeller.Dcfg.num_blocks via_map)
    (Propeller.Dcfg.num_blocks via_blocks);
  check ti "same edges" (Propeller.Dcfg.num_edges via_map) (Propeller.Dcfg.num_edges via_blocks)

(* --- flat DCFG = hash-table reference ----------------------------- *)

(* A metadata build of [program] and one profiling run collecting LBR
   records and stack samples together, as the pipeline's Phase 3 does
   under either source. *)
let profiled_metadata_build ~requests program =
  let cg, ld = Propeller.Pipeline.metadata_options in
  let objs = Codegen.compile_program ~ctx:(ctx ()) cg program in
  let { Linker.Link.binary; _ } =
    Linker.Link.link ~ctx:(ctx ()) ~options:ld ~name:"law" ~entry:(Ir.Program.main program) objs
  in
  let image = Exec.Image.build program binary in
  let lbr = Perfmon.Lbr.create_profile () and samples = Perfmon.Sampler.create_profile () in
  let c = Perfmon.Lbr.collector_state Perfmon.Lbr.default_config lbr in
  let s = Perfmon.Sampler.collector_state Perfmon.Sampler.default_config samples in
  let (_ : Exec.Interp.stats) =
    Exec.Interp.run ~ctx:(ctx ()) image
      { Exec.Interp.default_config with requests }
      (fun tape ->
        Perfmon.Lbr.consume c tape;
        Perfmon.Sampler.consume s tape)
  in
  (binary, lbr, samples)

let bits x = Int64.bits_of_float x

(* The DCFG as sorted plain data: per sampled function its samples,
   sampled (bb, count) and edges (src, dst, count); then the call arcs
   (caller, caller bb, callee, count). *)
(* The DCFG as plain data, per sampled function: its samples, sampled
   (bb, count), edges (src, dst, count) and every mapped (bb, bytes);
   then the call arcs (caller, caller bb, callee, count) from sampled
   callers, the only ones a layout places. *)
let ref_view (d : Ref_dcfg.t) =
  let hot = Ref_dcfg.hot_funcs d in
  let shapes = Ref_dcfg.shapes d hot in
  ( List.map
      (fun (f : Ref_dcfg.dfunc) ->
        ( f.dname,
          f.dsamples,
          Hashtbl.fold (fun bb (b : Ref_dcfg.mblock) acc -> (bb, b.count) :: acc) f.dblocks []
          |> List.sort compare,
          Array.to_list (Support.Itab.sorted_items f.dedges)
          |> List.map (fun (k, w) -> (Support.Packed.src k, Support.Packed.dst k, w)),
          (Hashtbl.find shapes f.dname).blocks ))
      hot,
    Hashtbl.fold
      (fun (a, bb, b) r acc -> if Hashtbl.mem d.funcs a then (a, bb, b, !r) :: acc else acc)
      d.call_arcs []
    |> List.sort compare )

(* Stored order is checked too: the edges as the flat DCFG keeps them. *)
let flat_view (d : Propeller.Dcfg.t) =
  ( Array.to_list
      (Array.map
         (fun (f : Propeller.Dcfg.dfunc) ->
           ( f.name,
             f.samples,
             List.filter_map
               (fun r ->
                 let c = Propeller.Dcfg.count d r in
                 if c > 0 then Some ((Propeller.Dcfg.block d r).block, c) else None)
               (ranks f),
             edge_list d f,
             List.map
               (fun r ->
                 let b = Propeller.Dcfg.block d r in
                 (b.block, b.size))
               (ranks f) ))
         d.funcs),
    Array.to_list
      (Array.mapi
         (fun k key ->
           let caller = Propeller.Dcfg.block d (Support.Packed.src key) in
           (caller.func, caller.block, d.funcs.(Support.Packed.dst key).name, d.arc_counts.(k)))
         d.arcs)
    |> List.sort compare )

let flat_function_order (d : Propeller.Dcfg.t) =
  Propeller.Dcfg.function_order d (Array.to_list d.funcs)

let flat_interproc ~policy ~params (d : Propeller.Dcfg.t) ~entry_func =
  let r = Propeller.Interproc.layout ~policy ~params ~dcfg:d ~entry_func in
  (r.plans, r.ordering, bits r.score, r.global_nodes)

(* No two entries of a block index share an (owner, bb): the reference
   kept the first-noted block of such a pair, and the flat DCFG has no
   such rule to reproduce. *)
let check_unique_blocks what (idx : Ref_dcfg.index) =
  let keys = Array.map (fun (b : Ref_dcfg.mblock) -> (b.owner, b.bb)) idx.mblocks in
  Array.sort compare keys;
  for i = 1 to Array.length keys - 1 do
    if keys.(i) = keys.(i - 1) then
      Alcotest.failf "%s: (%s, %d) mapped twice" what (fst keys.(i)) (snd keys.(i))
  done

(* Both DCFG builds, both WPA modes and both profile sources of one
   profiled metadata binary against the reference, output for output. *)
let check_flat_law what ~binary ~lbr ~sampled =
  let ref_index = Ref_dcfg.interval_index binary in
  check_unique_blocks (what ^ " address map") ref_index;
  (* The index from the map ranges, entry for entry, ties included;
     each entry names its block's position in [blocks]. *)
  let index = Propeller.Dcfg.interval_index binary in
  check tb (what ^ ": interval index") true
    (Array.map (fun (b : Ref_dcfg.mblock) -> (b.lo, b.msize, b.owner, b.bb)) ref_index.mblocks
    = Array.map
        (fun (b : Propeller.Dcfg.mblock) -> (b.addr, b.size, b.func, b.block))
        index.mblocks);
  let check_positions name (idx : Propeller.Dcfg.index) =
    check tb (name ^ ": index positions") true
      (Array.for_all2 (fun b p -> binary.Linker.Binary.blocks.(p) == b) idx.mblocks idx.positions)
  in
  check_positions what index;
  let ref_of_blocks = Ref_dcfg.build_of_blocks ~profile:lbr ~binary in
  check_unique_blocks (what ^ " placed blocks") ref_of_blocks.block_index;
  let pairs =
    [
      ( "address map",
        Ref_dcfg.build ~profile:lbr ~binary,
        Propeller.Dcfg.build ~profile:lbr ~binary );
      ("placed blocks", ref_of_blocks, Propeller.Dcfg.build_of_blocks ~profile:lbr ~binary);
    ]
  in
  List.iter
    (fun (view, r, f) ->
      let name = Printf.sprintf "%s, %s" what view in
      check_positions name f.Propeller.Dcfg.block_index;
      check tb (name ^ ": dcfg") true (ref_view r = flat_view f);
      check (Alcotest.list ts) (name ^ ": function order")
        (Ref_dcfg.function_order r (Ref_dcfg.hot_funcs r))
        (flat_function_order f);
      (* WPA's Interproc mode below covers the address-map DCFG. *)
      if view = "placed blocks" then begin
        let policy = Option.get (Layout.Policy.find "exttsp") in
        let params = Layout.Policy.default_params in
        let rp = Ref_dcfg.interproc ~policy ~params ~dcfg:r ~entry_func:binary.entry_symbol in
        check tb (name ^ ": interproc") true
          ((rp.iplans, rp.iordering, bits rp.iscore, rp.global_nodes)
          = flat_interproc ~policy ~params f ~entry_func:binary.entry_symbol)
      end)
    pairs;
  (* The Sampled source is synthesized once and analyzed as the LBR
     profile it resolves to. *)
  let inputs =
    ("lbr", lbr)
    ::
    (match sampled with
    | Some (samples, program) ->
      [
        ( "sampled",
          Propeller.Wpa.resolve_profile ~binary
            (Propeller.Wpa.Sampled
               { samples; program; period = Perfmon.Sampler.default_config.period }) );
      ]
    | None -> [])
  in
  List.iter
    (fun (source, profile) ->
      List.iter
        (fun (mode, config) ->
          let name = Printf.sprintf "%s, %s, %s" what source mode in
          let profile = Propeller.Wpa.Lbr profile in
          let ctx = Testutil.ctx () in
          let want = Ref_dcfg.analyze ~config ~pool:ctx.pool ~profile ~binary () in
          let got = Propeller.Wpa.analyze ~config ~ctx ~profile ~binary () in
          check tb (name ^ ": plans") true (want.plans = got.plans);
          check (Alcotest.list ts) (name ^ ": ordering") want.ordering got.ordering;
          check tb (name ^ ": layout score") true (bits want.layout_score = bits got.layout_score);
          check ti (name ^ ": hot funcs") want.hot_funcs got.hot_funcs;
          check ti (name ^ ": dcfg blocks") want.dcfg_blocks got.dcfg_blocks;
          check ti (name ^ ": dcfg edges") want.dcfg_edges got.dcfg_edges;
          check ti (name ^ ": peak mem") want.peak_mem_bytes got.peak_mem_bytes;
          check tb (name ^ ": cpu seconds") true (bits want.cpu_seconds = bits got.cpu_seconds))
        ((if source = "lbr" then
            [ ("intra unsplit", { Propeller.Wpa.default_config with split_functions = false }) ]
          else [])
        @ [
            ("intra", Propeller.Wpa.default_config);
            ("interproc", { Propeller.Wpa.default_config with mode = Propeller.Wpa.Interproc });
          ]))
    inputs

let test_flat_law_relink_family () =
  let requests = Progen.Suite.clang.requests / 16 in
  for k = 0 to 11 do
    let program = relink_family_program k in
    let binary, lbr, samples = profiled_metadata_build ~requests program in
    check_flat_law (Printf.sprintf "relink %d" k) ~binary ~lbr ~sampled:(Some (samples, program))
  done

let test_flat_law_mcf () =
  let program =
    Codegen.Inline.program (Progen.Generate.program (Option.get (Progen.Suite.by_name "505.mcf")))
  in
  let binary, lbr, samples = profiled_metadata_build ~requests:40 program in
  check_flat_law "505.mcf" ~binary ~lbr ~sampled:(Some (samples, program))

(* Round 2 of [run_rounds] profiles an image laid out by round 1: a
   function's primary and .cold clusters (and, through the placed
   blocks, its other clusters) sit apart in address order. *)
let test_flat_law_round_two () =
  let program = Progen.Generate.program (Option.get (Progen.Suite.by_name "505.mcf")) in
  let config =
    {
      Propeller.Pipeline.default_config with
      profile_run = { Exec.Interp.default_config with requests = 40 };
    }
  in
  match
    Propeller.Pipeline.run_rounds ~rounds:2 ~config
      ~env:(Buildsys.Driver.make_env ~ctx:(ctx ()) ()) ~program
      ~name:"law" ()
  with
  | [ _; r2 ] ->
    let binary = r2.metadata_build.binary in
    let idx = Ref_dcfg.interval_index binary in
    let runs = ref 0 in
    Array.iteri
      (fun i (b : Ref_dcfg.mblock) ->
        if i = 0 || not (String.equal b.owner idx.mblocks.(i - 1).owner) then incr runs)
      idx.mblocks;
    let owners =
      List.length
        (List.sort_uniq compare
           (Array.to_list (Array.map (fun (b : Ref_dcfg.mblock) -> b.owner) idx.mblocks)))
    in
    check tb "some function is not contiguous in address order" true (!runs > owners);
    check_flat_law "505.mcf round 2" ~binary ~lbr:r2.profile ~sampled:None
  | rs -> Alcotest.failf "expected 2 rounds, got %d" (List.length rs)

let flat_law_qcheck =
  QCheck.Test.make ~count:6 ~name:"dcfg: flat = hash-table reference on random programs"
    Test_properties.program_arb (fun p ->
      let program = Test_properties.make_program p in
      let binary, lbr, samples = profiled_metadata_build ~requests:30 program in
      check_flat_law "qcheck" ~binary ~lbr ~sampled:(Some (samples, program));
      true)

(* --- WPA ---------------------------------------------------------- *)

let test_wpa_plans_valid () =
  let _, program, _, result = Lazy.force (fixture) in
  List.iter
    (fun (p : Codegen.Directive.func_plan) ->
      match Ir.Program.find_func program p.func with
      | None -> Alcotest.failf "plan for unknown function %s" p.func
      | Some f -> (
        match Codegen.Directive.validate ~num_blocks:(Ir.Func.num_blocks f) p with
        | Ok () -> ()
        | Error e -> Alcotest.fail e))
    result.wpa.plans

let test_wpa_ordering_covers_primaries () =
  let _, _, _, result = Lazy.force (fixture) in
  List.iter
    (fun (p : Codegen.Directive.func_plan) ->
      check tb "primary listed" true (List.mem p.func result.wpa.ordering))
    result.wpa.plans;
  (* Cold symbols trail the hot primaries. *)
  let first_cold = List.find_index Objfile.Symname.is_cold result.wpa.ordering in
  let last_hot =
    List.mapi (fun i s -> (i, s)) result.wpa.ordering
    |> List.filter (fun (_, s) -> not (Objfile.Symname.is_cold s))
    |> List.fold_left (fun acc (i, _) -> max acc i) (-1)
  in
  match first_cold with
  | Some fc -> check tb "cold after hot" true (fc > last_hot)
  | None -> ()

let test_wpa_interproc_plans_valid () =
  let _, program, _, result = Lazy.force (fixture) in
  let wpa =
    Propeller.Wpa.analyze ~ctx:(ctx ())
      ~config:{ Propeller.Wpa.default_config with mode = Propeller.Wpa.Interproc }
      ~profile:(Propeller.Wpa.Lbr result.profile) ~binary:result.metadata_build.binary ()
  in
  check tb "produced plans" true (wpa.plans <> []);
  List.iter
    (fun (p : Codegen.Directive.func_plan) ->
      let f = Option.get (Ir.Program.find_func program p.func) in
      match Codegen.Directive.validate ~num_blocks:(Ir.Func.num_blocks f) p with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)
    wpa.plans;
  (* Interproc mode may split functions into >2 clusters. *)
  let max_clusters =
    List.fold_left
      (fun acc (p : Codegen.Directive.func_plan) -> max acc (List.length p.clusters))
      0 wpa.plans
  in
  check tb "some function split across clusters" true (max_clusters >= 2)

let test_wpa_split_functions_off () =
  let _, _, _, result = Lazy.force (fixture) in
  let wpa =
    Propeller.Wpa.analyze ~ctx:(ctx ())
      ~config:{ Propeller.Wpa.default_config with split_functions = false }
      ~profile:(Propeller.Wpa.Lbr result.profile) ~binary:result.metadata_build.binary ()
  in
  check tb "no cold symbols in ordering" true
    (not (List.exists Objfile.Symname.is_cold wpa.ordering))

let test_wpa_block_layout_hot_first () =
  let f = loop_func ~name:"main" () in
  let program = Ir.Program.make ~name:"p" ~main:"main" [ Ir.Cunit.make ~name:"u" [ f ] ] in
  let _, { Linker.Link.binary; _ } = metadata_link program in
  let _, profile = run_with_profile ~requests:300 program binary in
  let dcfg = Propeller.Dcfg.build ~profile ~binary in
  let d = Option.get (func_named dcfg "main") in
  let order = Propeller.Wpa.block_layout dcfg d in
  check tb "entry first" true (List.hd order = 0);
  check tb "loop body adjacent to entry" true
    (match order with 0 :: 1 :: _ -> true | _ -> false);
  (* The order's Ext-TSP score over the profiled edges is positive. *)
  let pos = List.mapi (fun i bb -> (bb, i)) order in
  let size bb =
    let r = List.find (fun r -> (Propeller.Dcfg.block dcfg r).block = bb) (ranks d) in
    (Propeller.Dcfg.block dcfg r).size
  in
  let edges =
    List.filter_map
      (fun (s, t, w) ->
        match (List.assoc_opt s pos, List.assoc_opt t pos) with
        | Some a, Some b -> Some (a, b, float_of_int w)
        | _ -> None)
      (edge_list dcfg d)
  in
  let n = List.length order in
  let problem =
    problem_of_edges
      ~sizes:(Array.of_list (List.map size order))
      ~weights:(Array.make n 0.0) ~edges ~entry:0
  in
  check tb "positive score" true (Layout.Exttsp.score ~order:(List.init n Fun.id) problem > 0.0)

(* The layout keys of every hot function of that run, in hot-function
   order. A warm relink reuses a cached layout only when its key
   matches, so a change to how keys are built must leave them as they
   are. *)
let test_pinned_layout_keys () =
  let wpa_config, r = Lazy.force relink0_run in
  let dcfg = Propeller.Dcfg.build ~profile:r.profile ~binary:r.metadata_build.binary in
  let hot = Array.to_list dcfg.funcs in
  let params_str = Propeller.Wpa.layout_params_str wpa_config in
  let keys =
    List.map (fun d -> Support.Digesting.to_hex (Propeller.Wpa.layout_key ~params_str dcfg d)) hot
  in
  check ti "hot functions" 56 (List.length hot);
  check ts "layout keys" "e10feff029f6048e8ea731f8643e280a" (Digest.to_hex (Digest.string (String.concat "\n" keys)))

(* The function order of every sampled function of relink programs
   0-3, one MD5 per program. The hash-table laws above send both sides
   through [Layout.Problem.make], so they cannot tell whether the
   producers hand it the same edges; these pins can. *)
let test_pinned_function_order () =
  let requests = Progen.Suite.clang.requests / 16 in
  let digests =
    List.init 4 (fun k ->
        let binary, lbr, _ = profiled_metadata_build ~requests (relink_family_program k) in
        let order = flat_function_order (Propeller.Dcfg.build ~profile:lbr ~binary) in
        Digest.to_hex (Digest.string (String.concat "\n" order)))
  in
  check (Alcotest.list ts) "function orders"
    [
      "7e3d4bda4559f498fe50b9bd6db21dda";
      "29670487b6d2a1080a8e73ec1e9118ce";
      "f8434875ea416c0783687b3c25b39129";
      "7b7fad74142a65ae4f3a4b660f40da31";
    ]
    digests

(* The interprocedural layout of relink program 0 and of 505.mcf: the
   MD5 of its plans text and ordering, and its score's bits. *)
let test_pinned_interproc () =
  let policy = Option.get (Layout.Policy.find "exttsp") in
  let pin (r : Propeller.Pipeline.result) =
    let l =
      Propeller.Interproc.layout ~policy ~params:Layout.Policy.default_params ~dcfg:(run_dcfg r)
        ~entry_func:r.metadata_build.binary.entry_symbol
    in
    let text = String.concat "\n" (Codegen.Directive.to_text l.plans :: l.ordering) in
    (Digest.to_hex (Digest.string text), Printf.sprintf "%Lx" (bits l.score))
  in
  let pair = Alcotest.(pair string string) in
  check pair "relink 0"
    ("f74d629a8f796690f0b80677c560b8a3", "40d56ba12b333333")
    (pin (snd (Lazy.force relink0_run)));
  check pair "505.mcf"
    ("a066f8792c36ff35e060a150912fc22b", "40e47b4377d70a3e")
    (pin (Lazy.force mcf_run))

(* --- Pipeline ------------------------------------------------------ *)

let test_pipeline_reuses_cold_objects () =
  let _, _, _, result = Lazy.force (fixture) in
  check tb "some objects hot" true (result.hot_objects > 0);
  check tb "most objects cached" true (result.hot_objects < result.total_objects);
  check ti "phase 4 recompiles only hot objects" result.hot_objects
    result.optimized_build.cache_misses

let test_pipeline_po_binary_shape () =
  let _, _, _, result = Lazy.force (fixture) in
  let po = Propeller.Pipeline.optimized_binary result in
  let pm = result.metadata_build.binary in
  check ti "metadata dropped from PO" 0 (Linker.Binary.size_of_kind po Objfile.Section.Bb_addr_map);
  check tb "PM carries metadata" true
    (Linker.Binary.size_of_kind pm Objfile.Section.Bb_addr_map > 0);
  check tb "PO has cold symbols" true
    (Hashtbl.fold (fun s _ acc -> acc || Objfile.Symname.is_cold s) po.symbols false)

let test_pipeline_improves_performance () =
  let spec, program, env, result = Lazy.force (fixture) in
  let base = Propeller.Pipeline.baseline_build ~env ~program ~name:"testprog.base" in
  let cycles binary =
    let image = Exec.Image.build program binary in
    let core = Uarch.Core.create Uarch.Core.default_config in
    let (_ : Exec.Interp.stats) =
      Exec.Interp.run ~ctx:(ctx ()) image
        { Exec.Interp.default_config with requests = spec.requests }
        (Uarch.Core.consume core)
    in
    (Uarch.Core.counters core).cycles
  in
  let b = cycles base.binary and p = cycles (Propeller.Pipeline.optimized_binary result) in
  check tb "propeller does not regress the cycle model" true (p <= b *. 1.005)

let test_pipeline_phase_times () =
  let _, _, _, result = Lazy.force (fixture) in
  (* Wall time (makespan) is bounded by the longest unit either way; the
     robust claim is about total compute: Phase 4 re-runs only the hot
     backends. *)
  check tb "phase 4 uses less total compute than phase 2" true
    (result.optimized_build.codegen_report.cpu_seconds
    < result.metadata_build.codegen_report.cpu_seconds);
  check tb "conversion time positive" true (result.times.conversion_s > 0.0)

let test_run_rounds () =
  let spec, program = medium_program ~seed:31L () in
  let env = Buildsys.Driver.make_env ~ctx:(ctx ()) () in
  let rounds =
    Propeller.Pipeline.run_rounds ~rounds:2
      ~config:
        {
          Propeller.Pipeline.default_config with
          profile_run = { Exec.Interp.default_config with requests = spec.requests };
        }
      ~env ~program ~name:"rr" ()
  in
  check ti "two rounds" 2 (List.length rounds);
  let r1 = List.nth rounds 0 and r2 = List.nth rounds 1 in
  (* Round 2's metadata binary already uses round 1's layout: its hot
     primaries lead its text. *)
  check tb "round 2 profiled an optimized layout" true
    (r2.metadata_build.binary != r1.metadata_build.binary);
  List.iter
    (fun (r : Propeller.Pipeline.result) ->
      List.iter
        (fun (p : Codegen.Directive.func_plan) ->
          let f = Option.get (Ir.Program.find_func program p.func) in
          match Codegen.Directive.validate ~num_blocks:(Ir.Func.num_blocks f) p with
          | Ok () -> ()
          | Error e -> Alcotest.fail e)
        r.wpa.plans)
    rounds;
  (* Round 2 must not regress round 1 on the cycle model. *)
  let cycles (r : Propeller.Pipeline.result) =
    let image = Exec.Image.build program (Propeller.Pipeline.optimized_binary r) in
    let core = Uarch.Core.create Uarch.Core.default_config in
    let (_ : Exec.Interp.stats) =
      Exec.Interp.run ~ctx:(ctx ()) image
        { Exec.Interp.default_config with requests = spec.requests }
        (Uarch.Core.consume core)
    in
    (Uarch.Core.counters core).cycles
  in
  check tb "round 2 at least as good" true (cycles r2 <= cycles r1 *. 1.01)

(* Paper §4.6's extra profiling round settles the global function order:
   on 505.mcf with every taken branch sampled, round 3 orders functions
   exactly as round 2 did. Only the order is pinned. A few function
   plans keep moving every round, so the image digest does not repeat
   (EXPERIMENTS.md, "Iterated profiling"). *)
let test_run_rounds_ordering_settles () =
  let requests = 60 in
  let program =
    Progen.Generate.program
      { (Option.get (Progen.Suite.by_name "505.mcf")) with Progen.Spec.requests }
  in
  let config =
    {
      Propeller.Pipeline.default_config with
      lbr = { Perfmon.Lbr.period = 1 };
      profile_run = { Exec.Interp.default_config with requests };
    }
  in
  match
    Propeller.Pipeline.run_rounds ~rounds:3 ~config
      ~env:(Buildsys.Driver.make_env ~ctx:(ctx ()) ()) ~program
      ~name:"mcf" ()
  with
  | [ _; r2; r3 ] ->
    check Alcotest.(list string) "round 3 ordering = round 2" r2.wpa.ordering r3.wpa.ordering
  | rs -> Alcotest.failf "expected 3 rounds, got %d" (List.length rs)

(* --- Incremental relink cache -------------------------------------- *)

let test_incremental_layout_cache () =
  let _, program = medium_program ~seed:23L () in
  let _, { Linker.Link.binary; _ } = metadata_link program in
  let _, profile = run_with_profile ~requests:40 program binary in
  let cache = Buildsys.Cache.create () in
  let analyze () =
    Propeller.Wpa.analyze ~ctx:(ctx ())
      ~layout_cache:cache ~profile:(Propeller.Wpa.Lbr profile) ~binary ()
  in
  let cold = analyze () in
  check ti "cold run misses every hot function" cold.hot_funcs cold.layout_cache_misses;
  check ti "cold run has no hits" 0 cold.layout_cache_hits;
  let warm = analyze () in
  check ti "warm run all hits" warm.hot_funcs warm.layout_cache_hits;
  check ti "warm run no misses" 0 warm.layout_cache_misses;
  check tb "warm plans identical" true (warm.plans = cold.plans);
  check tb "warm ordering identical" true (warm.ordering = cold.ordering);
  check tb "warm score identical" true (warm.layout_score = cold.layout_score);
  (* Perturb exactly one function's profile: find a branch whose source
     and destination both land in the same hot function and bump its
     count. Only that function's layout key may change. *)
  let hot_names =
    List.map (fun (p : Codegen.Directive.func_plan) -> p.func) cold.plans
  in
  let owner addr =
    match Linker.Binary.find_block_by_addr binary addr with
    | Some b -> Some b.Linker.Binary.func
    | None -> None
  in
  let victim_branch =
    Support.Itab.fold
      (fun key _ acc ->
        match acc with
        | Some _ -> acc
        | None -> (
          let s = Support.Packed.src key and d = Support.Packed.dst key in
          match owner s, owner d with
          | Some fs, Some fd when String.equal fs fd && List.mem fs hot_names ->
            Some (s, d, fs)
          | _ -> None))
      profile.Perfmon.Lbr.branches None
  in
  let s, d, victim = Option.get victim_branch in
  Perfmon.Lbr.add_pair profile.branches ~src:s ~dst:d 1000;
  let dirty = analyze () in
  check ti "same hot set" cold.hot_funcs dirty.hot_funcs;
  check ti "exactly the dirtied function misses" 1 dirty.layout_cache_misses;
  check ti "everything else hits" (cold.hot_funcs - 1) dirty.layout_cache_hits;
  check tb "victim still planned" true
    (List.exists (fun (p : Codegen.Directive.func_plan) -> String.equal p.func victim) dirty.plans);
  (* Warm incremental relink = cold full relink, byte for byte. *)
  let build env name (wpa : Propeller.Wpa.result) =
    Buildsys.Driver.build env ~name ~program
      ~codegen_options:{ Codegen.default_options with emit_bb_addr_map = true; plans = wpa.plans }
      ~link_options:{ Linker.Link.default_options with ordering = Some wpa.ordering }
  in
  let warm_env = Buildsys.Driver.make_env ~ctx:(ctx ()) () in
  ignore (build warm_env "inc.v1" warm);
  let incr_b = build warm_env "inc.v2" dirty in
  check tb "incremental relink reuses cached objects" true (incr_b.cache_hits > 0);
  let cold_b = build (Buildsys.Driver.make_env ~ctx:(ctx ()) ()) "inc.v2" dirty in
  check tb "incremental image = cold relink image" true
    (Support.Digesting.equal
       (Linker.Binary.image_digest incr_b.binary)
       (Linker.Binary.image_digest cold_b.binary))

(* --- Sampled profile source (ISSUE 8) ----------------------------- *)

(* One shared Sampled-source run on the same mid-sized program. *)
let sampled_fixture =
  lazy
    (let spec, program = medium_program () in
     let run () =
       let env = Buildsys.Driver.make_env ~ctx:(ctx ()) () in
       Propeller.Pipeline.run
         ~config:
           {
             Propeller.Pipeline.default_config with
             profile_run = { Exec.Interp.default_config with requests = spec.requests };
             profile_source = Perfmon.Source.Sampled;
           }
         ~env ~program ~name:"sampledprog" ()
     in
     (spec, program, run))

let test_sampled_pipeline_shape () =
  let _, _, run = Lazy.force sampled_fixture in
  let r = run () in
  check tb "source is Sampled" true (r.Propeller.Pipeline.source = Perfmon.Source.Sampled);
  (match r.samples with
  | Some s -> check tb "raw samples kept" true (s.Perfmon.Sampler.num_samples > 0)
  | None -> Alcotest.fail "sampled run must expose raw samples");
  check tb "synthesis produced records" true (r.profile.Perfmon.Lbr.num_records > 0);
  (* The synthesized profile carries no branch-direction fidelity bits. *)
  check ti "no mispredict table" 0 (Support.Itab.length r.profile.Perfmon.Lbr.mispredicts);
  Support.Itab.iter
    (fun _ w -> check tb "branch weight positive" true (w > 0))
    r.profile.Perfmon.Lbr.branches;
  Support.Itab.iter
    (fun _ w -> check tb "range weight positive" true (w > 0))
    r.profile.Perfmon.Lbr.ranges

let test_sampled_pipeline_deterministic () =
  let _, _, run = Lazy.force sampled_fixture in
  let d1 = Linker.Binary.image_digest (Propeller.Pipeline.optimized_binary (run ())) in
  let d2 = Linker.Binary.image_digest (Propeller.Pipeline.optimized_binary (run ())) in
  check tb "sampled relink byte-identical across runs" true (Support.Digesting.equal d1 d2)

let test_sampled_jobs_invariance () =
  let spec, program, _ = Lazy.force sampled_fixture in
  let run jobs =
    Support.Pool.with_pool ~jobs (fun pool ->
        let env =
          Buildsys.Driver.make_env ~ctx:(ctx ~pool ()) ()
        in
        let r =
          Propeller.Pipeline.run
            ~config:
              {
                Propeller.Pipeline.default_config with
                profile_run = { Exec.Interp.default_config with requests = spec.requests };
                profile_source = Perfmon.Source.Sampled;
              }
            ~env ~program ~name:"sampledprog" ()
        in
        Linker.Binary.image_digest (Propeller.Pipeline.optimized_binary r))
  in
  check tb "sampled digest identical for jobs 1/4" true
    (Support.Digesting.equal (run 1) (run 4))

(* --- layout policies (ISSUE 10) ----------------------------------- *)

(* Non-default policies must stay deterministic through the full relink:
   the same seed and program give a byte-identical image at any
   parallelism. local-search is the interesting case — its RNG must be
   derived from the policy seed, never from worker identity. *)
let test_policy_jobs_invariance () =
  let spec, program = medium_program () in
  let digest policy jobs =
    Support.Pool.with_pool ~jobs (fun pool ->
        let env = Buildsys.Driver.make_env ~ctx:(ctx ~pool ()) () in
        let r =
          Propeller.Pipeline.run
            ~config:
              {
                Propeller.Pipeline.default_config with
                profile_run = { Exec.Interp.default_config with requests = spec.requests };
                wpa = { Propeller.Wpa.default_config with layout_policy = policy };
              }
            ~env ~program ~name:("pol." ^ policy) ()
        in
        Linker.Binary.image_digest (Propeller.Pipeline.optimized_binary r))
  in
  List.iter
    (fun policy ->
      check tb (policy ^ " digest identical for jobs 1/4") true
        (Support.Digesting.equal (digest policy 1) (digest policy 4)))
    [ "exttsp-linear"; "local-search" ]

let test_policy_unknown_rejected () =
  let _, _, _, result = Lazy.force (fixture) in
  try
    ignore
      (Propeller.Wpa.analyze ~ctx:(ctx ())
         ~config:{ Propeller.Wpa.default_config with layout_policy = "nope" }
         ~profile:(Propeller.Wpa.Lbr result.profile) ~binary:result.metadata_build.binary ());
    Alcotest.fail "expected rejection of unknown layout policy"
  with Invalid_argument msg ->
    check tb "error names the registry" true
      (String.length msg > 0 && String.exists (fun c -> c = 'e') msg)

(* The sampling period of the default sampler, which every sampled
   profile here is collected with. *)
let period = Perfmon.Sampler.default_config.Perfmon.Sampler.period

let test_autofdo_synthesis_sane () =
  let _, program, run = Lazy.force sampled_fixture in
  let r = run () in
  let binary = r.Propeller.Pipeline.metadata_build.Buildsys.Driver.binary in
  let samples = Option.get r.samples in
  let p = Propeller.Autofdo.synthesize ~period ~samples ~program ~binary in
  (* num_records equals the total emitted weight mass. *)
  let mass =
    Support.Itab.fold (fun _ w acc -> acc + w) p.Perfmon.Lbr.branches 0
    + Support.Itab.fold (fun _ w acc -> acc + w) p.Perfmon.Lbr.ranges 0
  in
  check ti "num_records = emitted mass" mass p.Perfmon.Lbr.num_records;
  check ti "num_samples preserved" samples.Perfmon.Sampler.num_samples
    p.Perfmon.Lbr.num_samples;
  (* The synthesized branches must be consumable by Dcfg: call arcs land
     on function entries and are classified as calls. *)
  let dcfg = Propeller.Dcfg.build ~profile:p ~binary in
  check tb "synthesized call arcs classified" true (Array.length dcfg.arcs > 0);
  Array.iter (fun w -> check tb "dcfg edge weight positive" true (w > 0)) dcfg.edge_counts

(* MD5 of a synthesized profile: every table's items by key, then the
   totals. Items, not slot order: synthesis adds the sampler's call arcs
   in its [Hashtbl]'s order, which a randomized hash seed changes. *)
let profile_digest (p : Perfmon.Lbr.profile) =
  let b = Buffer.create 65536 in
  List.iter
    (fun tbl ->
      Array.iter (fun (k, v) -> Printf.bprintf b "%d:%d " k v) (Support.Itab.sorted_items tbl);
      Buffer.add_char b '\n')
    [ p.branches; p.ranges; p.mispredicts ];
  Printf.bprintf b "%d %d" p.num_samples p.num_records;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The Sampled source's synthesized profiles of relink programs 0 and
   1 and of 505.mcf, item for item. Any change
   to how synthesis maps blocks must reproduce them exactly. *)
let test_autofdo_pinned () =
  let mcf =
    Codegen.Inline.program (Progen.Generate.program (Option.get (Progen.Suite.by_name "505.mcf")))
  in
  let requests = Progen.Suite.clang.requests / 16 in
  let got =
    List.map
      (fun (what, program, requests) ->
        let binary, _, samples = profiled_metadata_build ~requests program in
        Printf.sprintf "%s %s" what
          (profile_digest (Propeller.Autofdo.synthesize ~period ~samples ~program ~binary)))
      [
        ("relink 0", relink_family_program 0, requests);
        ("relink 1", relink_family_program 1, requests);
        ("505.mcf", mcf, 40);
      ]
  in
  check (Alcotest.list ts) "synthesized profiles"
    [
      "relink 0 e1275042ab191dfc9a45efe9c80d17d1";
      "relink 1 f6a398cf54f5c5e137d7a451fe2e77bd";
      "505.mcf ab58fecf636c6d4851a5d1053594aeb1";
    ]
    got

let test_autofdo_requires_metadata () =
  let _, program, run = Lazy.force sampled_fixture in
  let r = run () in
  let samples = Option.get r.Propeller.Pipeline.samples in
  let env = Buildsys.Driver.make_env ~ctx:(ctx ()) () in
  let base = Propeller.Pipeline.baseline_build ~env ~program ~name:"sampled.base" in
  Alcotest.check_raises "synthesize rejects map-less binary"
    (Invalid_argument "Autofdo.synthesize: binary has no .llvm_bb_addr_map")
    (fun () ->
      ignore (Propeller.Autofdo.synthesize ~period ~samples ~program ~binary:base.binary))

let test_wpa_resource_model () =
  let _, _, _, result = Lazy.force (fixture) in
  check tb "peak mem positive" true (result.wpa.peak_mem_bytes > 0);
  check tb "dcfg counted" true (result.wpa.dcfg_blocks > 0 && result.wpa.dcfg_edges > 0);
  check tb "hot funcs counted" true (result.wpa.hot_funcs > 0)

(* --- Fault injection: dropped profile shards (ISSUE 5) ------------ *)

let test_wpa_shard_drop_accounting () =
  let _, program = medium_program () in
  let _, { Linker.Link.binary; _ } = metadata_link program in
  let _, profile = run_with_profile ~requests:100 program binary in
  let clean = Propeller.Wpa.analyze ~ctx:(ctx ()) ~profile:(Propeller.Wpa.Lbr profile) ~binary () in
  check ti "no plan, nothing dropped" 0 clean.shards_dropped;
  check ti "no plan, no lost funcs" 0 clean.dropped_hot_funcs;
  (* Lose profile shards at rate 0.5 over 8 shards. *)
  let plan = { no_faults with shard_drop = 0.5; shards = 8 } in
  let ctx = ctx ~faults:plan () in
  let faulted = Propeller.Wpa.analyze ~ctx ~profile:(Propeller.Wpa.Lbr profile) ~binary () in
  check ti "dropped shards reported"
    (List.length (Faultsim.Plan.dropped_shards plan))
    faulted.shards_dropped;
  (* Hot functions in dropped shards keep the baseline layout and are
     accounted one-for-one against the clean analysis. *)
  check ti "lost hot funcs accounted" (clean.hot_funcs - faulted.hot_funcs)
    faulted.dropped_hot_funcs;
  check tb "analysis still completes" true
    (faulted.hot_funcs + faulted.dropped_hot_funcs = clean.hot_funcs);
  (* No surviving plan names a function whose shard was dropped. *)
  List.iter
    (fun (p : Codegen.Directive.func_plan) ->
      check tb p.func false
        (Faultsim.Plan.shard_dropped plan ~shard:(Faultsim.Plan.shard_of plan ~key:p.func)))
    faulted.plans;
  (* Same plan, same drops: the degradation replays deterministically. *)
  let again = Propeller.Wpa.analyze ~ctx ~profile:(Propeller.Wpa.Lbr profile) ~binary () in
  check ti "replayed drops identical" faulted.shards_dropped again.shards_dropped;
  check ti "replayed losses identical" faulted.dropped_hot_funcs again.dropped_hot_funcs;
  check tb "replayed ordering identical" true (faulted.ordering = again.ordering)

(* --- Builds carry no state ------------------------------------------ *)

(* What a pipeline run decided and built: its unit keys under the
   metadata and the optimize options, every object digest of both
   builds, the WPA plans and ordering, and both image digests. *)
let run_fingerprint program (r : Propeller.Pipeline.result) =
  let hex = Support.Digesting.to_hex in
  let meta, _ = Propeller.Pipeline.metadata_options in
  let opt, _ = Propeller.Pipeline.optimize_options ~hugepages:relink_config.hugepages r.wpa in
  let keys options =
    String.concat ","
      (List.map
         (fun u -> hex (Buildsys.Driver.unit_action_key u options))
         (Ir.Program.units program))
  in
  let objs (b : Buildsys.Driver.result) =
    String.concat "," (List.map (fun (o : Objfile.File.t) -> hex o.digest) b.objs)
  in
  [
    ("metadata unit keys", keys meta);
    ("optimize unit keys", keys opt);
    ("metadata objects", objs r.metadata_build);
    ("optimized objects", objs r.optimized_build);
    ("plans", Codegen.Directive.to_text r.wpa.plans);
    ("ordering", String.concat "," r.wpa.ordering);
    ("metadata image", hex (Linker.Binary.image_digest r.metadata_build.binary));
    ("optimized image", hex (Linker.Binary.image_digest (Propeller.Pipeline.optimized_binary r)));
  ]

(* Builds carry no state: pipeline A, then B, then A again in the same
   env, then A regenerated in a fresh env, at --jobs 1 and 2, all key,
   plan and build exactly what A's first run did. *)
let test_builds_carry_no_state () =
  let a = snd (medium_program ()) and b = relink_family_program 1 in
  let run env program =
    run_fingerprint program
      (Propeller.Pipeline.run ~config:relink_config ~env ~program ~name:"law" ())
  in
  let first = ref None in
  let same label got =
    match !first with
    | None -> first := Some got
    | Some want -> List.iter2 (fun (what, w) (_, g) -> check ts (label ^ ": " ^ what) w g) want got
  in
  List.iter
    (fun jobs ->
      Support.Pool.with_pool ~jobs (fun pool ->
          let make_env () = Buildsys.Driver.make_env ~ctx:(ctx ~pool ()) () in
          let env = make_env () in
          let label s = Printf.sprintf "jobs %d, %s" jobs s in
          same (label "A") (run env a);
          ignore (run env b);
          same (label "A after B") (run env a);
          let a' = snd (medium_program ()) in
          same (label "A in a fresh env") (run (make_env ()) a')))
    [ 1; 2 ]

(* A build keeps nothing once its env is dropped. Relink-family
   programs 0-5 each run one pipeline in an env of their own, dropped
   after the run; past the first run, which leaves what a process keeps
   by design (each domain's spare link arrays, sized to the largest link
   so far), the compacted live heap stays within [bound] words. *)
let test_retained_heap () =
  let run k =
    let env =
      Buildsys.Driver.make_env ~ctx:(ctx ()) ()
    in
    ignore
      (Propeller.Pipeline.run ~config:relink_config ~env ~program:(relink_family_program k)
         ~name:"heap" ()
        : Propeller.Pipeline.result)
  in
  let live_words () =
    Gc.compact ();
    (Gc.stat ()).live_words
  in
  run 0;
  let base = live_words () in
  for k = 1 to 5 do
    run k
  done;
  let grown = live_words () - base in
  (* Measured on 64-bit OCaml 5.1: these five runs retained 0.04 Mw;
     when process-global memos kept every function and object built,
     they retained 7.06 Mw, about 1.4 Mw a program. *)
  let bound = 1_000_000 in
  check tb (Printf.sprintf "retained %d words over 5 runs (bound %d)" grown bound) true
    (grown < bound)

let suite =
  [
    Alcotest.test_case "dcfg: requires metadata" `Quick test_dcfg_requires_metadata;
    Alcotest.test_case "dcfg: loop reconstruction" `Quick test_dcfg_reconstruction;
    Alcotest.test_case "dcfg: block mapping sane" `Quick test_dcfg_block_mapping;
    Alcotest.test_case "dcfg: call arcs" `Quick test_dcfg_call_arcs;
    Alcotest.test_case "dcfg: metadata = disassembly view" `Quick test_dcfg_disasm_view_agrees;
    Alcotest.test_case "dcfg: flat = hash-table reference, relink programs 0-11" `Slow
      test_flat_law_relink_family;
    Alcotest.test_case "dcfg: flat = hash-table reference, 505.mcf" `Quick test_flat_law_mcf;
    Alcotest.test_case "dcfg: flat = hash-table reference, round-2 image" `Quick
      test_flat_law_round_two;
    QCheck_alcotest.to_alcotest flat_law_qcheck;
    Alcotest.test_case "wpa: plans valid" `Quick test_wpa_plans_valid;
    Alcotest.test_case "wpa: ordering covers primaries" `Quick test_wpa_ordering_covers_primaries;
    Alcotest.test_case "wpa: interproc plans valid" `Quick test_wpa_interproc_plans_valid;
    Alcotest.test_case "wpa: splitting can be disabled" `Quick test_wpa_split_functions_off;
    Alcotest.test_case "wpa: block layout hot first" `Quick test_wpa_block_layout_hot_first;
    Alcotest.test_case "wpa: pinned layout keys" `Quick test_pinned_layout_keys;
    Alcotest.test_case "dcfg: pinned function orders" `Quick test_pinned_function_order;
    Alcotest.test_case "interproc: pinned layouts" `Quick test_pinned_interproc;
    Alcotest.test_case "pipeline: cold objects cached" `Quick test_pipeline_reuses_cold_objects;
    Alcotest.test_case "pipeline: PM/PO shapes" `Quick test_pipeline_po_binary_shape;
    Alcotest.test_case "pipeline: no perf regression" `Quick test_pipeline_improves_performance;
    Alcotest.test_case "pipeline: phase times" `Quick test_pipeline_phase_times;
    Alcotest.test_case "pipeline: builds carry no state" `Quick test_builds_carry_no_state;
    Alcotest.test_case "pipeline: dropped envs retain no heap" `Quick test_retained_heap;
    Alcotest.test_case "wpa: incremental layout cache" `Quick test_incremental_layout_cache;
    Alcotest.test_case "wpa: resource model" `Quick test_wpa_resource_model;
    Alcotest.test_case "pipeline: multi-round" `Slow test_run_rounds;
    Alcotest.test_case "pipeline: extra round settles the ordering" `Slow
      test_run_rounds_ordering_settles;
    Alcotest.test_case "wpa: shard-drop accounting" `Quick test_wpa_shard_drop_accounting;
    Alcotest.test_case "sampled: pipeline shape" `Quick test_sampled_pipeline_shape;
    Alcotest.test_case "sampled: deterministic relink" `Quick test_sampled_pipeline_deterministic;
    Alcotest.test_case "sampled: jobs invariance" `Quick test_sampled_jobs_invariance;
    Alcotest.test_case "policy: jobs invariance" `Slow test_policy_jobs_invariance;
    Alcotest.test_case "policy: unknown rejected" `Quick test_policy_unknown_rejected;
    Alcotest.test_case "autofdo: synthesis sane" `Quick test_autofdo_synthesis_sane;
    Alcotest.test_case "autofdo: requires metadata" `Quick test_autofdo_requires_metadata;
    Alcotest.test_case "autofdo: pinned synthesized profiles" `Quick test_autofdo_pinned;
  ]
