open Testutil

(* Shared mid-sized pipeline run (built once; tests read from it). *)
let fixture =
  lazy
    (let spec, program = medium_program () in
     let env = Buildsys.Driver.make_env () in
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

let test_dcfg_reconstruction () =
  (* Execute a loop and check the DCFG recovers its back edge. *)
  let f = loop_func ~name:"main" () in
  let program = Ir.Program.make ~name:"p" ~main:"main" [ Ir.Cunit.make ~name:"u" [ f ] ] in
  let _, { Linker.Link.binary; _ } = metadata_link program in
  let _, profile = run_with_profile ~requests:400 program binary in
  let dcfg = Propeller.Dcfg.build ~profile ~binary in
  match Hashtbl.find_opt dcfg.funcs "main" with
  | None -> Alcotest.fail "main not in DCFG"
  | Some d ->
    let back_key = Support.Packed.pack ~src:1 ~dst:1 in
    check tb "back edge recovered" true (Support.Itab.mem d.dedges back_key);
    check tb "back edge dominant" true
      (let back = Support.Itab.find d.dedges back_key in
       Support.Itab.fold (fun _ r acc -> acc && r <= back) d.dedges true);
    check tb "samples attributed" true (d.dsamples > 0)

let test_dcfg_block_mapping () =
  let _, program, _, result = Lazy.force (fixture) in
  ignore program;
  let binary = result.metadata_build.binary in
  let dcfg = Propeller.Dcfg.build ~profile:result.profile ~binary in
  (* Every sampled block must map back to a real program block. *)
  Hashtbl.iter
    (fun fname (d : Propeller.Dcfg.dfunc) ->
      match Ir.Program.find_func program fname with
      | None -> Alcotest.failf "unknown function in DCFG: %s" fname
      | Some f ->
        Hashtbl.iter
          (fun bb _ ->
            if bb < 0 || bb >= Ir.Func.num_blocks f then
              Alcotest.failf "bogus block %s#%d" fname bb)
          d.dblocks)
    dcfg.funcs

let test_dcfg_call_arcs () =
  let program = call_program () in
  let _, { Linker.Link.binary; _ } = metadata_link program in
  let _, profile = run_with_profile ~requests:100 program binary in
  let dcfg = Propeller.Dcfg.build ~profile ~binary in
  let arcs = Propeller.Dcfg.func_arcs dcfg in
  check tb "main->callee arc seen" true
    (List.exists (fun (a, b, w) -> a = "main" && b = "callee" && w > 0.0) arcs)

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
    Propeller.Wpa.analyze
      ~config:{ Propeller.Wpa.default_config with mode = Propeller.Wpa.Interproc }
      ~profile:(Propeller.Wpa.Lbr result.profile) ~binary:result.metadata_build.binary ()
  in
  check tb "produced plans" true (wpa.plans <> []);
  List.iter
    (fun (p : Codegen.Directive.func_plan) ->
      let f = Ir.Program.find_func_exn program p.func in
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
    Propeller.Wpa.analyze
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
  let d = Hashtbl.find dcfg.funcs "main" in
  let shapes = Propeller.Dcfg.shapes dcfg [ d ] in
  let { Propeller.Wpa.blocks = order; score; policy } = Propeller.Wpa.block_layout shapes d in
  check ts "default policy reported" "exttsp" policy;
  check tb "entry first" true (List.hd order = 0);
  check tb "positive score" true (score > 0.0);
  check tb "loop body adjacent to entry" true
    (match order with 0 :: 1 :: _ -> true | _ -> false)

(* The layout keys of every hot function of that run, in hot-function
   order. A warm relink reuses a cached layout only when its key
   matches, so a change to how keys are built must leave them as they
   are. *)
let test_pinned_layout_keys () =
  let wpa_config, r = Lazy.force relink0_run in
  let dcfg = Propeller.Dcfg.build ~profile:r.profile ~binary:r.metadata_build.binary in
  let hot = Propeller.Dcfg.hot_funcs dcfg in
  let params_str = Propeller.Wpa.layout_params_str wpa_config in
  let shapes = Propeller.Dcfg.shapes dcfg hot in
  let keys =
    List.map
      (fun d -> Support.Digesting.to_hex (Propeller.Wpa.layout_key ~params_str ~shapes d))
      hot
  in
  check ti "hot functions" 56 (List.length hot);
  check ts "layout keys" "e10feff029f6048e8ea731f8643e280a" (Digest.to_hex (Digest.string (String.concat "\n" keys)))

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
      Exec.Interp.run image
        { Exec.Interp.default_config with requests = spec.requests }
        (Uarch.Core.sink core)
    in
    Uarch.Core.cycles core
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
  let env = Buildsys.Driver.make_env () in
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
          let f = Ir.Program.find_func_exn program p.func in
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
      Exec.Interp.run image
        { Exec.Interp.default_config with requests = spec.requests }
        (Uarch.Core.sink core)
    in
    Uarch.Core.cycles core
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
      lbr = { Propeller.Pipeline.default_config.lbr with Perfmon.Lbr.period = 1 };
      profile_run = { Exec.Interp.default_config with requests };
    }
  in
  match
    Propeller.Pipeline.run_rounds ~rounds:3 ~config ~env:(Buildsys.Driver.make_env ()) ~program
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
    Propeller.Wpa.analyze ~layout_cache:cache ~profile:(Propeller.Wpa.Lbr profile) ~binary ()
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
  let warm_env = Buildsys.Driver.make_env () in
  ignore (build warm_env "inc.v1" warm);
  let incr_b = build warm_env "inc.v2" dirty in
  check tb "incremental relink reuses cached objects" true (incr_b.cache_hits > 0);
  let cold_b = build (Buildsys.Driver.make_env ()) "inc.v2" dirty in
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
       let env = Buildsys.Driver.make_env () in
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
          Buildsys.Driver.make_env ~ctx:(Support.Ctx.create ~pool ()) ()
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
        let env = Buildsys.Driver.make_env ~ctx:(Support.Ctx.create ~pool ()) () in
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
      (Propeller.Wpa.analyze
         ~config:{ Propeller.Wpa.default_config with layout_policy = "nope" }
         ~profile:(Propeller.Wpa.Lbr result.profile) ~binary:result.metadata_build.binary ());
    Alcotest.fail "expected rejection of unknown layout policy"
  with Invalid_argument msg ->
    check tb "error names the registry" true
      (String.length msg > 0 && String.exists (fun c -> c = 'e') msg)

let test_autofdo_synthesis_sane () =
  let _, program, run = Lazy.force sampled_fixture in
  let r = run () in
  let binary = r.Propeller.Pipeline.metadata_build.Buildsys.Driver.binary in
  let samples = Option.get r.samples in
  let p = Propeller.Autofdo.synthesize ~samples ~program ~binary () in
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
  check tb "synthesized call arcs classified" true
    (Hashtbl.length dcfg.Propeller.Dcfg.call_arcs > 0);
  Hashtbl.iter
    (fun _ (f : Propeller.Dcfg.dfunc) ->
      Support.Itab.iter
        (fun _ w -> check tb "dcfg edge weight positive" true (w > 0))
        f.Propeller.Dcfg.dedges)
    dcfg.Propeller.Dcfg.funcs

let test_autofdo_requires_metadata () =
  let _, program, run = Lazy.force sampled_fixture in
  let r = run () in
  let samples = Option.get r.Propeller.Pipeline.samples in
  let env = Buildsys.Driver.make_env () in
  let base = Propeller.Pipeline.baseline_build ~env ~program ~name:"sampled.base" in
  Alcotest.check_raises "synthesize rejects map-less binary"
    (Invalid_argument "Autofdo.synthesize: binary has no .llvm_bb_addr_map")
    (fun () ->
      ignore (Propeller.Autofdo.synthesize ~samples ~program ~binary:base.binary ()))

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
  let clean = Propeller.Wpa.analyze ~profile:(Propeller.Wpa.Lbr profile) ~binary () in
  check ti "no plan, nothing dropped" 0 clean.shards_dropped;
  check ti "no plan, no lost funcs" 0 clean.dropped_hot_funcs;
  (* Lose profile shards at rate 0.5 over 8 shards. *)
  let plan = { Faultsim.Plan.default with shard_drop = 0.5; shards = 8 } in
  let ctx = Support.Ctx.create ~recorder:(Obs.Recorder.create ()) ~faults:plan () in
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

let suite =
  [
    Alcotest.test_case "dcfg: requires metadata" `Quick test_dcfg_requires_metadata;
    Alcotest.test_case "dcfg: loop reconstruction" `Quick test_dcfg_reconstruction;
    Alcotest.test_case "dcfg: block mapping sane" `Quick test_dcfg_block_mapping;
    Alcotest.test_case "dcfg: call arcs" `Quick test_dcfg_call_arcs;
    Alcotest.test_case "dcfg: metadata = disassembly view" `Quick test_dcfg_disasm_view_agrees;
    Alcotest.test_case "wpa: plans valid" `Quick test_wpa_plans_valid;
    Alcotest.test_case "wpa: ordering covers primaries" `Quick test_wpa_ordering_covers_primaries;
    Alcotest.test_case "wpa: interproc plans valid" `Quick test_wpa_interproc_plans_valid;
    Alcotest.test_case "wpa: splitting can be disabled" `Quick test_wpa_split_functions_off;
    Alcotest.test_case "wpa: block layout hot first" `Quick test_wpa_block_layout_hot_first;
    Alcotest.test_case "wpa: pinned layout keys" `Quick test_pinned_layout_keys;
    Alcotest.test_case "pipeline: cold objects cached" `Quick test_pipeline_reuses_cold_objects;
    Alcotest.test_case "pipeline: PM/PO shapes" `Quick test_pipeline_po_binary_shape;
    Alcotest.test_case "pipeline: no perf regression" `Quick test_pipeline_improves_performance;
    Alcotest.test_case "pipeline: phase times" `Quick test_pipeline_phase_times;
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
  ]
