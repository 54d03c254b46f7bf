(* propeller: the relinking optimizer's one command-line tool.

     propeller run -b 505.mcf -r 40          end-to-end relink + measurement
     propeller run -b clang --json           the same run as a diagnostics report
     propeller wpa -b clang --cc-out cc_prof.txt --ld-out ld_prof.txt
     propeller bolt -b clang --lite          the monolithic post-link baseline
     propeller fleet --machines 4 --cycles 3 --seed 7
     propeller stat {diff,top,fidelity,search} ...
     propeller inspect {annotate,size,paths,diff,validate} ... *)

open Cmdliner

(* --- run ------------------------------------------------------------ *)

(* One-line resilience summary of a pipeline run's fault accounting
   (its metadata and optimized builds summed), followed by the flight
   ring when the run degraded: the events leading up to a degradation
   are what a postmortem wants, and the dump is deterministic under
   replay. Printed only when a plan was armed, so fault-free output
   stays unchanged. *)
let report_faults recorder (r : Propeller.Pipeline.result) =
  let a = r.metadata_build.faults and b = r.optimized_build.faults in
  let degraded = a.degraded + b.degraded in
  Printf.printf
    "resilience: %d injected (%d retried, %d cache-corrupt, %d stragglers/%d speculated, %d \
     shards dropped), %d degraded (%d fallback objects, %d hot funcs on baseline layout)\n"
    (a.injected + b.injected + r.wpa.shards_dropped)
    (a.retried + b.retried) (a.corrupt_evicted + b.corrupt_evicted)
    (a.stragglers + b.stragglers) (a.speculated + b.speculated) r.wpa.shards_dropped
    (degraded + r.wpa.dropped_hot_funcs)
    (a.fallbacks + b.fallbacks) r.wpa.dropped_hot_funcs;
  if degraded > 0 then print_string (Obs.Recorder.flight_dump recorder)

(* Build, relink and measure baseline and Propeller images of one
   benchmark. Progress lines go to stdout unless --json asks for the
   diagnostics report there instead; --json / -o emit the report. *)
let run benchmark requests profile_source layout_policy interproc no_split hugepages prefetch
    verbose metrics json out (common : Cli.common) =
  let ctx = Cli.context common in
  let recorder = ctx.Support.Ctx.recorder in
  Cli.with_flight_guard recorder @@ fun () ->
  let spec = Cli.lookup_spec ~benchmark ~requests in
  let say fmt = if json then Printf.ifprintf stdout fmt else Printf.printf fmt in
  say "generating %s (scale %d:1)...\n%!" spec.name spec.scale;
  let program = Progen.Generate.program spec in
  say "  %d funcs, %d blocks, %d code bytes\n%!" (Ir.Program.num_funcs program)
    (Ir.Program.num_blocks program) (Ir.Program.code_bytes program);
  let env = Buildsys.Driver.make_env ~ctx () in
  let base = Propeller.Pipeline.baseline_build ~env ~program ~name:spec.name in
  let config =
    {
      (Propeller.Pipeline.config_of_spec spec) with
      hugepages = hugepages || spec.hugepages;
      prefetch;
      profile_source;
      wpa =
        {
          Propeller.Wpa.default_config with
          mode = (if interproc then Propeller.Wpa.Interproc else Propeller.Wpa.Intra);
          layout_policy;
          split_functions = not no_split;
        };
    }
  in
  let result = Propeller.Pipeline.run ~config ~env ~program ~name:spec.name () in
  say "phase 2 (metadata build): %.1fs wall\n" result.times.metadata_build_s;
  say "phase 3 (profile + WPA, source %s): %d samples, %d hot funcs, %.1fs, peak %.2f GB\n"
    (Perfmon.Source.to_string result.source) result.profile.num_samples result.wpa.hot_funcs
    result.times.conversion_s
    (float_of_int result.wpa.peak_mem_bytes /. 1.0e9);
  Option.iter
    (fun sw ->
      say "  software sampler: %d samples, %d frames, %d distinct leaf PCs\n"
        sw.Perfmon.Sampler.num_samples sw.Perfmon.Sampler.num_frames
        (Perfmon.Sampler.distinct_leaves sw))
    result.samples;
  say "phase 4 (relink): %d/%d objects re-generated, %.1fs wall\n" result.hot_objects
    result.total_objects result.times.optimize_build_s;
  say "layout cache: %d hits, %d misses (jobs=%d)\n" result.wpa.layout_cache_hits
    result.wpa.layout_cache_misses
    (Support.Pool.jobs (Buildsys.Driver.pool env));
  say "image digest: %s\n"
    (Support.Digesting.to_hex
       (Linker.Binary.image_digest (Propeller.Pipeline.optimized_binary result)));
  if Support.Ctx.faults_active ctx && not json then report_faults recorder result;
  Option.iter
    (fun (p : Propeller.Prefetch.result) ->
      say "prefetch (3.5): %d insertion sites covering %d/%d sampled misses\n"
        (List.length p.sites) p.covered_misses p.sampled_misses)
    result.prefetch;
  if verbose then begin
    print_endline "--- cc_prof.txt ---";
    print_string (Codegen.Directive.to_text result.wpa.plans);
    print_endline "--- ld_prof.txt ---";
    List.iter print_endline result.wpa.ordering
  end;
  let core = { (Diagnostics.Measure.core_config spec) with hugepages = config.hugepages } in
  let measure name binary =
    snd
      (Diagnostics.Measure.run ~publish:name ~ctx ~core ~requests:spec.requests program binary)
  in
  let cb = measure "base" base.binary in
  let cp = measure "propeller" (Propeller.Pipeline.optimized_binary result) in
  say "performance: baseline %.3e cycles -> propeller %.3e cycles (%+.2f%%)\n" cb.cycles
    cp.cycles
    ((cb.cycles -. cp.cycles) /. cb.cycles *. 100.0);
  let pct get = Support.Stats.ratio_pct (float_of_int (get cp)) (float_of_int (get cb)) in
  say "counters vs baseline: L1i %+.0f%%  iTLB %+.0f%%  taken-branches %+.0f%%\n"
    (pct (fun c -> c.Uarch.Core.i1_l1i_miss))
    (pct (fun c -> c.Uarch.Core.t1_itlb_miss))
    (pct (fun c -> c.Uarch.Core.b2_taken_branches));
  if json || out <> None then begin
    let report = Diagnostics.Report.analyze ~name:spec.name ~counters:(cb, cp) ~result () in
    Diagnostics.Report.publish ~ctx report;
    Cli.emit ~label:"diagnostics" ~json ~out
      ~to_json:(fun () -> Diagnostics.Report.to_json report)
      ~to_text:(fun () -> Diagnostics.Report.to_text report)
  end;
  if metrics then print_string (Obs.Recorder.metrics_report recorder);
  Cli.export recorder common

let run_cmd =
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run the full Propeller pipeline on a benchmark and report sizes, phase costs and \
          simulated performance, or (with $(b,--json) / $(b,-o)) the diagnostics report.")
    Term.(
      const run $ Cli.benchmark_term $ Cli.requests_term $ Cli.profile_source_term
      $ Cli.layout_policy_term
      $ Cli.flag [ "interproc" ] "Inter-procedural layout (paper 4.7)."
      $ Cli.flag [ "no-split" ] "Disable hot/cold splitting."
      $ Cli.flag [ "hugepages" ] "Map text with 2M pages."
      $ Cli.flag [ "prefetch" ] "Software prefetch insertion (paper 3.5)."
      $ Cli.flag [ "v"; "verbose" ] "Dump cc_prof/ld_prof."
      $ Cli.flag [ "metrics" ] "Print the metrics report (counters/gauges/histograms)."
      $ Cli.json_term $ Cli.out_term $ Cli.common_term)

(* --- wpa ------------------------------------------------------------ *)

(* The standalone whole-program-analysis tool (the paper's [29],
   create_llvm_prof): build the metadata binary, profile it under load,
   run Phase 3 and write the two directive files Phase 4 consumes. *)
let wpa benchmark requests cc_out ld_out =
  let spec = Cli.lookup_spec ~benchmark ~requests in
  let program = Progen.Generate.program spec in
  let env = Buildsys.Driver.make_env () in
  let cg, ld = Propeller.Pipeline.metadata_options in
  let pm =
    Buildsys.Driver.build env ~name:(spec.name ^ ".pm") ~program ~codegen_options:cg
      ~link_options:ld
  in
  Printf.printf "metadata binary: %d bytes (%d bytes of bb_addr_map)\n%!"
    (Linker.Binary.total_size pm.binary)
    (Linker.Binary.size_of_kind pm.binary Objfile.Section.Bb_addr_map);
  let profile = Cli.lbr_profile ~requests:spec.requests program pm.binary in
  Printf.printf "profile: %d samples, %d records, ~%d raw bytes\n%!" profile.num_samples
    profile.num_records
    (Perfmon.Lbr.raw_bytes Perfmon.Lbr.default_config profile);
  let wpa = Propeller.Wpa.analyze ~profile:(Propeller.Wpa.Lbr profile) ~binary:pm.binary () in
  Printf.printf "WPA: %d hot funcs, DCFG %d blocks / %d edges, score %.1f\n%!" wpa.hot_funcs
    wpa.dcfg_blocks wpa.dcfg_edges wpa.layout_score;
  List.iter
    (fun (file, contents) ->
      Cli.write_file file contents;
      Printf.printf "wrote %s\n%!" file)
    [
      (cc_out, Codegen.Directive.to_text wpa.plans);
      (ld_out, Linker.Orderfile.to_text wpa.ordering);
    ]

let wpa_cmd =
  Cmd.v
    (Cmd.info "wpa" ~doc:"Standalone whole program analysis (Phase 3).")
    Term.(
      const wpa $ Cli.benchmark_term $ Cli.requests_term
      $ Arg.(value & opt string "cc_prof.txt" & info [ "cc-out" ] ~doc:"Directives file.")
      $ Arg.(value & opt string "ld_prof.txt" & info [ "ld-out" ] ~doc:"Ordering file."))

(* --- bolt ----------------------------------------------------------- *)

(* The BOLT-style monolithic post-link optimizer on one benchmark: its
   conversion and rewrite costs, and whether the result starts. *)
let bolt benchmark requests lite =
  let spec = Cli.lookup_spec ~benchmark ~requests in
  let program = Progen.Generate.program spec in
  let env = Buildsys.Driver.make_env () in
  let bm =
    Buildsys.Driver.build env ~name:(spec.name ^ ".bm") ~program
      ~codegen_options:Codegen.default_options
      ~link_options:{ Linker.Link.default_options with emit_relocs = true }
  in
  Printf.printf "BM binary (with relocations): %d bytes\n%!" (Linker.Binary.total_size bm.binary);
  let profile = Cli.lbr_profile ~requests:spec.requests program bm.binary in
  let is_asm f =
    match Ir.Program.find_func program f with
    | Some fn -> fn.Ir.Func.attrs.has_inline_asm
    | None -> false
  in
  let hazards =
    { Boltsim.Driver.rseq = spec.hazards.has_rseq; fips_check = spec.hazards.has_fips_check }
  in
  let options = if lite then Boltsim.Driver.fast_options else Boltsim.Driver.perf_options in
  let r =
    Boltsim.Driver.optimize ~options ~profile ~binary:bm.binary ~is_asm ~hazards ~name:spec.name
      ()
  in
  Printf.printf "perf2bolt: %.1fs, peak %.2f GB (modelled)\n" r.conversion_seconds
    (float_of_int r.conversion_mem_bytes /. 1.0e9);
  Printf.printf "llvm-bolt: %.1fs, peak %.2f GB; rewrote %d funcs, skipped %d\n"
    r.optimize_seconds
    (float_of_int r.optimize_mem_bytes /. 1.0e9)
    r.rewritten_funcs r.skipped_funcs;
  Printf.printf "BO binary: %d bytes (%.0f%% of BM)\n"
    (Linker.Binary.total_size r.binary)
    (100.0
    *. float_of_int (Linker.Binary.total_size r.binary)
    /. float_of_int (Linker.Binary.total_size bm.binary));
  if r.startup_ok then print_endline "startup: OK"
  else print_endline "startup: CRASH (rseq/FIPS integrity checks, paper 5.8)"

let bolt_cmd =
  Cmd.v
    (Cmd.info "bolt" ~doc:"Monolithic post-link optimizer baseline.")
    Term.(
      const bolt $ Cli.benchmark_term $ Cli.requests_term
      $ Cli.flag [ "lite" ] "Lightning-BOLT selective processing.")

(* --- fleet ---------------------------------------------------------- *)

(* The continuous profiling loop over a simulated machine fleet (paper
   §2, Fig 1). Everything runs on simulated clocks: the same flags
   produce byte-identical reports at any --jobs width. *)
let fleet benchmark requests profile_source machines cycles canary fleet_requests jitter
    lbr_period window decay threshold sabotage_cycle json json_out (common : Cli.common) =
  let ctx = Cli.context common in
  let recorder = ctx.Support.Ctx.recorder in
  Cli.with_flight_guard recorder @@ fun () ->
  let spec = Cli.lookup_spec ~benchmark ~requests in
  let config =
    {
      Fleet.Rollout.default_config with
      machines;
      cycles;
      canary;
      requests = Option.value fleet_requests ~default:spec.requests;
      jitter_pct = jitter;
      lbr = { Fleet.Rollout.default_config.lbr with Perfmon.Lbr.period = lbr_period };
      profile_source;
      seed = Option.value common.seed ~default:Fleet.Rollout.default_config.seed;
      window;
      decay;
      threshold_pct = threshold;
      sabotage_cycle;
      core = Diagnostics.Measure.core_config spec;
    }
  in
  if not json then
    Printf.printf "fleet loop on %s: %d machines, %d cycles...\n%!" spec.name machines cycles;
  let program = Progen.Generate.program spec in
  let result = Fleet.Rollout.run ~config ~ctx ~program ~name:spec.name () in
  (* A rollback is a caught degradation: surface the flight recorder's
     verdict trail the same way fault drills do. *)
  if result.rollbacks > 0 && not json then begin
    prerr_endline "rollback occurred; flight recorder dump follows:";
    prerr_string (Obs.Recorder.flight_dump recorder)
  end;
  let rendered_json = Cli.json_string (Fleet.Rollout.to_json result) in
  print_string (if json then rendered_json else Fleet.Rollout.report result);
  Option.iter
    (fun file ->
      Cli.write_file file rendered_json;
      if not json then Printf.printf "fleet report: %s (valid JSON)\n" file)
    json_out;
  Cli.export recorder common

let fleet_cmd =
  Cmd.v
    (Cmd.info "fleet"
       ~doc:
         "Run the continuous profile/relink/canary loop on a simulated fleet and report its \
          health: sharded aggregation, canary-judged relinks.")
    Term.(
      const fleet $ Cli.benchmark_term $ Cli.requests_term $ Cli.profile_source_term
      $ Cli.opt Arg.int 4 [ "machines" ] "N" "Fleet size (at least 2)."
      $ Cli.opt Arg.int 3 [ "cycles" ] "K" "Optimization cycles to run."
      $ Cli.opt Arg.int 1 [ "canary" ] "N"
          "Canary slice size for candidate pushes (clamped to machines - 1)."
      $ Cli.opt Arg.(some int) None [ "fleet-requests" ] "R"
          "Mean requests per machine per serve round (default: the benchmark's request \
           count). Per-round traffic jitters deterministically around this mean."
      $ Cli.opt Arg.float 0.2 [ "jitter" ] "F"
          "Traffic spread around the per-round request mean, as a fraction in [0,1]."
      $ Cli.opt Arg.int 13 [ "lbr-period" ] "N"
          "Taken branches between LBR samples on the fleet tier. Production fleets sample \
           sparsely per machine and recover density by merging shards; the simulated fleet \
           defaults denser so per-round profiles are stable."
      $ Cli.opt Arg.int 4 [ "window" ] "ROUNDS" "Profile aggregation window, in serve rounds."
      $ Cli.opt Arg.float 0.5 [ "decay" ] "F" "Per-round decay of older profile shards, in [0,1]."
      $ Cli.opt Arg.float 5.0 [ "threshold" ] "PCT" "Canary-vs-control regression threshold."
      $ Cli.opt Arg.(some int) None [ "sabotage-cycle" ] "C"
          "Deploy a deliberately pathological candidate at cycle $(docv) — the \
           stale-profile drill; the canary judge must catch it and roll back."
      $ Cli.flag [ "json" ] "Print the fleet report as JSON instead of text."
      $ Cli.opt Arg.(some string) None [ "json-out" ] "FILE"
          "Also write the JSON fleet report to $(docv)."
      $ Cli.common_term)

(* --- stat ----------------------------------------------------------- *)

let stat_diff baseline_file current_file threshold quiet =
  let baseline = Cli.read_json "baseline" baseline_file in
  let current = Cli.read_json "current" current_file in
  match Diagnostics.Compare.compare ~threshold_pct:threshold ~baseline ~current () with
  | Error e ->
    Printf.eprintf "diff error: %s\n" e;
    exit 2
  | Ok outcome ->
    if not quiet then begin
      (* Verdict lines are the machine-parseable product and stay on
         stdout; NOTE/informational lines (schema skew, gained metrics)
         go to stderr so piped stdout parses line by line. *)
      print_string (Diagnostics.Compare.render_verdicts outcome);
      prerr_string (Diagnostics.Compare.render_notes outcome)
    end;
    if Diagnostics.Compare.ok outcome then
      Printf.printf "OK: %d judged metrics within %.1f%% of baseline\n"
        (List.length outcome.verdicts) threshold
    else begin
      Printf.printf "FAIL: %d regression(s), %d missing metric(s) (threshold %.1f%%)\n"
        (List.length (Diagnostics.Compare.regressions outcome))
        (List.length outcome.missing) threshold;
      exit 1
    end

(* Rank the tool's own hotspots: where does *our* host time and
   allocation go while optimizing a benchmark? Reads a saved
   --self-profile-out JSON when given, otherwise runs the pipeline with
   self-profiling on and ranks that run. *)
let stat_top from benchmark requests jobs limit folded =
  match from with
  | Some file -> (
    match Obs.Selfprof.rows_of_json (Cli.read_json "self-profile" file) with
    | Error e ->
      Printf.eprintf "self-profile %s: %s\n" file e;
      exit 2
    | Ok rows ->
      if folded then
        print_string
          (Obs.Folded.to_string
             (List.map
                (fun (r : Obs.Selfprof.row) -> (r.path, Obs.Folded.micros r.self_host_s))
                rows))
      else
        print_string
          (Obs.Selfprof.render_hotspots (Obs.Selfprof.hotspots_of_rows ~limit rows)))
  | None ->
    let ctx = Cli.context { Cli.defaults with jobs; self_profile = true } in
    let recorder = ctx.Support.Ctx.recorder in
    let spec = Cli.lookup_spec ~benchmark ~requests in
    Printf.printf "profiling ourselves on %s...\n%!" spec.name;
    let program = Progen.Generate.program spec in
    let env = Buildsys.Driver.make_env ~ctx () in
    let (_ : Propeller.Pipeline.result) =
      Propeller.Pipeline.run ~config:(Propeller.Pipeline.config_of_spec spec) ~env ~program
        ~name:spec.name ()
    in
    if folded then print_string (Obs.Selfprof.folded (Obs.Recorder.selfprof recorder))
    else begin
      print_endline "self-profile hotspots (host time, coordinator domain):";
      print_string
        (Obs.Selfprof.render_hotspots
           (Obs.Selfprof.hotspots ~limit (Obs.Recorder.selfprof recorder)))
    end

(* The LBR-vs-sampled gap experiment: both pipelines over one workload,
   one shared baseline, the deltas as one record. *)
let stat_fidelity benchmark requests jobs seed faults json out =
  let ctx = Cli.context { Cli.defaults with jobs; seed; faults } in
  Cli.with_flight_guard ctx.Support.Ctx.recorder @@ fun () ->
  let spec = Cli.lookup_spec ~benchmark ~requests in
  if not json then Printf.printf "measuring profile-source fidelity on %s...\n%!" spec.name;
  let fid =
    Diagnostics.Fidelity.analyze ~pipeline:(Propeller.Pipeline.config_of_spec spec)
      ~core:(Diagnostics.Measure.core_config spec) ~requests:spec.requests ~ctx
      ~program:(Progen.Generate.program spec) ~name:spec.name ()
  in
  Cli.emit ~label:"fidelity" ~json ~out
    ~to_json:(fun () -> Diagnostics.Fidelity.to_json fid)
    ~to_text:(fun () -> Diagnostics.Fidelity.to_text fid)

(* The cycle-fitness layout-policy tournament: candidates are relinked
   and executed through exec+uarch, fitness is simulated cycles, and the
   report quantifies where the Ext-TSP objective and the machine
   disagree. *)
let stat_search benchmark requests budget seed jobs json out trace metrics_out =
  let common = { Cli.defaults with jobs; trace; metrics_out } in
  let ctx = Cli.context common in
  Cli.with_flight_guard ctx.Support.Ctx.recorder @@ fun () ->
  let spec = Cli.lookup_spec ~benchmark ~requests in
  if not json then
    Printf.printf "searching layout policies on %s (budget %d)...\n%!" spec.name budget;
  let res =
    Diagnostics.Lsearch.analyze ~pipeline:(Propeller.Pipeline.config_of_spec spec)
      ~core:(Diagnostics.Measure.core_config spec) ~requests:spec.requests ~budget ~seed ~ctx
      ~program:(Progen.Generate.program spec) ~name:spec.name ()
  in
  Cli.emit ~label:"search" ~json ~out
    ~to_json:(fun () -> Diagnostics.Lsearch.to_json res)
    ~to_text:(fun () -> Diagnostics.Lsearch.to_text res);
  Cli.export ctx.Support.Ctx.recorder common

let stat_cmd =
  let file_pos n docv doc = Arg.(required & pos n (some file) None & info [] ~docv ~doc) in
  let diff_cmd =
    Cmd.v
      (Cmd.info "diff"
         ~doc:
           "Diff two bench JSON files; exit 1 when a judged metric regresses past the \
            threshold or goes missing.")
      Term.(
        const stat_diff
        $ file_pos 0 "BASELINE" "Baseline bench JSON."
        $ file_pos 1 "CURRENT" "Current bench JSON."
        $ Cli.opt Arg.float 5.0 [ "t"; "threshold" ] "PCT"
            "Regression threshold in percent (relative, floored at 1.0 absolute)."
        $ Cli.flag [ "q"; "quiet" ] "Only print the final verdict.")
  in
  let top_cmd =
    Cmd.v
      (Cmd.info "top"
         ~doc:
           "Rank the optimizer's own hotspots: host seconds and allocation per span path, \
            from a saved self-profile or a fresh self-profiled run.")
      Term.(
        const stat_top
        $ Cli.opt Arg.(some file) None [ "from" ] "FILE"
            "Rank a saved $(b,--self-profile-out) JSON instead of running the pipeline."
        $ Cli.benchmark_term $ Cli.requests_term $ Cli.jobs_term
        $ Cli.opt Arg.int 10 [ "n"; "limit" ] "N" "Rows in the hotspot table."
        $ Cli.flag [ "folded" ]
            "Print flamegraph-compatible folded stacks (one $(b,path weight) line per span \
             path, weight in self microseconds) instead of the table.")
  in
  let fidelity_cmd =
    Cmd.v
      (Cmd.info "fidelity"
         ~doc:
           "Measure the LBR-vs-sampled profile fidelity gap on one benchmark: weight \
            correlation, achieved fall-through rate, Ext-TSP score and final simulated \
            cycles under each profile source.")
      Term.(
        const stat_fidelity $ Cli.benchmark_term $ Cli.requests_term $ Cli.jobs_term
        $ Cli.seed_term $ Cli.faults_term $ Cli.json_term $ Cli.out_term)
  in
  let search_cmd =
    Cmd.v
      (Cmd.info "search"
         ~doc:
           "Tournament-search layout policies with simulated cycles as fitness: each \
            candidate is relinked and executed through the uarch model, and the report \
            quantifies the Ext-TSP-score-vs-cycles gap.")
      Term.(
        const stat_search $ Cli.benchmark_term $ Cli.requests_term
        $ Cli.opt Arg.int 12 [ "budget" ] "N"
            "Evaluation budget: how many candidate layouts are relinked and executed."
        $ Cli.opt Arg.int 1 [ "search-seed" ] "N"
            "Tournament seed; the same budget and seed reproduce the same winner."
        $ Cli.jobs_term $ Cli.json_term $ Cli.out_term $ Cli.trace_term
        $ Cli.metrics_out_term)
  in
  Cmd.group
    (Cmd.info "stat" ~doc:"Profile-quality diagnostics and bench regression comparison.")
    [ diff_cmd; top_cmd; fidelity_cmd; search_cmd ]

let cmd =
  Cmd.group
    (Cmd.info "propeller" ~doc:"Profile guided, relinking optimizer")
    [ run_cmd; wpa_cmd; bolt_cmd; fleet_cmd; stat_cmd; Inspect_cmd.cmd ]

let () = exit (Cmd.eval cmd)
