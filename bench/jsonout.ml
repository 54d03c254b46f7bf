(* Machine-readable bench output: one BENCH_*.json per run, stable
   schema (EXPERIMENTS.md "Bench JSON schema"), so successive PRs
   accumulate a perf trajectory and `propeller stat diff` can gate
   regressions in CI. Everything here is a function of the simulated
   run: same seeds, byte-identical file. *)

(* v2: per-benchmark "size" object (hot/cold text, metadata and total
   bytes of the base/pm/po images, from Inspect.Size).
   v3: per-benchmark "parallel" object — the --jobs sweep (measured
   wall-clock, so NOT byte-stable run to run) plus relink-cache hit
   rates. Informational only: Compare's judged allowlist ignores it.
   v4: per-benchmark "resilience" object — a seeded fault-injection
   replay (retry/degradation counts, replay consistency, and the
   degraded=0 => fault-free-digest invariant). Informational only and
   fully deterministic.
   v5: per-benchmark "selfspeed" object — how fast the *optimizer*
   itself runs on this machine: warm relinks/sec, simulated
   requests/sec, allocation per relink. Wall-clock, so NOT byte-stable;
   relinks_per_sec and requests_per_sec are judged by Compare with a
   10x-widened tolerance (ROADMAP item 4's raw-speed trajectory).
   v6: per-benchmark "fleet" object — a quiesced continuous-profiling
   loop over a small simulated fleet: per-cycle cycles-per-request
   trajectory, canary verdicts, and how many relinks the loop needs to
   converge. Simulated clocks only, so fully deterministic.
   Informational only: Compare's judged allowlist ignores it.
   v7: per-benchmark "fidelity" object — the LBR-vs-sampled
   profile-source gap (ISSUE 8): both pipelines over the same workload,
   per-function weight correlation, achieved fall-through rate, Ext-TSP
   score and simulated cycles per source. Fully deterministic.
   Informational only: Compare's judged allowlist ignores it.
   v8: top-level "micro" object — self-timed ns/call of the flat-data
   fast-path kernels (packed-key LBR bump, flat Ext-TSP scoring, batch
   address resolution), so a selfspeed move is attributable to the
   kernel that caused it. Wall-clock, so NOT byte-stable; informational
   only: Compare's judged allowlist ignores it.
   v9: per-benchmark "layout_search" object — the cycle-fitness layout
   policy tournament (ISSUE 10): every registered policy plus mutated
   Ext-TSP variants are relinked and executed through exec+uarch, and
   the object records the winner, its cycles vs the Ext-TSP candidate,
   and the measured Ext-TSP-score-vs-cycles disagreement. Simulated
   clocks only, fully deterministic. Informational only: Compare's
   judged allowlist ignores it.
   v10: drops the wall-clock "selfspeed" and "parallel" objects and
   config.jobs_sweep. relinkbench measures relink and simulation speed
   (scaled for host speed), and scripts/check.sh gates on its smokes.
   v11: drops the per-benchmark "fleet" object; the simulated fleet
   plane is gone, and run_rounds plus the ablation_rounds bench cover
   the paper's one extra profiling round (§4.6). *)
let schema_version = 11

let counters_json (c : Uarch.Core.counters) =
  Obs.Json.Obj
    (List.map (fun (k, v) -> (k, Obs.Json.Int v)) (Uarch.Core.counters_assoc c)
    @ [ ("cycles", Obs.Json.Float c.cycles) ])

(* The canonical fault plan of a benchmark's resilience drill: rates
   high enough that every fault class fires on small programs, seeded
   from the benchmark's own seed so the drill is stable run to run. *)
let fault_plan (spec : Progen.Spec.t) =
  match
    Faultsim.Plan.of_spec
      (Printf.sprintf
         "seed=%d,action=0.2,persist=0.1,straggle=0.1,corrupt=0.15,shard-drop=0.1"
         (Int64.to_int spec.seed land 0xffff))
  with
  | Ok p -> p
  | Error e -> failwith ("Jsonout.fault_plan: " ^ e)

let add_faults (a : Buildsys.Driver.fault_stats) (b : Buildsys.Driver.fault_stats) =
  {
    Buildsys.Driver.injected = a.injected + b.injected;
    retried = a.retried + b.retried;
    degraded = a.degraded + b.degraded;
    fallbacks = a.fallbacks + b.fallbacks;
    corrupt_evicted = a.corrupt_evicted + b.corrupt_evicted;
    stragglers = a.stragglers + b.stragglers;
    speculated = a.speculated + b.speculated;
    backoff_seconds = a.backoff_seconds +. b.backoff_seconds;
  }

(* One pipeline run on a fresh env, optionally under a fault plan. *)
let faulted_run ~config ~program ~(spec : Progen.Spec.t) plan =
  Support.Pool.with_pool ~jobs:1 (fun pool ->
      let recorder = Obs.Recorder.create () in
      let ctx = Support.Ctx.create ~recorder ~pool ?faults:plan () in
      let env = Buildsys.Driver.make_env ~ctx () in
      let r = Propeller.Pipeline.run ~config ~env ~program ~name:spec.name () in
      let digest =
        Support.Digesting.to_hex
          (Linker.Binary.image_digest (Propeller.Pipeline.optimized_binary r))
      in
      (digest, r))

(* The resilience drill: a fault-free reference run, then the same
   input twice under the canonical plan. Everything in the emitted
   object is deterministic (counts and digests, no wall clock), so the
   bench file stays byte-stable. Informational only: Compare's judged
   allowlist ignores it. *)
let resilience_json (spec : Progen.Spec.t) =
  let program = Codegen.Inline.program (Progen.Generate.program spec) in
  let config = Propeller.Pipeline.config_of_spec spec in
  let plan = fault_plan spec in
  let clean_digest, _ = faulted_run ~config ~program ~spec None in
  let d1, r1 = faulted_run ~config ~program ~spec (Some plan) in
  let d2, _ = faulted_run ~config ~program ~spec (Some plan) in
  let f = add_faults r1.metadata_build.faults r1.optimized_build.faults in
  let degraded_total = f.degraded + r1.wpa.dropped_hot_funcs in
  Obs.Json.Obj
    [
      ("plan", Obs.Json.String (Faultsim.Plan.to_spec plan));
      ("injected", Obs.Json.Int (f.injected + r1.wpa.shards_dropped));
      ("retried", Obs.Json.Int f.retried);
      ("degraded", Obs.Json.Int degraded_total);
      ("fallback_objects", Obs.Json.Int f.fallbacks);
      ("cache_corrupt_evicted", Obs.Json.Int f.corrupt_evicted);
      ("stragglers", Obs.Json.Int f.stragglers);
      ("speculated", Obs.Json.Int f.speculated);
      ("shards_dropped", Obs.Json.Int r1.wpa.shards_dropped);
      ("dropped_hot_funcs", Obs.Json.Int r1.wpa.dropped_hot_funcs);
      ("backoff_seconds", Obs.Json.Float f.backoff_seconds);
      ("replay_consistent", Obs.Json.Bool (String.equal d1 d2));
      ("image_digest", Obs.Json.String d1);
      ("fault_free_digest", Obs.Json.String clean_digest);
      ("matches_fault_free", Obs.Json.Bool (String.equal d1 clean_digest));
      ( "degradation_free_invariant_ok",
        Obs.Json.Bool (degraded_total > 0 || String.equal d1 clean_digest) );
    ]

(* The profile-source fidelity gap: how much layout quality hardware
   branch records buy over portable software samples, on this very
   workload. Runs both pipelines (shared metadata build) plus the
   baseline; everything is on simulated clocks, so byte-stable. *)
let fidelity_json ctx (spec : Progen.Spec.t) =
  let program = Progen.Generate.program spec in
  let ctx = { ctx with Support.Ctx.recorder = Obs.Recorder.create () } in
  let fid =
    Diagnostics.Fidelity.analyze
      ~pipeline:(Propeller.Pipeline.config_of_spec spec)
      ~core:(Diagnostics.Measure.core_config spec)
      ~requests:spec.requests ~ctx ~program ~name:spec.name ()
  in
  Diagnostics.Fidelity.to_json fid

(* The layout-policy tournament: a small budget is enough to cover
   every registered policy (round 0) plus two mutation rounds. Seeded,
   simulated clocks only — byte-stable. *)
let layout_search_budget = 14

let layout_search_json ctx (spec : Progen.Spec.t) =
  let program = Progen.Generate.program spec in
  let ctx = { ctx with Support.Ctx.recorder = Obs.Recorder.create () } in
  let res =
    Diagnostics.Lsearch.analyze
      ~pipeline:(Propeller.Pipeline.config_of_spec spec)
      ~core:(Diagnostics.Measure.core_config spec)
      ~requests:spec.requests ~budget:layout_search_budget
      ~seed:(Int64.to_int spec.seed land 0xffff)
      ~ctx ~program ~name:spec.name ()
  in
  Diagnostics.Lsearch.to_json res

let benchmark_json ctx (spec : Progen.Spec.t) =
  let wb = Workbench.get ctx spec in
  let prop_pct = Workbench.improvement_pct wb Workbench.Prop in
  let bolt_ok = wb.bolt.Boltsim.Driver.startup_ok in
  let bolt_pct = if bolt_ok then Some (Workbench.improvement_pct wb Workbench.Bolt) else None in
  let base = (Workbench.measure wb Workbench.Base).counters in
  let prop = (Workbench.measure wb Workbench.Prop).counters in
  let report =
    Diagnostics.Report.analyze ~name:spec.name ~counters:(base, prop) ~result:wb.prop ()
  in
  let size_totals binary = Inspect.Size.totals_json (Inspect.Size.measure binary) in
  let json =
    Obs.Json.Obj
      [
        ("name", Obs.Json.String spec.name);
        ("seed", Obs.Json.Int (Int64.to_int spec.seed));
        ("scale", Obs.Json.Int spec.scale);
        ("requests", Obs.Json.Int spec.requests);
        ("metric", Obs.Json.String (Workbench.metric_name spec));
        ( "speedup_pct",
          Obs.Json.Obj
            [
              ("propeller", Obs.Json.Float prop_pct);
              ( "bolt",
                match bolt_pct with Some p -> Obs.Json.Float p | None -> Obs.Json.Null );
            ] );
        ("bolt_startup_ok", Obs.Json.Bool bolt_ok);
        ("diagnostics", Diagnostics.Report.to_json report);
        ( "size",
          Obs.Json.Obj
            [
              ("base", size_totals wb.base.Buildsys.Driver.binary);
              ("pm", size_totals wb.prop.Propeller.Pipeline.metadata_build.Buildsys.Driver.binary);
              ("po", size_totals (Propeller.Pipeline.optimized_binary wb.prop));
            ] );
        ( "counters",
          Obs.Json.Obj
            [ ("base", counters_json base); ("propeller", counters_json prop) ] );
        ("resilience", resilience_json spec);
        ("fidelity", fidelity_json ctx spec);
        ("layout_search", layout_search_json ctx spec);
      ]
  in
  (json, prop_pct, bolt_pct)

(* Geomean of speedups via ratios: +x% -> 1+x/100, so mixed-sign lists
   stay meaningful. *)
let geomean_pct pcts =
  match pcts with
  | [] -> None
  | _ ->
    let ratios = List.map (fun p -> 1.0 +. (p /. 100.0)) pcts in
    Some ((Support.Stats.geomean ratios -. 1.0) *. 100.0)

let emit ~ctx ~file ~specs ~requests () =
  let specs =
    match requests with
    | None -> specs
    | Some r -> List.map (fun (s : Progen.Spec.t) -> { s with Progen.Spec.requests = r }) specs
  in
  (* The micro kernels time themselves: run them first, on a heap the
     workload rows have not grown yet. *)
  let micro = Micro.json ctx in
  let rows = List.map (benchmark_json ctx) specs in
  let prop_pcts = List.map (fun (_, p, _) -> p) rows in
  let bolt_pcts = List.filter_map (fun (_, _, b) -> b) rows in
  let opt_float = function Some f -> Obs.Json.Float f | None -> Obs.Json.Null in
  let json =
    Obs.Json.Obj
      [
        ("schema_version", Obs.Json.Int schema_version);
        ("tool", Obs.Json.String "propeller-bench");
        ( "config",
          Obs.Json.Obj
            [
              ( "benchmarks",
                Obs.Json.List
                  (List.map (fun (s : Progen.Spec.t) -> Obs.Json.String s.name) specs) );
              ( "requests_override",
                match requests with Some r -> Obs.Json.Int r | None -> Obs.Json.Null );
            ] );
        ("benchmarks", Obs.Json.List (List.map (fun (j, _, _) -> j) rows));
        ("micro", micro);
        ( "summary",
          Obs.Json.Obj
            [
              ("num_benchmarks", Obs.Json.Int (List.length specs));
              ("geomean_speedup_propeller", opt_float (geomean_pct prop_pcts));
              ("geomean_speedup_bolt", opt_float (geomean_pct bolt_pcts));
              ("bolt_crashes", Obs.Json.Int (List.length specs - List.length bolt_pcts));
            ] );
      ]
  in
  let contents = Obs.Json.to_string json in
  (* Round-trip through our own parser before writing, like the trace
     exporter does: a bench file CI cannot re-read is worse than none. *)
  (match Obs.Json.parse contents with
  | Ok _ -> ()
  | Error e -> failwith (Printf.sprintf "Jsonout.emit: emitted invalid JSON: %s" e));
  let oc = open_out file in
  output_string oc contents;
  output_char oc '\n';
  close_out oc;
  Printf.printf "bench json: %d benchmark(s) -> %s\n%!" (List.length specs) file
