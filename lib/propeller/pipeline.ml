type config = {
  wpa : Wpa.config;
  lbr : Perfmon.Lbr.config;
  profile_run : Exec.Interp.config;
  hugepages : bool;
  prefetch : bool;  (** Enable §3.5 software prefetch insertion. *)
  pebs : Perfmon.Pebs.config;
  profile_source : Perfmon.Source.t;
  sampler : Perfmon.Sampler.config;
}

let default_config =
  {
    wpa = Wpa.default_config;
    lbr = Perfmon.Lbr.default_config;
    profile_run = Exec.Interp.default_config;
    hugepages = false;
    prefetch = false;
    pebs = Perfmon.Pebs.default_config;
    profile_source = Perfmon.Source.Lbr;
    sampler = Perfmon.Sampler.default_config;
  }

let config_of_spec (spec : Progen.Spec.t) =
  {
    default_config with
    profile_run = { Exec.Interp.default_config with requests = spec.requests };
    hugepages = spec.hugepages;
  }

type phase_times = {
  metadata_build_s : float;
  profiling_s : float;
  conversion_s : float;
  optimize_build_s : float;
}

type result = {
  metadata_build : Buildsys.Driver.result;
  source : Perfmon.Source.t;
  profile : Perfmon.Lbr.profile;
  samples : Perfmon.Sampler.profile option;
  wpa : Wpa.result;
  prefetch : Prefetch.result option;
  optimized_build : Buildsys.Driver.result;
  times : phase_times;
  hot_objects : int;
  total_objects : int;
}

let optimized_binary r = r.optimized_build.binary

let metadata_options =
  ( { Codegen.default_options with emit_bb_addr_map = true; pgo_layout = true },
    { Linker.Link.default_options with keep_bb_addr_map = true } )

let optimize_options ?(hugepages = false) (wpa : Wpa.result) =
  ( { Codegen.default_options with emit_bb_addr_map = true; plans = wpa.plans },
    {
      Linker.Link.default_options with
      keep_bb_addr_map = false;
      ordering = Some wpa.ordering;
      text_align = (if hugepages then 2 * 1024 * 1024 else 4096);
    } )

let baseline_build ~env ~program ~name =
  Buildsys.Driver.build env ~name
    ~program
    ~codegen_options:{ Codegen.default_options with emit_bb_addr_map = false; pgo_layout = true }
    ~link_options:Linker.Link.default_options

(* The modelled load-test duration: production profiling runs for a
   fixed wall-clock window regardless of binary (Table 5 'Profile'). *)
let profiling_window_seconds = 8.0 *. 60.0

(* One optimization round. [prev] carries the previous round's analysis
   so that round N profiles a binary already laid out by round N-1 (the
   "additional round of hardware profiling" of paper 4.6). *)
let run_round ?(config = default_config) ~env ~program ~name ~round ~prev () =
  let rec_ = Buildsys.Driver.recorder env in
  Obs.Recorder.with_span rec_ (Printf.sprintf "round:%d" round) @@ fun () ->
  let cg_meta, ld_meta = metadata_options in
  let cg_meta, ld_meta =
    match prev with
    | None -> (cg_meta, ld_meta)
    | Some (w : Wpa.result) ->
      ( { cg_meta with Codegen.plans = w.plans },
        { ld_meta with Linker.Link.ordering = Some w.ordering } )
  in
  let metadata_build =
    Obs.Recorder.with_span rec_ "phase:metadata_build" @@ fun () ->
    let b =
      Buildsys.Driver.build env
        ~name:(Printf.sprintf "%s.pm%d" name round)
        ~program ~codegen_options:cg_meta ~link_options:ld_meta
    in
    Obs.Recorder.span_args rec_
      [
        ("text_bytes", Obs.Trace.Int (Linker.Binary.text_bytes b.binary));
        ("cache_hits", Obs.Trace.Int b.cache_hits);
        ("cache_misses", Obs.Trace.Int b.cache_misses);
      ];
    b
  in
  (* Phase 3: profile the metadata binary under load. Under the Lbr
     source the hardware branch records drive the layout directly; under
     Sampled a software stack sampler observes the same run and its flat
     profile is synthesized into LBR shape (Autofdo) before WPA. PEBS
     miss samples drive prefetch insertion when enabled, either way. *)
  let profile, samples, pebs_profile =
    Obs.Recorder.with_span rec_ "phase:profiling" @@ fun () ->
    let image = Exec.Image.build program metadata_build.binary in
    let lbr_profile = Perfmon.Lbr.create_profile () in
    let sampled = Perfmon.Sampler.create_profile () in
    let pebs_profile = Perfmon.Pebs.create_profile () in
    (* Hot consumers drain the flat event tape directly; the software
       sampler keeps its closure sink behind the replay adapter. LBR and
       PEBS observe disjoint event kinds, so sequential drains see
       exactly what one sink feeding both would. *)
    let drain =
      let pebs_c =
        if config.prefetch then Some (Perfmon.Pebs.collector_state config.pebs pebs_profile)
        else None
      in
      let drain_pebs tape =
        match pebs_c with Some c -> Perfmon.Pebs.consume c tape | None -> ()
      in
      match config.profile_source with
      | Perfmon.Source.Lbr ->
        let c = Perfmon.Lbr.collector_state config.lbr lbr_profile in
        fun tape ->
          Perfmon.Lbr.consume c tape;
          drain_pebs tape
      | Perfmon.Source.Sampled ->
        let sink = Perfmon.Sampler.collector config.sampler sampled in
        fun tape ->
          Exec.Event.replay tape sink;
          drain_pebs tape
    in
    let (_ : Exec.Interp.stats) =
      Exec.Interp.run_tape ~ctx:env.Buildsys.Driver.ctx image config.profile_run ~drain
    in
    Obs.Recorder.advance rec_ profiling_window_seconds;
    let profile, samples =
      match config.profile_source with
      | Perfmon.Source.Lbr -> (lbr_profile, None)
      | Perfmon.Source.Sampled ->
        Obs.Recorder.add_counter rec_ "pipeline.profile.sw_samples"
          sampled.Perfmon.Sampler.num_samples;
        Obs.Recorder.add_counter rec_ "pipeline.profile.sw_frames"
          sampled.Perfmon.Sampler.num_frames;
        ( Wpa.resolve_profile ~binary:metadata_build.binary
            (Wpa.Sampled
               {
                 samples = sampled;
                 program;
                 period = config.sampler.Perfmon.Sampler.period;
               }),
          Some sampled )
    in
    Obs.Recorder.add_counter rec_ "pipeline.profile.lbr_samples"
      profile.Perfmon.Lbr.num_samples;
    Obs.Recorder.add_counter rec_ "pipeline.profile.lbr_records"
      profile.Perfmon.Lbr.num_records;
    Obs.Recorder.set_gauge rec_ "pipeline.profile.distinct_edges"
      (float_of_int (Perfmon.Lbr.distinct_edges profile));
    Obs.Recorder.span_args rec_
      [
        ("source", Obs.Trace.Str (Perfmon.Source.to_string config.profile_source));
        ("lbr_samples", Obs.Trace.Int profile.Perfmon.Lbr.num_samples);
        ("lbr_records", Obs.Trace.Int profile.Perfmon.Lbr.num_records);
        ("distinct_edges", Obs.Trace.Int (Perfmon.Lbr.distinct_edges profile));
        ("pebs_samples", Obs.Trace.Int pebs_profile.Perfmon.Pebs.num_samples);
      ];
    (profile, samples, pebs_profile)
  in
  let wpa, prefetch =
    Obs.Recorder.with_span rec_ "phase:wpa" @@ fun () ->
    Support.Pool.reset_stats (Buildsys.Driver.pool env);
    let wpa_start = Obs.Recorder.now rec_ in
    let wpa =
      Wpa.analyze ~config:config.wpa ~ctx:env.Buildsys.Driver.ctx
        ~layout_cache:env.Buildsys.Driver.layout_cache ~profile:(Wpa.Lbr profile)
        ~binary:metadata_build.binary ()
    in
    let prefetch =
      if config.prefetch then
        Some (Prefetch.analyze ~pebs:pebs_profile ~binary:metadata_build.binary ())
      else None
    in
    Obs.Recorder.advance rec_ wpa.cpu_seconds;
    Obs.Recorder.span_args rec_
      [
        ("plans", Obs.Trace.Int (List.length wpa.plans));
        ("peak_mem_bytes", Obs.Trace.Int wpa.peak_mem_bytes);
        ("hot_funcs", Obs.Trace.Int wpa.hot_funcs);
        ("dcfg_blocks", Obs.Trace.Int wpa.dcfg_blocks);
        ("dcfg_edges", Obs.Trace.Int wpa.dcfg_edges);
        ("layout_score", Obs.Trace.Float wpa.layout_score);
        ("layout_cache_hits", Obs.Trace.Int wpa.layout_cache_hits);
        ("layout_cache_misses", Obs.Trace.Int wpa.layout_cache_misses);
      ];
    Obs.Recorder.set_gauge rec_ "pipeline.wpa.layout_score" wpa.layout_score;
    Obs.Recorder.set_gauge rec_ "pipeline.wpa.hot_funcs" (float_of_int wpa.hot_funcs);
    Obs.Recorder.add_counter rec_ "wpa.layout_cache.hits" wpa.layout_cache_hits;
    Obs.Recorder.add_counter rec_ "wpa.layout_cache.misses" wpa.layout_cache_misses;
    Obs.Recorder.add_counter rec_ "wpa.layout_cache.evictions" wpa.layout_cache_evictions;
    (* Shard-drop degradation is accounted here (Wpa itself stays free
       of telemetry); counters only exist when a plan is armed so the
       fault-free export stays byte-identical. *)
    if wpa.shards_dropped > 0 || wpa.dropped_hot_funcs > 0 then begin
      Obs.Recorder.add_counter rec_ "fault.injected" wpa.shards_dropped;
      Obs.Recorder.add_counter rec_ "fault.shards_dropped" wpa.shards_dropped;
      Obs.Recorder.add_counter rec_ "fault.degraded" wpa.dropped_hot_funcs;
      Obs.Recorder.add_counter rec_ "fault.dropped_hot_funcs" wpa.dropped_hot_funcs
    end;
    (* One lane per pool domain that ran layout tasks this phase, laid
       over the wpa span's simulated-time extent. *)
    let st = Support.Pool.stats (Buildsys.Driver.pool env) in
    Array.iteri
      (fun w tasks ->
        if tasks > 0 then
          Obs.Recorder.emit_span rec_ "wpa:domain" ~tid:(2 + w) ~start:wpa_start
            ~duration:wpa.cpu_seconds
            ~args:[ ("domain", Obs.Trace.Int w); ("tasks", Obs.Trace.Int tasks) ])
      st.tasks_per_worker;
    (wpa, prefetch)
  in
  (* Phase 4: regenerate hot objects, reuse cold ones, relink. *)
  let cg_opt, ld_opt = optimize_options ~hugepages:config.hugepages wpa in
  let cg_opt =
    match prefetch with
    | Some p -> { cg_opt with Codegen.prefetch_sites = p.sites }
    | None -> cg_opt
  in
  let optimized_build =
    Obs.Recorder.with_span rec_ "phase:optimized_build" @@ fun () ->
    let b =
      Buildsys.Driver.build env
        ~name:(Printf.sprintf "%s.po%d" name round)
        ~program ~codegen_options:cg_opt ~link_options:ld_opt
    in
    Obs.Recorder.span_args rec_
      [
        ("hot_objects", Obs.Trace.Int b.cache_misses);
        ("total_objects", Obs.Trace.Int (List.length b.objs));
        ("text_bytes", Obs.Trace.Int (Linker.Binary.text_bytes b.binary));
      ];
    b
  in
  {
    metadata_build;
    source = config.profile_source;
    profile;
    samples;
    wpa;
    prefetch;
    optimized_build;
    times =
      {
        metadata_build_s = metadata_build.wall_seconds;
        profiling_s = profiling_window_seconds;
        conversion_s = wpa.cpu_seconds;
        optimize_build_s = optimized_build.wall_seconds;
      };
    hot_objects = optimized_build.cache_misses;
    total_objects = List.length optimized_build.objs;
  }

let run ?(config = default_config) ~env ~program ~name () =
  run_round ~config ~env ~program ~name ~round:1 ~prev:None ()

let run_rounds ?(config = default_config) ~rounds ~env ~program ~name () =
  if rounds < 1 then invalid_arg "Pipeline.run_rounds: rounds must be >= 1";
  let rec go r prev acc =
    if r > rounds then List.rev acc
    else begin
      let result = run_round ~config ~env ~program ~name ~round:r ~prev () in
      go (r + 1) (Some result.wpa) (result :: acc)
    end
  in
  go 1 None []
