(** The end-to-end Propeller workflow (paper Fig 1, §3).

    Phase 1/2 — build the PGO-optimized binary with profile-mapping
    metadata through the distributed build system (objects land in the
    content-addressed cache). Phase 3 — run the workload, sample LBRs,
    and run the whole-program analysis. Phase 4 — re-run codegen for the
    hot objects only (their action keys changed), reuse every cold
    object from the cache, and relink with the global section order. *)

type config = {
  wpa : Wpa.config;
  lbr : Perfmon.Lbr.config;
  profile_run : Exec.Interp.config;  (** Load-test driving the profile. *)
  hugepages : bool;  (** Map text with 2M pages in production. *)
  prefetch : bool;  (** Also run §3.5 software prefetch insertion. *)
  pebs : Perfmon.Pebs.config;
  profile_source : Perfmon.Source.t;
      (** Where the layout profile comes from: hardware branch records
          ([Lbr], the default) or portable software stack samples
          ([Sampled], synthesized into LBR shape before WPA). *)
  sampler : Perfmon.Sampler.config;  (** Used when [profile_source = Sampled]. *)
}

val default_config : config

(** [config_of_spec spec] is {!default_config} profiling under [spec]'s
    request count, with text mapped on 2M pages when [spec]'s
    production does. *)
val config_of_spec : Progen.Spec.t -> config

type phase_times = {
  metadata_build_s : float;  (** Phase 2: distributed codegen + link. *)
  profiling_s : float;  (** Load test (modelled, §5.6). *)
  conversion_s : float;  (** Phase 3: profile conversion + WPA. *)
  optimize_build_s : float;  (** Phase 4: hot codegen + relink. *)
}

type result = {
  metadata_build : Buildsys.Driver.result;  (** The "PM" build. *)
  source : Perfmon.Source.t;  (** Which regime produced [profile]. *)
  profile : Perfmon.Lbr.profile;
      (** The LBR-shaped profile WPA consumed: raw records under [Lbr],
          the Autofdo synthesis under [Sampled]. *)
  samples : Perfmon.Sampler.profile option;
      (** The raw software samples, when [source = Sampled]. *)
  wpa : Wpa.result;
  prefetch : Prefetch.result option;  (** §3.5 directives, if enabled. *)
  optimized_build : Buildsys.Driver.result;  (** The "PO" build. *)
  times : phase_times;
  hot_objects : int;  (** Objects re-generated in Phase 4. *)
  total_objects : int;
}

(** [optimized_binary r] is the Propeller-optimized executable. *)
val optimized_binary : result -> Linker.Binary.t

(** [run ?config ~env ~program ~name ()] executes phases 1–4. The same
    [env] must be reused across phases (its cache is the point); a fresh
    env still works, it just pays full cost in Phase 4. *)
val run :
  ?config:config ->
  env:Buildsys.Driver.env ->
  program:Ir.Program.t ->
  name:string ->
  unit ->
  result

(** [run_rounds ?config ~rounds ~env ~program ~name ()] iterates the
    pipeline: round N's metadata binary is built with round N-1's
    layout, so its hardware profile observes the *optimized* binary —
    the paper's extra-profiling-round refinement (§4.6, ~1% more on
    clang). Returns one result per round, in order. *)
val run_rounds :
  ?config:config ->
  rounds:int ->
  env:Buildsys.Driver.env ->
  program:Ir.Program.t ->
  name:string ->
  unit ->
  result list

(** [baseline_build ~env ~program ~name] produces the PGO+ThinLTO
    baseline binary (no metadata, compile-time layout only) — the
    comparison base of every experiment (§5 methodology). *)
val baseline_build :
  env:Buildsys.Driver.env -> program:Ir.Program.t -> name:string -> Buildsys.Driver.result

(** [metadata_options] / [optimize_options wpa] expose the exact codegen
    and link option pairs the pipeline uses, for tests and ablations. *)
val metadata_options : Codegen.options * Linker.Link.options

val optimize_options : ?hugepages:bool -> Wpa.result -> Codegen.options * Linker.Link.options
