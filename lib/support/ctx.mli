(** The unified execution context threaded through the build/relink
    pipeline.

    Before this module existed, every entry point grew its own
    [?recorder]/[?pool] optional arguments ([Buildsys.Driver.make_env],
    [Propeller.Wpa.analyze], [Codegen.compile_unit],
    [Linker.Link.link], [Uarch.Core.publish],
    [Diagnostics.Report.publish] — six hand-maintained copies of the
    same plumbing). A [Ctx.t] collapses that sprawl into one record —
    telemetry scope, domain pool and the fault-injection
    plan of this run — passed explicitly as [?ctx].

    Every entry point takes [?ctx] directly; the transitional
    [@deprecated] [*_legacy] shims have been removed. *)

type t = {
  recorder : Obs.Recorder.t;  (** Telemetry scope (spans, counters). *)
  pool : Pool.t;  (** Domain pool for per-function/per-unit fan-out. *)
  faults : Faultsim.Plan.t option;
      (** The seeded fault plan driving this run's injected action
          failures, stragglers, cache rot and shard drops; [None]
          disables injection entirely (the fault-free fast path). *)
}

(** [create ()] assembles a context. [recorder] defaults to
    {!Obs.Recorder.global}; [pool] defaults to {!Pool.global} (sized by
    [--jobs]) unless [jobs] is given, in which case
    a fresh pool of that width is created (caller shuts it down, or
    relies on the pool's at-exit backstop). [faults] defaults to no
    injection. *)
val create :
  ?recorder:Obs.Recorder.t ->
  ?pool:Pool.t ->
  ?jobs:int ->
  ?faults:Faultsim.Plan.t ->
  unit ->
  t

(** [default ()] is [create ()]: global recorder, global pool, no
    faults. Cheap to call; not cached (the global pool may be resized
    between calls by [Pool.set_default_jobs]). *)
val default : unit -> t

(** [with_recorder t r] is [t] recording into [r] instead. *)
val with_recorder : t -> Obs.Recorder.t -> t

(** [faults_active t] is true when a plan is present and any of its
    rates is positive. *)
val faults_active : t -> bool
