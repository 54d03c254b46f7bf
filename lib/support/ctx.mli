(** The execution context threaded through the build/relink pipeline:
    the telemetry scope, the domain pool and the fault-injection plan of
    one run. Every library entry point that records, fans out or injects
    faults takes one as a required [~ctx]; there is no process-wide
    fallback, so a run's telemetry lands only on the recorder its
    caller made, and its batches run only on the pool its caller sized. *)

type t = {
  recorder : Obs.Recorder.t;  (** Telemetry scope (spans, counters). *)
  pool : Pool.t;  (** Domain pool for per-function/per-unit fan-out. *)
  faults : Faultsim.Plan.t option;
      (** The seeded fault plan driving this run's injected action
          failures, stragglers, cache rot and shard drops; [None]
          disables injection entirely (the fault-free fast path). *)
}

(** [create ~recorder ~pool ()] assembles a context. The caller owns
    [pool] (a {!Pool.with_pool} scope, or the pool's at-exit backstop).
    [faults] defaults to no injection. *)
val create :
  recorder:Obs.Recorder.t -> pool:Pool.t -> ?faults:Faultsim.Plan.t -> unit -> t

(** [faults_active t] is true when a plan is present and any of its
    rates is positive. *)
val faults_active : t -> bool
