(** Deterministic pprof-style software sampling profiler.

    A drain of the engine's event tape that takes periodic stack
    samples on the simulated instruction clock: each sample records the leaf PC of the
    currently executing fetch run plus a call-stack walk of the
    interpreter's frame state, reconstructed from Call/Ret branch
    events. The sampling period is jittered per-sample from a seeded
    hash so tight loops cannot alias with the sampler.

    Unlike {!Lbr}, the resulting profile carries no branch-direction,
    edge, or mispredict information — only block residency and call
    arcs. CFG edge weights must be synthesized from it (see
    [Propeller.Autofdo]), which is exactly the fidelity gap this module
    exists to let us measure. *)

type config = {
  period : int;  (** mean instructions between samples *)
  jitter_pct : int;  (** each gap drawn from period +/- jitter_pct% *)
  seed : int;  (** jitter stream seed; same seed => same sample points *)
  max_frames : int;  (** stack-walk depth cap per sample (leaf included) *)
}

val default_config : config

type profile = {
  leaves : (int, int) Hashtbl.t;  (** leaf PC -> sample count *)
  arcs : (int * int, int) Hashtbl.t;
      (** (call-site branch source, callee entry address) -> number of
          samples whose stack walk crossed that call frame *)
  mutable num_samples : int;
  mutable num_frames : int;  (** total frames recorded, leaves included *)
}

val create_profile : unit -> profile

type collector
(** Mutable sampling state over a target profile: the shadow call stack
    and the sample schedule. *)

val collector_state : config -> profile -> collector
(** [collector_state config profile] is a fresh collector that
    accumulates into [profile]. Raises [Invalid_argument] unless
    [config.period] and [config.max_frames] are positive. *)

val consume : collector -> Exec.Event.tape -> unit
(** [consume c tape] feeds one tape's events to the sampler, in emission
    order: the drain to pass to {!Exec.Interp.run}. The shadow call
    stack resets at every request event: an interpreter step-limit
    abort unwinds without emitting Ret events, and samples must never
    blame frames from a previous request. *)

val distinct_leaves : profile -> int
