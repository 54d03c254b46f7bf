(** Deterministic pprof-style software sampling profiler.

    An [Exec.Event.sink] that takes periodic stack samples on the
    simulated instruction clock: each sample records the leaf PC of the
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

(** Event sink that accumulates into [profile]. The shadow call stack
    resets at every request boundary: an interpreter step-limit abort
    unwinds without emitting Ret events, and samples must never blame
    frames from a previous request. *)
val collector : config -> profile -> Exec.Event.sink

val distinct_leaves : profile -> int

(** Sum of all leaf sample counts (= num_samples). *)
val leaf_total : profile -> int

(** Sum of all call-arc crossing counts. *)
val arc_total : profile -> int

(** Accumulate [b] into [a]. *)
val merge : profile -> profile -> unit
