(** The simulated telemetry clock.

    All recorded timestamps come from this clock, never from
    [Unix.gettimeofday]: instrumented code advances it by *modelled*
    durations (scheduler makespans, link cost-model seconds, profiling
    windows), so two identical runs produce byte-identical traces. *)

type t

(** [create ()] starts a clock at 0 seconds. *)
val create : unit -> t

(** [now t] is the current simulated time, in seconds. *)
val now : t -> float

(** [advance t dt] moves the clock forward by [dt] seconds; negative
    [dt] raises [Invalid_argument] (simulated time is monotonic). *)
val advance : t -> float -> unit
